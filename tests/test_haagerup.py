import numpy as np
import pytest

from nclp.errors import ExponentMismatch, NotFaithful, ProfileMismatch
from nclp.exponents import Exponent, INF
from nclp.haagerup import (
    ExponentTriple,
    LpElement,
    embed,
    holder_check,
    kosaki_embed,
    tr,
    unembed,
)
from nclp.matcore import BlockMatrix, BlockProfile, frac_power, polar, schatten_norm
from nclp.sampling import element, generator, hermitian, psd
from nclp.vnops import Weight

PROF2 = BlockProfile([2])
PROF23 = BlockProfile([2, 3])


def test_triple_construction():
    t = ExponentTriple.from_pq(2, 1)
    assert t.r == Exponent(2) and t.p_conj == Exponent(2)
    assert ExponentTriple.from_pq(2, 2).r.is_inf
    assert ExponentTriple.from_pq("inf", 2).r == Exponent(2)
    with pytest.raises(ExponentMismatch):
        ExponentTriple(Exponent(2), Exponent(1), Exponent(3), Exponent(2))


def test_embed_scalar_example():
    w = Weight.diagonal(PROF2, [0.7, 0.3])
    e12 = BlockMatrix.matrix_unit(PROF2, 0, 0, 1)
    x = embed(w, e12, 2)
    # (0.7 * 0.3)^(1/4) on the off-diagonal
    assert np.isclose(x.matrix.blocks[0][0, 1], 0.21 ** 0.25, atol=1e-12)
    # identity at p = 1 gives the density itself
    assert embed(w, BlockMatrix.identity(PROF2), 1).matrix.allclose(w.rho)
    # p = inf returns the element unchanged
    a = hermitian(PROF2, generator(0))
    assert embed(w, a, "inf").matrix.allclose(a)


def test_embed_requires_faithful():
    w = Weight.diagonal(PROF2, [1.0, 0.0])
    with pytest.raises(NotFaithful):
        embed(w, BlockMatrix.identity(PROF2), 2)


def test_embed_positivity():
    rng = generator(1)
    for p in (1, 1.5, 2, 4, "inf"):
        w = Weight(psd(PROF23, rng, eps=0.1))
        a = psd(PROF23, rng)
        x = embed(w, a, p).matrix
        from nclp.matcore import hermitian_eig

        lams, _ = hermitian_eig(x)
        assert min(l.min() for l in lams) > -1e-10


def test_unembed_round_trip():
    rng = generator(2)
    w = Weight(psd(PROF23, rng, eps=0.1))
    assert unembed(w, embed(w, w.power(0.5), 2)).allclose(w.power(0.5), tol=1e-9)
    for p in (1, 2, 3, "inf"):
        a = element(PROF23, rng)
        back = unembed(w, embed(w, a, p))
        assert (back - a).fro_norm() < 1e-9 * (1 + a.fro_norm())


def test_kosaki_embedding():
    rng = generator(3)
    w = Weight(psd(PROF23, rng, eps=0.2))
    a = element(PROF23, rng)
    # consistency with the direct L^1 embedding
    for p in (1.5, 2, 3, "inf"):
        lhs = kosaki_embed(w, embed(w, a, p)).matrix
        rhs = embed(w, a, 1).matrix
        assert (lhs - rhs).fro_norm() < 1e-9 * (1 + rhs.fro_norm())
    # scalar case: h = I/2 at p = 2 multiplies by 2^(-1/2)
    half = Weight(BlockMatrix.identity(PROF2) * 0.5)
    x = LpElement(element(PROF2, rng), Exponent(2))
    out = kosaki_embed(half, x)
    assert (out.matrix - x.matrix * (0.5 ** 0.5)).fro_norm() < 1e-12
    # p = inf (p* = 1): h^(1/2) x h^(1/2) multiplies by 1/2
    xi = LpElement(x.matrix, INF)
    assert (kosaki_embed(half, xi).matrix - x.matrix * 0.5).fro_norm() < 1e-12
    with pytest.raises(ExponentMismatch):
        kosaki_embed(w, embed(w, a, 1))


def test_trace_functional():
    w = Weight.diagonal(PROF2, [0.7, 0.3])
    # normalised state: tr(h) = 1
    assert tr(LpElement(w.rho, Exponent(1))) == pytest.approx(1.0)
    a = BlockMatrix.diagonal(PROF2, [1.0, 2.0])
    assert tr(embed(w, a, 1)) == pytest.approx(1.3)
    rng = generator(4)
    x = LpElement(element(PROF2, rng), Exponent(1))
    assert tr(x.adjoint()) == pytest.approx(np.conj(tr(x)))
    with pytest.raises(ExponentMismatch):
        tr(LpElement(a, Exponent(2)))


def test_tr_embed_equals_evaluate():
    rng = generator(5)
    for _ in range(10):
        w = Weight(psd(PROF23, rng, eps=0.1))
        a = element(PROF23, rng)
        assert abs(tr(embed(w, a, 1)) - w.value(a)) < 1e-10 * (1 + abs(w.value(a)))


def test_holder_check_equality_case():
    prof3 = BlockProfile([3])
    one = BlockMatrix.identity(prof3)
    triple = ExponentTriple.from_pq(2, 1)
    lhs, rhs = holder_check(LpElement(one, Exponent(2)), LpElement(one, Exponent(2)), triple)
    assert lhs == pytest.approx(3.0)
    assert rhs == pytest.approx(3.0)


def test_holder_orthogonal_supports():
    x = LpElement(BlockMatrix.diagonal(PROF2, [1.0, 0.0]), Exponent(3))
    y = LpElement(BlockMatrix.diagonal(PROF2, [0.0, 1.0]), Exponent(3))
    triple = ExponentTriple.from_pq(3, 1.5)
    lhs, _ = holder_check(x, y, triple)
    assert lhs == 0.0


def test_holder_random_pairs():
    rng = generator(6)
    prof4 = BlockProfile([4])
    triple = ExponentTriple.from_pq(3, 1.5)
    for _ in range(25):
        x = LpElement(element(prof4, rng), triple.p)
        y = LpElement(element(prof4, rng), triple.r)
        lhs, rhs = holder_check(x, y, triple)
        assert lhs <= rhs + 1e-9


def test_holder_exponent_mismatch():
    triple = ExponentTriple.from_pq(2, 1)
    x = LpElement(BlockMatrix.identity(PROF2), Exponent(3))
    with pytest.raises(ExponentMismatch):
        holder_check(x, x, triple)


def norming_candidate(b, r, t):
    """The duality-aligned g with ||g||_t = 1 whose product attains ||b||_r.

    For the split 1/s = 1/r + 1/t the element |b|^{r/t}, normalised in L^t,
    satisfies ||b g||_s = ||b||_r; random sampling of the unit ball only ever
    approaches this value from below.
    """
    r, t = Exponent(r), Exponent(t)
    if schatten_norm(b, r) == 0.0:
        return BlockMatrix.zeros(b.profile)
    _, absb = polar(b)
    g = frac_power(absb, float(r.fraction / t.fraction) if not t.is_inf else 0.0)
    return g * (1.0 / schatten_norm(g, t))


def test_dual_norm_attainment():
    # sup ||b g||_s over the L^t unit ball equals ||b||_r; random sampling
    # approaches from below, the aligned candidate attains it
    rng = generator(7)
    cases = [(2, 1, 2), (3, 1.5, 3), (4, 2, 4)]  # (r, s, t) with 1/s = 1/r + 1/t
    for r, s, t in cases:
        b = element(PROF23, rng)
        target = schatten_norm(b, r)
        best = 0.0
        for _ in range(500):
            g = element(PROF23, rng)
            g = g * (1.0 / schatten_norm(g, t))
            best = max(best, schatten_norm(b @ g, s))
        g_star = norming_candidate(b, r, t)
        assert schatten_norm(g_star, t) == pytest.approx(1.0, abs=1e-10)
        best = max(best, schatten_norm(b @ g_star, s))
        assert best == pytest.approx(target, rel=1e-6)
        assert best <= target + 1e-9


def test_embed_refuses_another_profile():
    with pytest.raises(ProfileMismatch) as info:
        embed(Weight.tracial(PROF2), BlockMatrix.zeros(PROF23), 2)
    assert str(info.value) == "element and weight profiles differ"
