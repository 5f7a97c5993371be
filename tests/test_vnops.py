import warnings

import numpy as np
import pytest

from nclp.errors import NotFaithful, NotPSD, ProfileMismatch
from nclp.exponents import Exponent
from nclp.matcore import BlockMatrix, BlockProfile
from nclp.sampling import element, generator, hermitian, psd
from nclp.vnops import (
    Projection,
    Weight,
    centralizer_tests,
    generate_algebra,
    in_centralizer,
    locally_absolutely_continuous,
    modular_conjugate,
    support_projection,
    weights_commute,
)

PROF2 = BlockProfile([2])
PROF23 = BlockProfile([2, 3])


def random_faithful(profile, rng, normalize=False):
    w = Weight(psd(profile, rng, eps=0.1))
    if normalize:
        w = Weight(w.rho * (1.0 / w.total()))
    return w


def test_weight_validation():
    with pytest.raises(NotPSD):
        Weight(BlockMatrix.diagonal(PROF2, [1.0, -0.5]))
    with pytest.raises(NotPSD):
        Weight(BlockMatrix(PROF2, [np.array([[0, 1], [0, 0]], dtype=complex)]))
    w = Weight.diagonal(PROF2, [1.0, 0.0])
    assert not w.is_faithful
    assert Weight.diagonal(PROF2, [0.3, 0.7]).is_faithful


def test_evaluate_examples():
    w_tr = Weight(BlockMatrix.identity(PROF23))
    rng = generator(0)
    a = element(PROF23, rng)
    assert w_tr.value(a) == pytest.approx(a.trace(), abs=1e-12)
    w = Weight.diagonal(PROF2, [0.7, 0.3])
    assert w.value(BlockMatrix.diagonal(PROF2, [1.0, 2.0])) == pytest.approx(1.3)
    # faithfulness: phi(p* p) > 0 for p != 0
    p = element(PROF2, rng)
    assert w.value(p.adjoint() @ p).real > 0


def test_evaluate_profile_mismatch():
    w = Weight.diagonal(PROF2, [0.5, 0.5])
    with pytest.raises(ProfileMismatch):
        w.value(BlockMatrix.identity(PROF23))


def test_positivity_and_support_nullity():
    rng = generator(1)
    for _ in range(20):
        w = Weight(psd(PROF23, rng))
        a = element(PROF23, rng)
        val = w.value(a.adjoint() @ a)
        assert val.real >= -1e-12 and abs(val.imag) < 1e-12
    # phi(a* a) = 0 forces a e = 0 on the support e
    w = Weight.diagonal(PROF2, [1.0, 0.0])
    a = BlockMatrix.matrix_unit(PROF2, 0, 0, 1)  # a rho^(1/2) = 0
    assert abs(w.value(a.adjoint() @ a)) < 1e-14
    e = support_projection(w).matrix
    assert (a @ e).fro_norm() < 1e-8


def test_support_projection():
    w = Weight.diagonal(PROF2, [0.7, 0.3])
    assert support_projection(w).matrix.allclose(BlockMatrix.identity(PROF2))
    w0 = Weight.diagonal(PROF2, [1.0, 0.0])
    assert support_projection(w0).matrix.allclose(BlockMatrix.diagonal(PROF2, [1.0, 0.0]))
    # conjugated diagonal case
    rng = generator(2)
    from nclp.sampling import unitary

    v = unitary(3, rng)
    rho = v @ np.diag([2.0, 0.0, 3.0]) @ v.conj().T
    w1 = Weight(BlockMatrix(BlockProfile([3]), [rho]))
    expected = v @ np.diag([1.0, 0.0, 1.0]) @ v.conj().T
    assert np.allclose(support_projection(w1).matrix.blocks[0], expected, atol=1e-10)
    # rho e = rho
    assert (w1.rho @ support_projection(w1).matrix - w1.rho).fro_norm() < 1e-9


def test_locally_absolutely_continuous():
    rng = generator(3)
    w_faithful = random_faithful(PROF2, rng)
    for diag in ([1.0, 0.0], [0.0, 1.0], [0.4, 0.6]):
        assert locally_absolutely_continuous(Weight.diagonal(PROF2, diag), w_faithful)
    w0 = Weight.diagonal(PROF2, [1.0, 0.0])
    w1 = Weight.diagonal(PROF2, [0.0, 1.0])
    assert not locally_absolutely_continuous(w0, w1)
    assert not locally_absolutely_continuous(Weight.diagonal(PROF2, [1.0, 1.0]), w0)


def test_modular_conjugate():
    rng = generator(4)
    # tracial weight: trivial modular group
    w_tr = Weight(BlockMatrix.identity(PROF23) * (1 / 5))
    a = element(PROF23, rng)
    for t in (0.3, 1.7):
        assert (modular_conjugate(w_tr, t, a) - a).fro_norm() < 1e-12
    # scalar phase on a matrix unit
    w = Weight.diagonal(PROF2, [4.0, 1.0])
    e12 = BlockMatrix.matrix_unit(PROF2, 0, 0, 1)
    t = 0.9
    moved = modular_conjugate(w, t, e12)
    assert np.isclose(moved.blocks[0][0, 1], np.exp(1j * t * np.log(4.0)))
    # diagonal a and rho commute: fixed
    d = BlockMatrix.diagonal(PROF2, [2.0, 5.0])
    assert (modular_conjugate(w, 1.3, d) - d).fro_norm() < 1e-12
    with pytest.raises(NotFaithful):
        modular_conjugate(Weight.diagonal(PROF2, [1.0, 0.0]), 1.0, a=d)


def test_modular_preserves_weight():
    rng = generator(5)
    for _ in range(10):
        w = random_faithful(PROF23, rng)
        a = element(PROF23, rng)
        for t in (0.4, 2.1):
            moved = modular_conjugate(w, t, a)
            assert abs(w.value(moved) - w.value(a)) < 1e-9 * (1 + abs(w.value(a)))


def test_in_centralizer_examples():
    w = Weight.diagonal(PROF2, [1.0, 2.0])
    assert in_centralizer(w, BlockMatrix.diagonal(PROF2, [3.0, 4.0]))
    assert not in_centralizer(w, BlockMatrix.matrix_unit(PROF2, 0, 0, 1))
    # polynomial in rho commutes
    poly = w.rho @ w.rho + 2.0 * w.rho
    assert in_centralizer(w, poly)


def test_centralizer_tests_agree_on_random_pairs():
    rng = generator(6)
    agreements = 0
    for k in range(200):
        profile = PROF2 if k % 2 else PROF23
        w = random_faithful(profile, rng)
        if k % 3 == 0:
            d = w.rho @ w.rho  # in the centralizer
        else:
            d = hermitian(profile, rng)
        comm, orbit = centralizer_tests(w, d)
        assert comm == orbit
        agreements += 1
    assert agreements == 200


def test_weights_commute():
    assert weights_commute(Weight.diagonal(PROF2, [1, 2]), Weight.diagonal(PROF2, [3, 4]))
    sigma = Weight(BlockMatrix(PROF2, [np.array([[2.0, 1.0], [1.0, 2.0]])]))
    assert not weights_commute(Weight.diagonal(PROF2, [1.0, 2.0]), sigma)
    rng = generator(7)
    w = random_faithful(PROF23, rng)
    assert weights_commute(w, w)
    # symmetry
    v = random_faithful(PROF23, rng)
    assert weights_commute(w, v) == weights_commute(v, w)


def test_generate_algebra_matrix_units():
    gens = [BlockMatrix.matrix_unit(PROF2, 0, i, j) for i in range(2) for j in range(2)]
    basis = generate_algebra(gens)
    assert basis.dimension == 4
    for g in gens:
        assert basis.span_residual(g) < 1e-8


def test_generate_algebra_single_identity():
    basis = generate_algebra([BlockMatrix.identity(PROF23)])
    assert basis.dimension == 1
    assert basis.unit.allclose(BlockMatrix.identity(PROF23), tol=1e-8)


def test_generate_algebra_diag_sum_of_transposes():
    # generators a + a^T embedded as a (+) a^T in M_4: the closure is everything
    prof4 = BlockProfile([4])
    gens = []
    for i in range(2):
        for j in range(2):
            blk = np.zeros((4, 4), dtype=complex)
            blk[i, j] = 1.0
            blk[2 + j, 2 + i] = 1.0  # transpose copy
            gens.append(BlockMatrix(prof4, [blk]))
    basis = generate_algebra(gens)
    assert basis.dimension == 8
    # the span contains pure first-summand elements
    probe = np.zeros((4, 4), dtype=complex)
    probe[0, 0] = 1.0
    assert basis.span_residual(BlockMatrix(prof4, [probe])) < 1e-8


def test_generated_unit_is_join_of_supports():
    # algebra generated by a single off-corner projection pair
    prof3 = BlockProfile([3])
    e = BlockMatrix.diagonal(prof3, [1.0, 1.0, 0.0])
    basis = generate_algebra([e])
    assert basis.unit.allclose(e, tol=1e-8)


def test_generate_algebra_of_zero_is_the_zero_algebra():
    basis = generate_algebra([BlockMatrix.zeros(PROF23)])
    assert basis.dimension == 0 and basis.elements == ()
    assert basis.unit.fro_norm() == 0.0
    assert basis.span_residual(BlockMatrix.identity(PROF23)) == pytest.approx(5 ** 0.5)


def test_generate_algebra_contains_random_generators():
    rng = generator(8)
    for _ in range(5):
        gens = [element(PROF23, rng) for _ in range(int(rng.integers(1, 4)))]
        basis = generate_algebra(gens)
        for g in gens:
            assert basis.span_residual(g) < 1e-8 * max(1.0, g.fro_norm())
        # closure under products and adjoints
        for a in basis.elements[:4]:
            for b in basis.elements[:4]:
                assert basis.span_residual(a @ b) < 1e-8
            assert basis.span_residual(a.adjoint()) < 1e-8


def test_projection_type():
    with pytest.raises(NotPSD):
        Projection(BlockMatrix.diagonal(PROF2, [0.5, 1.0]))
    p = Projection(BlockMatrix.diagonal(PROF2, [1.0, 0.0]))
    q = Projection(BlockMatrix.diagonal(PROF2, [0.0, 1.0]))
    assert p.join(q).matrix.allclose(BlockMatrix.identity(PROF2))
    assert p.leq(Projection(BlockMatrix.identity(PROF2)))
    assert not Projection(BlockMatrix.identity(PROF2)).leq(p)


def test_weights_on_atoms_need_no_eigensolver(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *rest: calls.append(a) or eigh(a, *rest))
    atoms = BlockProfile([1] * 17)
    masses = np.linspace(0.1, 2.0, 17)
    w = Weight.diagonal(atoms, masses)
    assert w.is_faithful
    np.testing.assert_allclose(w.power(0.25).flat(), masses ** 0.25, rtol=1e-15)
    np.testing.assert_allclose(w.log_density().flat(), np.log(masses), rtol=1e-15)
    assert w.imaginary_power(0.5).allclose(BlockMatrix.diagonal(atoms, masses ** 0.5j), tol=1e-14)
    assert calls == []
    Weight(psd(BlockProfile([1, 2]), generator(3), eps=0.1)).power(0.5)
    assert [a.shape for a in calls] == [(1, 2, 2)]


def test_weight_power_matches_per_block_eigh():
    mixed = BlockProfile([1, 3, 1, 2, 3])
    rng = generator(16)
    rho = psd(mixed, rng, eps=0.05)
    w = Weight(rho)
    eigs = [np.linalg.eigh(b) for b in rho.blocks]
    for t in (0, 0.25, -0.5, 1.5):
        ref = BlockMatrix(mixed, [(v * lam ** t) @ v.conj().T for lam, v in eigs])
        assert (w.power(t) - ref).fro_norm() < 1e-12 * max(1.0, ref.fro_norm())
    ref_log = BlockMatrix(mixed, [(v * np.log(lam)) @ v.conj().T for lam, v in eigs])
    assert (w.log_density() - ref_log).fro_norm() < 1e-12
    blocks = [np.array(b) for b in rho.blocks]
    blocks[3] = np.zeros((2, 2))
    singular = Weight(BlockMatrix(mixed, blocks))
    assert round(singular.power(0).trace().real) == mixed.total_dim - 2
    with pytest.raises(NotFaithful):
        singular.power(-0.5)
    with pytest.raises(NotPSD):
        Weight(rho - BlockMatrix.identity(mixed) * 10.0)


def test_weight_density_is_the_hermitized_input_bit_for_bit():
    rng = generator(17)
    for dims in ([1], [2], [3, 1, 2]):
        profile = BlockProfile(dims)
        # a Hermitian defect at rounding level, below the 1e-10 refusal
        noise = 1e-14 * element(profile, rng)
        for rho in (psd(profile, rng, eps=0.1), psd(profile, rng, eps=0.1) + noise):
            assert Weight(rho).rho.flat().tobytes() == rho.hermitized().flat().tobytes()


def test_half_exponents_as_floats_give_the_same_powers():
    # float(x / 2) == float(x) / 2 for a rational x: halving a double is exact
    rng = generator(18)
    w = Weight(psd(PROF23, rng, eps=0.1))
    for p in ("1", "3/2", "2", "3", "1.0000001", "1e300", "inf"):
        x = Exponent(p)
        for sign in (1, -1):
            exact = w.power(sign * x.reciprocal() / 2)
            halved = w.power(sign * float(x.reciprocal()) / 2)
            assert halved.flat().tobytes() == exact.flat().tobytes(), (p, sign)


def test_weight_refuses_a_density_with_a_nan_or_infinite_entry():
    # a NaN defect is no Hermiticity defect below the tolerance, and an
    # infinite entry is refused before any arithmetic could warn
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        for where in ((0, 0), (0, 1)):
            rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
            rho[where] = bad
            if where != (0, 0):
                rho[where[::-1]] = np.conj(bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPSD, match="NaN or infinite"):
                    Weight(BlockMatrix(PROF2, [rho]))


PROF11 = BlockProfile([1, 1])


@pytest.mark.parametrize("call, error, message", [
    (lambda: locally_absolutely_continuous(Weight.tracial(PROF2), Weight.tracial(PROF11)),
     ProfileMismatch, "weights live on different profiles"),
    (lambda: weights_commute(Weight.tracial(PROF2), Weight.tracial(PROF11)),
     ProfileMismatch, "weights live on different profiles"),
    (lambda: generate_algebra([]), ValueError, "need at least one generator"),
    (lambda: generate_algebra([BlockMatrix.identity(PROF2), BlockMatrix.identity(PROF11)]),
     ProfileMismatch, "generators live on different profiles"),
], ids=["continuity-profiles", "commute-profiles", "no-generators", "mixed-generators"])
def test_vnops_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_weights_with_noncommuting_supports_do_not_commute():
    # supports e = E_11 and f = the projection onto (e_1 + e_2)/sqrt(2)
    w = Weight(BlockMatrix(PROF2, [np.diag([1.0, 0.0])]))
    v = Weight(BlockMatrix(PROF2, [np.full((2, 2), 0.5)]))
    assert weights_commute(w, v) is False
