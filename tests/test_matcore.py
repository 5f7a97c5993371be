import numpy as np
import pytest

from nclp.errors import BadExponent, NotHermitian, NotPSD, SingularNegativePower
from nclp.matcore import (
    BlockMatrix,
    BlockProfile,
    block_stacks,
    flat_columns,
    frac_power,
    hermitian_eig,
    polar,
    schatten_norm,
    singular_values,
    support_of,
)
from nclp.sampling import element, generator, hermitian, psd, unitary

PROFILES = [BlockProfile([1]), BlockProfile([3]), BlockProfile([2, 3]), BlockProfile([4, 1, 2])]

# profile [1, 2, 3]: a zero block, a full-rank block and a rank-1 block
RANK_DEFICIENT_SVALS = [[0.0], [0.5, 2.0], [0.0, 0.0, 3.0]]


def from_singular_values(svals, rng):
    """Block matrix U diag(s) V* with random unitaries U, V in each block."""
    profile = BlockProfile([len(s) for s in svals])
    return BlockMatrix(profile, [
        (unitary(len(s), rng) * np.array(s)) @ unitary(len(s), rng).conj().T for s in svals
    ])


def test_profile_validation():
    with pytest.raises(ValueError):
        BlockProfile([])
    with pytest.raises(ValueError):
        BlockProfile([2, 0])
    assert BlockProfile([2, 3]).coord_dim == 13
    assert BlockProfile([2, 3]).total_dim == 5


def test_eig_diagonal_input():
    prof = BlockProfile([2])
    h = BlockMatrix.diagonal(prof, [3.0, 1.0])
    lams, v = hermitian_eig(h)
    assert np.allclose(lams[0], [1.0, 3.0])
    # eigenvector matrix is a permutation
    assert np.allclose(np.abs(v.blocks[0]), [[0, 1], [1, 0]])


def test_eig_symmetric_2x2_closed_form():
    prof = BlockProfile([2])
    h = BlockMatrix(prof, [np.array([[2.0, 1.0], [1.0, 2.0]])])
    lams, v = hermitian_eig(h)
    assert np.allclose(lams[0], [1.0, 3.0])
    expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    # up to per-column phase
    for col in range(2):
        got = v.blocks[0][:, col]
        ref = expected[:, col]
        phase = got[np.argmax(np.abs(ref))] / ref[np.argmax(np.abs(ref))]
        assert np.allclose(got, ref * phase, atol=1e-12)


def test_eig_reconstruction_random():
    rng = generator(0)
    for profile in PROFILES:
        h = hermitian(profile, rng)
        lams, v = hermitian_eig(h)
        sup = max(abs(l).max() for l in lams)
        for lam, vb, hb in zip(lams, v.blocks, h.blocks):
            assert np.all(np.diff(lam) >= 0)
            recon = (vb * lam) @ vb.conj().T
            assert np.linalg.norm(recon - hb) < 1e-10 * (1 + sup)
            assert np.linalg.norm(vb @ vb.conj().T - np.eye(len(lam))) < 1e-10


def test_eig_recovers_known_spectrum():
    rng = generator(1)
    for n in (2, 3, 5, 8):
        lam = np.linspace(-1.0, 2.0, n)
        lam[-2] = lam[-1]  # one repeated eigenvalue
        u = unitary(n, rng)
        h = BlockMatrix(BlockProfile([n]), [(u * lam) @ u.conj().T])
        lams, v = hermitian_eig(h)
        assert np.allclose(lams[0], lam, rtol=0.0, atol=1e-11)
        vb = v.blocks[0]
        assert np.linalg.norm((vb * lams[0]) @ vb.conj().T - h.blocks[0]) < 1e-11


def test_eig_rejects_non_hermitian():
    prof = BlockProfile([2])
    x = BlockMatrix(prof, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotHermitian):
        hermitian_eig(x)


def test_frac_power_examples():
    prof = BlockProfile([2])
    p = BlockMatrix.diagonal(prof, [4.0, 9.0])
    assert frac_power(p, 0.5).allclose(BlockMatrix.diagonal(prof, [2.0, 3.0]))
    # support convention: 0^t = 0
    p0 = BlockMatrix.diagonal(prof, [4.0, 0.0])
    assert frac_power(p0, 0.5).allclose(BlockMatrix.diagonal(prof, [2.0, 0.0]))
    assert support_of(p0).allclose(BlockMatrix.diagonal(prof, [1.0, 0.0]))
    # integer power consistency
    m = BlockMatrix(prof, [np.array([[2.0, 1.0], [1.0, 2.0]])])
    assert frac_power(m, 2).allclose(m @ m)


def test_frac_power_errors():
    prof = BlockProfile([2])
    with pytest.raises(NotPSD):
        frac_power(BlockMatrix.diagonal(prof, [1.0, -1.0]), 0.5)
    with pytest.raises(SingularNegativePower):
        frac_power(BlockMatrix.diagonal(prof, [1.0, 0.0]), -1.0)


def test_power_laws():
    rng = generator(2)
    exps = [0.25, 1 / 3, 0.5, 1.0]
    for profile in PROFILES[:3]:
        p = psd(profile, rng, eps=0.05)
        for s in exps:
            for t in exps:
                lhs = frac_power(p, s) @ frac_power(p, t)
                rhs = frac_power(p, s + t)
                assert (lhs - rhs).fro_norm() < 1e-9


def test_singular_values_rank_deficient():
    x = from_singular_values(RANK_DEFICIENT_SVALS, generator(8))
    svals = singular_values(x)
    for got, expected in zip(svals, RANK_DEFICIENT_SVALS):
        assert np.all(np.diff(got) >= 0)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def test_schatten_examples():
    prof = BlockProfile([2])
    x = BlockMatrix.diagonal(prof, [3.0, 4.0])
    assert schatten_norm(x, 1) == pytest.approx(7.0, abs=1e-12)
    assert schatten_norm(x, 2) == pytest.approx(5.0, abs=1e-12)
    assert schatten_norm(x, "inf") == pytest.approx(4.0, abs=1e-12)
    e12 = BlockMatrix.matrix_unit(prof, 0, 0, 1)
    for p in (1, 1.5, 2, 7, "inf"):
        assert schatten_norm(e12, p) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BadExponent):
        schatten_norm(x, 0.5)


def test_schatten_trace_identity_oracle():
    rng = generator(3)
    for profile in PROFILES:
        x = element(profile, rng)
        assert schatten_norm(x, 2) ** 2 == pytest.approx(
            x.hs_inner(x).real, abs=1e-10 * (1 + x.fro_norm() ** 2)
        )


def test_schatten_against_svd_oracle():
    rng = generator(4)
    for profile in PROFILES:
        x = element(profile, rng)
        svals = np.concatenate(
            [np.linalg.svd(b, compute_uv=False) for b in x.blocks]
        )
        for p in (1, 1.5, 2, 3, "inf"):
            expected = svals.max() if p == "inf" else (svals ** float(p)).sum() ** (1 / float(p))
            assert schatten_norm(x, p) == pytest.approx(expected, rel=1e-12)


def test_norm_monotonicity():
    rng = generator(5)
    grid = [1, 1.5, 2, 3, 4, "inf"]
    for profile in PROFILES:
        x = element(profile, rng)
        norms = [schatten_norm(x, p) for p in grid]
        for lo, hi in zip(norms, norms[1:]):
            assert hi <= lo + 1e-12


def block_unitary(profile, rng):
    return BlockMatrix(profile, [unitary(d, rng) for d in profile], copy=False)


def test_unitary_invariance():
    rng = generator(6)
    for profile in PROFILES[:3]:
        x = element(profile, rng)
        u = block_unitary(profile, rng)
        v = block_unitary(profile, rng)
        for p in (1, 2, 3.5, "inf"):
            assert schatten_norm(u @ x @ v, p) == pytest.approx(
                schatten_norm(x, p), abs=1e-10 * (1 + schatten_norm(x, p))
            )


def test_polar():
    prof = BlockProfile([2])
    # positive input: u is the support projection
    pos = BlockMatrix.diagonal(prof, [2.0, 3.0])
    u, a = polar(pos)
    assert u.allclose(BlockMatrix.identity(prof))
    assert a.allclose(pos)
    # scalar -1
    one = BlockProfile([1])
    neg = BlockMatrix(one, [np.array([[-1.0]])])
    u, a = polar(neg)
    assert np.isclose(u.blocks[0][0, 0], -1)
    assert np.isclose(a.blocks[0][0, 0], 1)


def test_polar_random_reconstruction():
    rng = generator(7)
    for profile in PROFILES:
        x = element(profile, rng)
        u, absx = polar(x)
        assert (u @ absx - x).fro_norm() < 1e-10 * (1 + x.fro_norm())
        assert absx.allclose(frac_power(x.adjoint() @ x, 0.5), tol=1e-9)
        # u*u is the support of |x|
        uu = u.adjoint() @ u
        assert uu.allclose(support_of(absx), tol=1e-9)


def test_polar_rank_deficient():
    x = from_singular_values(RANK_DEFICIENT_SVALS, generator(9))
    u, absx = polar(x)
    assert (u @ absx - x).fro_norm() < 1e-12 * x.fro_norm()
    uu = u.adjoint() @ u
    assert uu.allclose(support_of(absx), tol=1e-12)
    assert [round(np.trace(b).real) for b in uu.blocks] == [0, 2, 1]


def test_block_stacks_round_trip():
    rng = generator(12)
    for profile in PROFILES:
        elements = [element(profile, rng) for _ in range(3)]
        cols = np.stack([x.flat() for x in elements], axis=1)
        stacks = block_stacks(profile, cols)
        for b, d in enumerate(profile.dims):
            assert stacks[b].shape == (3, d, d)
            for k, x in enumerate(elements):
                assert np.array_equal(stacks[b][k], x.blocks[b])
        assert np.array_equal(flat_columns(stacks), cols)
        assert flat_columns(block_stacks(profile, cols[:, :0])).shape == (profile.coord_dim, 0)
