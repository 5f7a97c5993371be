import copy
import gc
import math
import pickle

import numpy as np
import pytest

from nclp.errors import BadExponent, NotHermitian, NotPSD, ProfileMismatch, SingularNegativePower
from nclp import matcore
from nclp.exponents import Exponent
from nclp.matcore import (
    BlockMatrix,
    BlockProfile,
    _lp_norm,
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


def test_profile_sizes_are_computed_once():
    # the sizes and index data are plain attributes of the one interned
    # profile, set when it is made
    read = BlockProfile([2, 3])
    assert (read.coord_dim, read.total_dim, read.block_count) == (13, 5, 2)
    assert read.__slots__ == ("dims", "total_dim", "coord_dim", "size_groups", "transpose_index",
                              "diagonal_index", "block_slots", "__weakref__")
    with pytest.raises(AttributeError):
        read.dims = (3, 2)
    for dims in ([2, 1, 2], [3, 2], [1] * 5):
        profile = BlockProfile(dims)
        assert profile.size_groups is BlockProfile(tuple(dims)).size_groups
        groups, transpose, diagonal, slots = _reference_index_data(profile)
        assert len(profile.size_groups) == len(groups)
        for (d, m, rows), (d_ref, m_ref, rows_ref) in zip(profile.size_groups, groups):
            assert (d, m) == (d_ref, m_ref) and not rows.flags.writeable
            np.testing.assert_array_equal(rows, rows_ref)
        np.testing.assert_array_equal(profile.transpose_index, transpose)
        np.testing.assert_array_equal(profile.diagonal_index, diagonal)
        assert profile.block_slots == slots
        assert not any(a.flags.writeable for a in (profile.transpose_index, profile.diagonal_index))


def _reference_index_data(profile):
    """The per-profile index data as the separate profile-keyed caches computed it."""
    blocks = [ix[0] for ix in block_stacks(profile, np.arange(profile.coord_dim)[:, None])]
    groups = []
    for d in sorted(set(profile.dims)):
        rows = np.stack([ix.ravel() for ix in blocks if len(ix) == d])
        groups.append((d, len(rows), rows))
    transpose = np.concatenate([ix.T.ravel() for ix in blocks])
    diagonal = np.concatenate([ix.diagonal() for ix in blocks])
    sizes = [d for d, _, _ in groups]
    slots = tuple((sizes.index(d), profile.dims[:j].count(d)) for j, d in enumerate(profile.dims))
    return groups, transpose, diagonal, slots


def test_profiles_built_apart_are_one_key():
    a = BlockProfile([2, 1, 2])
    for dims in ((2, 1, 2), np.array([2, 1, 2]), [np.int64(2), np.int32(1), np.uint8(2)]):
        b = BlockProfile(dims)
        assert b is a and b == a and hash(b) == hash(a) and type(b.dims[0]) is int
    assert BlockProfile([2]) != (2,) and (2,) != BlockProfile([2])
    assert BlockProfile([2, 3]) != BlockProfile([3, 2])
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    # a profile no one holds any more leaves the table; built again, it is
    # a new object carrying the same index data
    dims = (5, 1, 7)
    first = BlockProfile(dims)
    groups = first.size_groups
    del first
    gc.collect()
    assert dims not in matcore._LIVE
    assert BlockProfile(dims).size_groups is groups


def test_profile_refuses_sizes_that_are_not_integers():
    # (2,) and (1, 2) are live, so a lookup keyed on the raw sizes would find them
    held = BlockProfile([2]), BlockProfile([1, 2])
    for dims in ([2.7], [2.0], [True, 2], [np.True_, 2], ["2"], [None], [2, 1.5],
                 [np.int64(0)], [2, -1], []):
        with pytest.raises(ValueError, match="integers >= 1"):
            BlockProfile(dims)
    assert held == (BlockProfile((2,)), BlockProfile((1, 2)))


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


SUM_ORDER_PROFILES = [BlockProfile(dims) for dims in ([2], [8], [3, 2], [2, 1, 2], [1] * 6)]


@pytest.mark.parametrize("profile", SUM_ORDER_PROFILES, ids=lambda prof: str(list(prof.dims)))
def test_schatten_sums_in_block_order(profile):
    # exactly the l^p norm of the singular values of one svd per block, in
    # block order and ascending within a block, whatever the order of the
    # size groups
    rng = generator(16)
    for x in (element(profile, rng), element(profile, rng) * 1e-3, BlockMatrix.zeros(profile)):
        per_block = [np.linalg.svd(b, compute_uv=False)[::-1] for b in x.blocks]
        for got, expected in zip(singular_values(x), per_block, strict=True):
            np.testing.assert_array_equal(got, expected)
        for p in (1, "3/2", 2, 3, 1e300, "inf"):
            expected = float(_lp_norm(np.concatenate(per_block), Exponent(p)))
            assert schatten_norm(x, p) == expected, (p, schatten_norm(x, p), expected)
    assert schatten_norm(BlockMatrix.zeros(profile), 2) == 0.0


def _lp_reference(values, p):
    values = [float(v) for v in values]
    top = max(values, default=0.0)
    if p == math.inf or top == 0.0:
        return top
    return top * math.fsum((v / top) ** p for v in values) ** (1.0 / p)


def test_lp_norm_matches_a_plain_reference():
    rng = generator(17)
    rows = np.abs(rng.standard_normal((4, 5))) * [[1.0], [1e-200], [1e200], [3.0]]
    rows[3] = 0.0
    for p in (1, "3/2", 2, 3, 7, 1e300, "inf"):
        pf = float(Exponent(p))
        got = _lp_norm(rows, Exponent(p))
        for row, value in zip(rows, got):
            expected = _lp_reference(row, pf)
            assert abs(value - expected) <= 1e-15 * expected
            assert float(_lp_norm(row, Exponent(p))) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert got[3] == 0.0 and _lp_norm(rows[3], Exponent(p)) == 0.0
        assert _lp_norm(np.zeros(0), Exponent(p)) == 0.0


def test_norm_monotonicity():
    rng = generator(5)
    grid = [1, 1.5, 2, 3, 4, "inf"]
    for profile in PROFILES:
        x = element(profile, rng)
        norms = [schatten_norm(x, p) for p in grid]
        for lo, hi in zip(norms, norms[1:]):
            assert hi <= lo + 1e-12


def block_unitary(profile, rng):
    return BlockMatrix(profile, [unitary(d, rng) for d in profile])


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


MIXED = BlockProfile([1, 3, 1, 2, 3])


def test_flat_operations_match_per_block_numpy():
    rng = generator(13)
    x, y = element(MIXED, rng), element(MIXED, rng)
    xb, yb = [np.array(b) for b in x.blocks], [np.array(b) for b in y.blocks]
    c = 0.7 - 1.3j

    def same(got, blocks):
        assert got.profile == MIXED
        assert len(got.blocks) == len(blocks)
        for g, b in zip(got.blocks, blocks):
            np.testing.assert_array_equal(g, b)

    same(x + y, [a + b for a, b in zip(xb, yb)])
    same(x - y, [a - b for a, b in zip(xb, yb)])
    same(c * x, [c * a for a in xb])
    same(x * c, [c * a for a in xb])
    same(-x, [-a for a in xb])
    same(x.adjoint(), [a.conj().T for a in xb])
    same(x.transpose(), [a.T for a in xb])
    same(x.hermitized(), [(a + a.conj().T) / 2 for a in xb])
    for g, a, b in zip((x @ y).blocks, xb, yb):
        np.testing.assert_allclose(g, a @ b, rtol=0, atol=1e-14)
    assert x.trace() == pytest.approx(sum(np.trace(a) for a in xb), abs=1e-14)
    assert x.fro_norm() == pytest.approx(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in xb)),
                                         rel=1e-15)
    assert x.hs_inner(y) == pytest.approx(sum(np.vdot(a, b) for a, b in zip(xb, yb)), abs=1e-13)
    assert x.max_abs() == max(np.max(np.abs(a)) for a in xb)
    np.testing.assert_array_equal(x.flat(), np.concatenate([a.ravel() for a in xb]))
    same(BlockMatrix.unflat(MIXED, x.flat()), xb)
    same(BlockMatrix.zeros(MIXED), [np.zeros((d, d)) for d in MIXED])
    same(BlockMatrix.identity(MIXED), [np.eye(d) for d in MIXED])
    values = np.arange(1.0, MIXED.total_dim + 1)
    starts = np.cumsum([0] + list(MIXED.dims))
    same(BlockMatrix.diagonal(MIXED, values),
         [np.diag(values[s : s + d]) for s, d in zip(starts, MIXED.dims)])
    for block, row, col in [(1, 2, 0), (3, 0, 1), (2, 0, 0), (-1, 1, 2)]:
        expected = [np.zeros((d, d)) for d in MIXED]
        expected[block][row, col] = 1.0
        same(BlockMatrix.matrix_unit(MIXED, block, row, col), expected)
    with pytest.raises(ProfileMismatch):
        x + element(BlockProfile([1, 3, 1, 3, 2]), rng)


def test_block_matrix_owns_its_storage():
    rng = generator(14)
    v = element(MIXED, rng).flat().copy()
    kept = v.copy()
    x = BlockMatrix.unflat(MIXED, v)
    v[0] = 5.0
    np.testing.assert_array_equal(x.flat(), kept)
    assert x.blocks[0][0, 0] == kept[0]
    blocks = [np.array(b) for b in element(MIXED, rng).blocks]
    kept_blocks = [b.copy() for b in blocks]
    y = BlockMatrix(MIXED, blocks)
    for b in blocks:
        assert b.flags.writeable
        b[0, 0] = 7.0
    for got, expected in zip(y.blocks, kept_blocks):
        np.testing.assert_array_equal(got, expected)
    for arr in (x.flat(), x.blocks[1]):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _per_block_power(P, t):
    """Reference P^t: one numpy.linalg.eigh per block, support convention 0^t = 0."""
    eigs = [np.linalg.eigh((b + b.conj().T) / 2) for b in P.blocks]
    cutoff = 1e-12 * max(lam[-1] for lam, _ in eigs)
    blocks = []
    for lam, v in eigs:
        f = np.zeros_like(lam)
        on = lam > cutoff
        f[on] = 1.0 if t == 0 else lam[on] ** t
        blocks.append((v * f) @ v.conj().T)
    return BlockMatrix(P.profile, blocks)


def test_frac_power_matches_per_block_eigh():
    rng = generator(15)
    full = psd(MIXED, rng, eps=0.05)
    # rank-deficient: a zero 1x1 block and a rank-one 3x3 block
    blocks = [np.array(b) for b in psd(MIXED, rng, eps=0.05).blocks]
    blocks[2] = np.zeros((1, 1))
    u = unitary(3, rng)
    blocks[4] = (u * np.array([0.0, 0.0, 2.0])) @ u.conj().T
    singular = BlockMatrix(MIXED, blocks)
    for P in (full, singular):
        for t in (0, 0.25, 1 / 3, 0.5, 2):
            got = frac_power(P, t)
            assert (got - _per_block_power(P, t)).fro_norm() < 1e-12
            # the inverse of the spectral kernel returns an exactly Hermitian element
            np.testing.assert_array_equal(got.flat(), got.adjoint().flat())
    assert support_of(singular).allclose(_per_block_power(singular, 0), tol=1e-12)
    assert round(support_of(singular).trace().real) == MIXED.total_dim - 3
    assert (frac_power(full, -0.5) - _per_block_power(full, -0.5)).fro_norm() < 1e-10
    with pytest.raises(SingularNegativePower):
        frac_power(singular, -0.5)
    with pytest.raises(NotPSD):
        frac_power(full - BlockMatrix.identity(MIXED) * 10.0, 0.5)


PROF2 = BlockProfile([2])


@pytest.mark.parametrize("call, message", [
    (lambda: BlockMatrix(PROF2, [np.eye(2), np.eye(2)]), "expected 1 blocks, got 2"),
    (lambda: BlockMatrix(PROF2, [np.eye(3)]), "block of shape (3, 3) does not match size 2"),
    (lambda: BlockMatrix.diagonal(PROF2, [1.0, 2.0, 3.0]), "need 2 diagonal entries, got (3,)"),
    (lambda: BlockMatrix.unflat(PROF2, np.zeros(3)), "need 4 coordinates, got 3"),
], ids=["block-count", "block-shape", "diagonal-length", "unflat-length"])
def test_block_matrix_refusals(call, message):
    with pytest.raises(ProfileMismatch) as info:
        call()
    assert str(info.value) == message
