import numpy as np
import pytest

from nclp.compop import SuperOperator, build_composition
from nclp.errors import NotFaithful, ProfileMismatch
from nclp.haagerup import embed
from nclp.jordan import (
    JordanMorphismSpec,
    Tile,
    decompose,
    identity_morphism,
    is_modular_invariant,
    materialise,
    pushforward_density,
    random_morphism,
    random_onto_morphism,
    transpose_morphism,
    verify_jordan,
)
from nclp.matcore import BlockMatrix, BlockProfile
from nclp.sampling import element, generator, hermitian, psd, unitary
from nclp.vnops import Weight, generate_algebra, weights_commute

PROF2 = BlockProfile([2])
PROF23 = BlockProfile([2, 3])
PROF4 = BlockProfile([4])


def faithful(profile, rng):
    return Weight(psd(profile, rng, eps=0.15))


def test_tile_validation():
    with pytest.raises(ProfileMismatch):
        JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 1, "H")])  # offset overflow
    with pytest.raises(ProfileMismatch):
        JordanMorphismSpec(PROF2, PROF4, [Tile(0, 0, 0, "H"), Tile(0, 0, 1, "H")])
    with pytest.raises(ValueError):
        Tile(0, 0, 0, "X")
    # 1x1 sources are normalised to kind H
    one = BlockProfile([1])
    spec = JordanMorphismSpec(one, one, [Tile(0, 0, 0, "A")])
    assert spec.tiles[0].kind == "H"


def test_apply_examples():
    rng = generator(0)
    a = element(PROF2, rng)
    assert identity_morphism(PROF2).apply(a).allclose(a)
    assert transpose_morphism(PROF2).apply(a).allclose(a.transpose())
    both = JordanMorphismSpec(PROF2, PROF4, [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
    out = both.apply(a)
    assert np.allclose(out.blocks[0][:2, :2], a.blocks[0])
    assert np.allclose(out.blocks[0][2:, 2:], a.blocks[0].T)


def test_verify_jordan_pass_and_fail():
    assert verify_jordan(identity_morphism(PROF23)).passed
    assert verify_jordan(transpose_morphism(PROF23)).passed

    # the diagonal-part map is linear and *-preserving but not Jordan
    def diag_part(x):
        return BlockMatrix(
            x.profile, [np.diag(np.diagonal(b)).copy() for b in x.blocks]
        )

    report = verify_jordan(diag_part, profile=PROF2)
    assert not report.passed
    # explicit witness: a = e12 + e21 squares to the identity
    a = BlockMatrix(PROF2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert (diag_part(a @ a) - diag_part(a) @ diag_part(a)).fro_norm() > 1.0


def test_verify_jordan_catches_conjugate_linear_map():
    # x -> J(conj x) has the matrix of J on the (real) matrix units, so only
    # the linearity probe through the map itself can catch it
    spec = random_morphism(generator(9), profile1=PROF23)

    def conj_linear(x):
        return spec.apply(BlockMatrix(x.profile, [b.conj() for b in x.blocks]))

    assert np.array_equal(materialise(conj_linear, PROF23)[0], materialise(spec.apply, PROF23)[0])
    assert verify_jordan(spec).passed
    report = verify_jordan(conj_linear, profile=PROF23)
    assert not report.passed
    assert report.max_residual > 1e-3
    assert report.failures


def test_verify_jordan_catches_a_similarity():
    # x -> s x s^{-1} keeps the anticommutator law on every pair of matrix
    # units and breaks only J(E_ji) = J(E_ij)*
    s = BlockMatrix(PROF2, [np.array([[1.0, 0.3], [0.0, 1.0]])])
    t = BlockMatrix(PROF2, [np.array([[1.0, -0.3], [0.0, 1.0]])])
    report = verify_jordan(lambda x: s @ x @ t, profile=PROF2)
    assert not report.passed
    assert report.failures == (("jordan", report.max_residual),)
    assert report.max_residual == pytest.approx(0.3)


def test_random_morphisms_verify():
    rng = generator(1)
    for k in range(25):
        spec = random_morphism(rng)
        assert verify_jordan(spec).passed


def test_decompose_identity():
    rng = generator(2)
    w2 = faithful(PROF2, rng)
    dec = decompose(identity_morphism(PROF2), w2)
    assert dec.z.matrix.allclose(BlockMatrix.identity(PROF2))
    assert dec.e.matrix.allclose(BlockMatrix.identity(PROF2))
    assert dec.e_one_minus_z.matrix.fro_norm() == 0
    assert (dec.weight_total.rho - w2.rho).fro_norm() < 1e-10


def test_decompose_direct_sum_example():
    both = JordanMorphismSpec(PROF2, PROF4, [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
    w4 = Weight.tracial(PROF4, total=1.0)
    dec = decompose(both, w4)
    assert np.allclose(dec.z.matrix.blocks[0], np.diag([1.0, 1.0, 0.0, 0.0]))
    half_tr = BlockMatrix.identity(PROF2) * 0.25
    assert (dec.weight_hom.rho - half_tr).fro_norm() < 1e-12
    assert (dec.weight_anti.rho - half_tr).fro_norm() < 1e-12
    assert (dec.weight_total.rho - dec.weight_hom.rho - dec.weight_anti.rho).fro_norm() < 1e-12


def test_decompose_killed_block():
    # block 2 of M_2 (+) M_3 is not covered: e picks out the first block only
    spec = JordanMorphismSpec(PROF23, PROF2, [Tile(0, 0, 0, "H")])
    rng = generator(3)
    dec = decompose(spec, faithful(PROF2, rng))
    assert np.allclose(dec.e.matrix.blocks[0], np.eye(2))
    assert dec.e.matrix.blocks[1].max() == 0


def test_density_splitting_random():
    rng = generator(4)
    for k in range(15):
        spec = random_morphism(rng)
        w2 = faithful(spec.profile2, rng)
        dec = decompose(spec, w2)
        gap = (dec.weight_total.rho - dec.weight_hom.rho - dec.weight_anti.rho).fro_norm()
        assert gap < 1e-9
        # z splits multiplicatively / antimultiplicatively
        a = element(spec.profile1, rng)
        b = element(spec.profile1, rng)
        z = dec.z.matrix
        j1 = spec.unit_image()
        scale = 1e-9 * (1 + a.fro_norm() * b.fro_norm()) * 4
        assert (z @ spec.apply(a @ b) - z @ spec.apply(a) @ spec.apply(b)).fro_norm() < scale
        anti = j1 - z
        assert (anti @ spec.apply(a @ b) - anti @ spec.apply(b) @ spec.apply(a)).fro_norm() < scale
        # J(a) = J(eae) on the support
        e = dec.e.matrix
        assert (spec.apply(a) - spec.apply(e @ a @ e)).fro_norm() < scale


def test_pushforward_density_examples():
    rng = generator(5)
    w = faithful(PROF2, rng)
    assert (pushforward_density(identity_morphism(PROF2), w).rho - w.rho).fro_norm() < 1e-12
    # unitary conjugation pushes the density through the conjugation
    u = unitary(2, rng)
    spec = JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 0, "H", conj_unitary=u)])
    k = pushforward_density(spec, w)
    expected = u.conj().T @ w.rho.blocks[0] @ u
    assert np.allclose(k.rho.blocks[0], expected, atol=1e-10)
    # direct sum into M_4 with the normalised trace
    both = JordanMorphismSpec(PROF2, PROF4, [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
    k4 = pushforward_density(both, Weight.tracial(PROF4, total=1.0))
    assert (k4.rho - BlockMatrix.identity(PROF2) * 0.5).fro_norm() < 1e-12
    with pytest.raises(NotFaithful):
        pushforward_density(both, Weight.diagonal(PROF4, [1, 1, 1, 0]))


def test_pushforward_matches_on_random_elements():
    rng = generator(6)
    for _ in range(10):
        spec = random_morphism(rng)
        w2 = faithful(spec.profile2, rng)
        k = pushforward_density(spec, w2)
        a = element(spec.profile1, rng)
        assert abs(k.value(a) - w2.value(spec.apply(a))) < 1e-9 * (
            1 + abs(w2.value(spec.apply(a)))
        )


def _reference_pullback(profile1, fn):
    """Density of a -> fn(a), one call of fn per matrix unit (tr(rho E_lk) = rho[k, l])."""
    blocks = []
    for s, size in enumerate(profile1.dims):
        rho = np.zeros((size, size), dtype=complex)
        for k in range(size):
            for l in range(size):
                rho[k, l] = fn(BlockMatrix.matrix_unit(profile1, s, l, k))
        blocks.append((rho + rho.conj().T) / 2)
    return BlockMatrix(profile1, blocks)


def test_pullback_weights_match_per_unit_extraction():
    # the densities come from one row-times-matrix product; they equal the
    # per-unit extraction, on partial draws and on source blocks copied twice
    rng = generator(70)
    partial = doubled = False
    for _ in range(12):
        spec = random_morphism(rng)
        covered = [t.src for t in spec.tiles]
        partial |= len(set(covered)) < spec.profile1.block_count
        doubled |= len(covered) > len(set(covered))
        w2 = faithful(spec.profile2, rng)
        z, j1 = spec.hom_projection(), spec.unit_image()
        refs = [_reference_pullback(spec.profile1, lambda a, g=g: w2.value(g @ spec.apply(a)))
                for g in (BlockMatrix.identity(spec.profile2), z, j1 - z)]
        dec = decompose(spec, w2)
        got = [pushforward_density(spec, w2).rho, dec.weight_total.rho, dec.weight_hom.rho,
               dec.weight_anti.rho]
        for rho, ref in zip(got, refs[:1] + refs):
            assert (rho - ref).fro_norm() <= 1e-12 * max(1.0, ref.fro_norm())
    assert partial and doubled


def test_commuting_split_weights_when_image_is_algebra():
    # one tile per source block: J is a *-iso/antiiso onto its image algebra,
    # so the hom/anti weights have orthogonal central supports and commute
    rng = generator(7)
    for k in range(10):
        tiles = [Tile(0, 0, 0, "H" if k % 2 else "A"), Tile(1, 1, 0, "A" if k % 3 else "H")]
        spec = JordanMorphismSpec(PROF23, PROF23, tiles)
        w2 = faithful(PROF23, rng)
        dec = decompose(spec, w2)
        assert weights_commute(dec.weight_hom, dec.weight_anti)


def test_onto_isometry():
    # pushing the weight through a bijective (anti)isomorphism identifies
    # the weighted L^p spaces isometrically
    rng = generator(8)
    for anti in (False, True):
        spec = random_onto_morphism(rng, PROF23, anti=anti)
        w2 = faithful(spec.profile2, rng)
        k = pushforward_density(spec, w2)
        for p in (1, 2, 3, "inf"):
            a = element(PROF23, rng)
            lhs = embed(k, a, p).norm()
            rhs = embed(w2, spec.apply(a), p).norm()
            assert abs(lhs - rhs) < 1e-9 * (1 + rhs)


def test_is_modular_invariant():
    rng = generator(9)
    w = faithful(PROF2, rng)
    full = generate_algebra(
        [BlockMatrix.matrix_unit(PROF2, 0, i, j) for i in range(2) for j in range(2)]
    )
    assert is_modular_invariant(full, w, (0.5, 1.2))
    diag_w = Weight.diagonal(PROF2, [1.0, 2.0])
    diag_alg = generate_algebra(
        [BlockMatrix.diagonal(PROF2, [1.0, 0.0]), BlockMatrix.diagonal(PROF2, [0.0, 1.0])]
    )
    assert is_modular_invariant(diag_alg, diag_w, (0.7, 1.9))
    # the real span of {1, e12 + e21} is rotated out of itself
    sym = BlockMatrix(PROF2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    small = generate_algebra([sym])
    assert not is_modular_invariant(small, diag_w, (0.7,))


def test_block_unitary_count_must_match_destination_blocks():
    with pytest.raises(ProfileMismatch, match="one block unitary slot"):
        JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 0, "H")], [None, np.eye(2)])
    with pytest.raises(ProfileMismatch, match="one block unitary slot"):
        JordanMorphismSpec(PROF2, BlockProfile([2, 1]), [Tile(0, 0, 0, "H")], [None])


def _reference_apply(spec, a):
    """J(a) by walking the tiles: each source block, transposed for an A tile
    and conjugated by the tile unitary, copied into its diagonal range; then
    every destination block conjugated by its block unitary."""
    out = [np.zeros((d, d), dtype=complex) for d in spec.profile2]
    for t in spec.tiles:
        sub = a.blocks[t.src]
        if t.kind == "A":
            sub = sub.T
        if t.conj_unitary is not None:
            sub = t.conj_unitary @ sub @ t.conj_unitary.conj().T
        size = spec.profile1.dims[t.src]
        out[t.dst][t.offset : t.offset + size, t.offset : t.offset + size] += sub
    if spec.block_unitaries is not None:
        for d, w in enumerate(spec.block_unitaries):
            if w is not None:
                out[d] = w @ out[d] @ w.conj().T
    return BlockMatrix(spec.profile2, out)


def _reference_hom_projection(spec):
    """z by walking the tiles: an identity on the range of every H tile, then
    every destination block conjugated by its block unitary."""
    out = [np.zeros((d, d), dtype=complex) for d in spec.profile2]
    for t in spec.tiles:
        if t.kind == "H":
            size = spec.profile1.dims[t.src]
            out[t.dst][t.offset : t.offset + size, t.offset : t.offset + size] += np.eye(size)
    if spec.block_unitaries is not None:
        for d, w in enumerate(spec.block_unitaries):
            if w is not None:
                out[d] = w @ out[d] @ w.conj().T
    return BlockMatrix(spec.profile2, out)


def test_spec_matrix_matches_materialised_apply():
    # the closed-form matrix against the tile walk it replaced, so the test
    # does not compare the matrix with itself through apply
    rng = generator(61)
    seen = set()
    for _ in range(40):
        spec = random_morphism(rng)
        mat = spec.matrix()
        ref, _ = materialise(lambda a, spec=spec: _reference_apply(spec, a), spec.profile1)
        assert mat.shape == ref.shape
        assert np.max(np.abs(mat - ref)) <= 1e-14
        assert spec.matrix() is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        seen.update(t.kind for t in spec.tiles)
        if any(t.conj_unitary is not None for t in spec.tiles):
            seen.add("tile unitary")
        if spec.block_unitaries is not None and any(w is not None for w in spec.block_unitaries):
            seen.add("block unitary")
        if len(spec.covered_src_blocks()) < spec.profile1.block_count:
            seen.add("partial")
        if len(spec.tiles) > len(spec.covered_src_blocks()):
            seen.add("multiplicity 2")
    assert seen == {"H", "A", "tile unitary", "block unitary", "partial", "multiplicity 2"}


def test_hom_projection_matches_tile_walk():
    rng = generator(64)
    kinds = set()
    for _ in range(40):
        spec = random_morphism(rng)
        z = spec.hom_projection()
        assert z.profile == spec.profile2
        assert np.max(np.abs((z - _reference_hom_projection(spec)).flat())) <= 1e-14
        x = element(spec.profile1, rng)
        assert np.max(np.abs((spec.apply(x) - _reference_apply(spec, x)).flat())) <= 1e-13 * (
            1 + x.fro_norm())
        kinds.add(tuple(sorted({t.kind for t in spec.tiles})))
    assert kinds == {("H",), ("A", "H"), ("A",)}


def _reference_verify(fn, profile, samples, seed, tol=1e-9):
    """verify_jordan one sample at a time, on BlockMatrix draws and a materialised map.

    Returns (passed, failure indices, max residual).
    """
    M, profile2 = materialise(fn, profile)

    def through_m(x):
        return BlockMatrix.unflat(profile2, M @ x.flat())

    rng = generator(seed)
    res = []
    for _ in range(samples):
        a = hermitian(profile, rng)
        b = hermitian(profile, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        ja = through_m(a)
        r_adj = (ja - ja.adjoint()).fro_norm()
        r_sq = (through_m(a @ a) - ja @ ja).fro_norm()
        r_lin = (fn(alpha * a + b) - (alpha * ja + through_m(b))).fro_norm()
        res.append(max(r_adj, r_sq, r_lin) / max(1.0, a.fro_norm()) ** 2)
    worst = max(res)
    return worst < tol, [k for k, r in enumerate(res) if r >= tol][:5], worst


def test_verify_jordan_matches_per_sample_reference():
    rng = generator(62)

    def diag_part(x):
        return BlockMatrix(x.profile, [np.diag(np.diagonal(b)) for b in x.blocks])

    cases = []
    for _ in range(6):
        spec = random_morphism(rng)
        cases.append((spec, spec.apply, spec.profile1))
        w1 = faithful(spec.profile1, rng)
        w2 = faithful(spec.profile2, rng)
        op = build_composition(spec, w1, w2, 3, 1.5)   # linear, not Jordan
        cases.append((op, op.apply, spec.profile1))
        cases.append((spec.apply, spec.apply, spec.profile1))
    cases.append((diag_part, diag_part, PROF23))
    # the random-sample loop is the verdict oracle; the exact check decides alike
    for samples, seed in ((1, 0), (7, 3), (20, 11)):
        for morphism, fn, profile in cases:
            report = verify_jordan(morphism, seed=seed, profile=profile)
            passed, _, _ = _reference_verify(fn, profile, samples, seed)
            assert report.passed == passed
            assert bool(report.failures) == (not passed)
    assert any(not verify_jordan(m, profile=p).passed for m, _, p in cases)


def test_verify_jordan_refuses_conjugate_linear_superoperator():
    # the conjugate-linear map has the matrix of J on the (real) matrix
    # units, and verify_jordan judges an operator by its matrix; so the
    # operator constructor refuses it, by comparing the map with its matrix
    spec = random_morphism(generator(63), profile1=PROF23)
    op = SuperOperator(PROF23, spec.profile2, 2, 2, spec.apply)
    np.testing.assert_allclose(op.matrix(), spec.matrix(), rtol=0.0, atol=1e-12)
    assert verify_jordan(op).passed
    with pytest.raises(ProfileMismatch):
        SuperOperator(PROF23, spec.profile2, 2, 2,
                      lambda x: spec.apply(BlockMatrix(x.profile, [b.conj() for b in x.blocks])))
