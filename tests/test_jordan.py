import numpy as np
import pytest

from nclp import jordan
from nclp.classical import FiniteMeasureSpace, PointMap, point_map_morphism
from nclp.compop import SuperOperator, build_composition
from nclp.errors import InvalidMorphism, NotFaithful, ProfileMismatch
from nclp.haagerup import embed
from nclp.jordan import (
    JORDAN_TOL,
    JordanMorphismSpec,
    Tile,
    decompose,
    identity_morphism,
    is_modular_invariant,
    jordan_defect,
    materialise,
    pushforward_density,
    random_morphism,
    random_onto_morphism,
    transpose_morphism,
    verify_jordan,
)
from nclp.matcore import BlockMatrix, BlockProfile, block_stacks
from nclp.sampling import element, generator, hermitian, psd, unitary
from nclp.vnops import Weight, generate_algebra, modular_conjugate, weights_commute

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
    assert is_modular_invariant(full, w)
    diag_w = Weight.diagonal(PROF2, [1.0, 2.0])
    diag_alg = generate_algebra(
        [BlockMatrix.diagonal(PROF2, [1.0, 0.0]), BlockMatrix.diagonal(PROF2, [0.0, 1.0])]
    )
    assert is_modular_invariant(diag_alg, diag_w)
    # the real span of {1, e12 + e21} is rotated out of itself
    sym = BlockMatrix(PROF2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    small = generate_algebra([sym])
    assert not is_modular_invariant(small, diag_w)


def test_is_modular_invariant_at_every_t():
    # h = diag(1, 2): sigma_t is the identity at t = 2 pi / log 2, yet the
    # algebra spanned by 1 and sigma_x is rotated out of itself at other t
    w = Weight.diagonal(PROF2, [1.0, 2.0])
    sigma_x = BlockMatrix(PROF2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    B = generate_algebra([sigma_x])
    resonant = 2 * np.pi / np.log(2.0)
    assert B.span_residual(modular_conjugate(w, resonant, sigma_x)) < 1e-12
    assert B.span_residual(modular_conjugate(w, 1.0, sigma_x)) > 0.1
    assert not is_modular_invariant(B, w)


def test_decompose_of_a_morphism_with_no_tiles():
    dec = decompose(JordanMorphismSpec(PROF23, PROF2, []), Weight.diagonal(PROF2, [0.6, 0.4]))
    for proj in (dec.z, dec.e, dec.e_z, dec.e_one_minus_z):
        assert proj.matrix.fro_norm() == 0.0
    for weight in (dec.weight_total, dec.weight_hom, dec.weight_anti):
        assert weight.rho.fro_norm() == 0.0


def test_invalid_morphisms_are_refused(monkeypatch):
    # a tile unitary whose defect ||u u* - 1|| is above 1e-8 dim
    almost = np.diag([1.0, 1.0 + 1e-7])
    with pytest.raises(InvalidMorphism, match="not unitary"):
        JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 0, "H", almost)])
    # a rank-one projection inside the range of an H tile is not central in
    # the image algebra M_2
    spec = identity_morphism(PROF2)
    monkeypatch.setattr(JordanMorphismSpec, "hom_projection",
                        lambda self: BlockMatrix.diagonal(PROF2, [1.0, 0.0]))
    with pytest.raises(InvalidMorphism, match="not central"):
        decompose(spec, Weight.diagonal(PROF2, [0.6, 0.4]))


def test_tile_unitary_that_breaks_the_laws_is_refused():
    # diag(1, 1 + 5e-9) passes as unitary (defect 1e-8 < 2e-8), but
    # J(E_22) = (1 + 5e-9)^2 E_22 is not a projection: residual 2e-8
    almost = np.diag([1.0, 1.0 + 5e-9])
    with pytest.raises(InvalidMorphism, match="tile data does not define a Jordan morphism"):
        JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 0, "H", almost)])


def test_frame_check_is_never_looser_than_the_pair_check():
    # every unitary of a random morphism moved by eps (N + iN), log10 eps
    # uniform on [-11.5, -8]: whatever the constructor accepts passes the
    # exact pair check
    rng = generator(2024)
    counts = {"accepted": 0, "refused": 0}

    def moved(u, eps):
        return None if u is None else u + eps * (
            rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))

    specs = []
    for _ in range(400):
        spec = random_morphism(rng)
        eps = 10.0 ** rng.uniform(-11.5, -8)
        tiles = [Tile(t.src, t.dst, t.offset, t.kind, moved(t.conj_unitary, eps))
                 for t in spec.tiles]
        bus = spec.block_unitaries and [moved(w, eps) for w in spec.block_unitaries]
        if bus is None and all(t.conj_unitary is None for t in tiles):
            continue
        specs.append((spec.profile1, spec.profile2, tiles, bus))
    # diag(1, 1 + delta): d = 2 delta + delta^2 and the pair residual at
    # (E_22, E_22) is 2((1 + delta)^4 - (1 + delta)^2), so 2d(1 + d) is sharp
    for delta in (3.5e-10, 2e-10):
        specs.append((PROF2, PROF2, [Tile(0, 0, 0, "H", np.diag([1.0, 1.0 + delta]))], None))
    for profile1, profile2, tiles, bus in specs:
        try:
            spec = JordanMorphismSpec(profile1, profile2, tiles, bus)
        except InvalidMorphism:
            counts["refused"] += 1
            continue
        counts["accepted"] += 1
        assert jordan_defect(spec.matrix(), profile1, profile2)[0] <= JORDAN_TOL
    assert counts["accepted"] >= 100 and counts["refused"] >= 20, counts


def test_frames_of_one_destination_block_are_checked_together():
    # two 1x1 tiles on one [2] block with W = [[1, eps], [0, 1]]: each
    # column alone has norm 1 to rounding, but the two overlap by eps
    profile1, profile2 = BlockProfile([1, 1]), BlockProfile([2])
    tiles = [Tile(0, 0, 0, "H"), Tile(1, 0, 1, "H")]
    with pytest.raises(InvalidMorphism, match="tile data does not define a Jordan morphism"):
        JordanMorphismSpec(profile1, profile2, tiles, [np.array([[1.0, 5e-9], [0.0, 1.0]])])
    spec = JordanMorphismSpec(profile1, profile2, tiles, [np.array([[1.0, 1e-10], [0.0, 1.0]])])
    assert jordan_defect(spec.matrix(), profile1, profile2)[0] <= JORDAN_TOL


def test_a_nan_unitary_is_refused():
    # NaN compares false with every tolerance, so it must fail the check
    nan = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InvalidMorphism, match="tile data does not define a Jordan morphism"):
        JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 0, "H", nan)])


def test_unitary_free_tiles_have_no_jordan_defect():
    # without unitaries the constructor skips the pair check, which would
    # find exactly 0.0: the matrix is 0/1 with at most one 1 per row
    m1 = FiniteMeasureSpace(["a", "b", "c"], [0.5, 0.25, 2.0])
    m2 = FiniteMeasureSpace(["x", "y", "z", "w"], [1.0, 0.5, 0.3, 0.2])
    specs = [identity_morphism(PROF23), transpose_morphism(PROF23),
             point_map_morphism(PointMap({"x": "a", "y": "a", "w": "c"}), m1, m2),
             point_map_morphism(PointMap({}), m1, m2)]
    rng = generator(71)
    for _ in range(30):
        spec = random_morphism(rng)
        specs.append(JordanMorphismSpec(spec.profile1, spec.profile2, [
            Tile(t.src, t.dst, t.offset, t.kind) for t in spec.tiles]))
    for spec in specs:
        assert jordan_defect(spec.matrix(), spec.profile1, spec.profile2)[0] == 0.0


def _reference_jordan_defect(M, profile1, profile2):
    """jordan_defect as a plain loop: adjoint defects, then the pairs u <= v of matrix units."""
    units = [(b, i, j) for b, n in enumerate(profile1.dims) for i in range(n) for j in range(n)]
    index = {unit: u for u, unit in enumerate(units)}

    def product(u, v):
        """Flat index of E_u E_v, or None when the product is 0."""
        (b, i, j), (c, k, l) = units[u], units[v]
        return index[b, i, l] if b == c and j == k else None

    worst, where = 0.0, (0, 0)
    for X in block_stacks(profile2, M):
        for u, (b, i, j) in enumerate(units):
            gap = np.abs(X[index[b, j, i]] - X[u].conj().T).max()
            if gap > worst:
                worst, where = gap, (u, u)
        for u in range(len(units)):
            for v in range(u, len(units)):
                defect = X[u] @ X[v] + X[v] @ X[u]
                for t in (product(u, v), product(v, u)):
                    if t is not None:
                        defect = defect - X[t]
                gap = np.abs(defect).max()
                if gap > worst:
                    worst, where = gap, (u, v)
    return worst, where


def test_jordan_defect_matches_a_plain_loop_over_unit_pairs():
    rng = generator(83)
    cases = []
    for _ in range(12):
        spec = random_morphism(rng)
        shape = spec.matrix().shape
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cases.append((spec.matrix() + 1e-3 * noise, spec.profile1, spec.profile2))
    # [4, 4] into one 8-wide block: N = 32 units, m = 8, so each row chunk
    # holds _PAIR_BUDGET // (N m^2) = 2 rows and the check spans 16 chunks
    wide1, wide8 = BlockProfile([4, 4]), BlockProfile([8])
    assert jordan._PAIR_BUDGET // (32 * 8 * 8) < 32
    framed = JordanMorphismSpec(wide1, wide8, [Tile(0, 0, 0, "H", unitary(4, rng)),
                                               Tile(1, 0, 4, "A", unitary(4, rng))],
                                [unitary(8, rng)])
    for scale in (1e-6, 1e-2):
        noise = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
        cases.append((framed.matrix() + scale * noise, wide1, wide8))
    for profile1, profile2 in ((wide1, wide8), (PROF23, BlockProfile([3, 2])),
                               (BlockProfile([1, 2]), BlockProfile([2, 3, 1]))):
        shape = (profile2.coord_dim, profile1.coord_dim)
        cases.append((rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                      profile1, profile2))
    for M, profile1, profile2 in cases:
        worst, where = jordan_defect(M, profile1, profile2)
        ref_worst, ref_where = _reference_jordan_defect(M, profile1, profile2)
        assert abs(worst - ref_worst) <= 1e-12 * ref_worst
        assert where == ref_where, (profile1.dims, profile2.dims)


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


def test_hom_projection_matches_the_sub_morphism_unit():
    # the closed form against the construction it replaced: the unit image
    # of the morphism made of the H tiles, under the same block unitaries
    rng = generator(65)
    for _ in range(40):
        spec = random_morphism(rng)
        hom = [t for t in spec.tiles if t.kind == "H"]
        ref = JordanMorphismSpec(spec.profile1, spec.profile2, hom,
                                 spec.block_unitaries).unit_image()
        assert np.max(np.abs((spec.hom_projection() - ref).flat())) <= 1e-14


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


@pytest.mark.parametrize("call, message", [
    (lambda: identity_morphism(PROF2).apply(BlockMatrix.zeros(PROF23)),
     "element does not match the source profile"),
    (lambda: JordanMorphismSpec(PROF2, PROF2, [Tile(0, 0, 0, "H", np.eye(3))]),
     "tile unitary has shape (3, 3), expected (2, 2)"),
    (lambda: JordanMorphismSpec(PROF2, PROF2, [Tile(1, 0, 0, "H")]),
     "tile source index 1 out of range"),
    (lambda: JordanMorphismSpec(PROF2, PROF2, [Tile(0, 1, 0, "H")]),
     "tile destination index 1 out of range"),
], ids=["apply", "unitary-shape", "src-range", "dst-range"])
def test_jordan_refusals(call, message):
    with pytest.raises(ProfileMismatch) as info:
        call()
    assert str(info.value) == message
