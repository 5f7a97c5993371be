import dataclasses
import itertools
import json

import numpy as np
import pytest

from nclp.classical import (
    FiniteMeasureSpace,
    Partition,
    PointMap,
    build_classical,
    criterion,
    diagonal_consistency,
    eps_delta_modulus,
    five_step_pipeline,
    point_map_morphism,
    pushforward,
    rn_derivative,
)
from nclp.compop import operator_norm
from nclp.errors import ExponentOrder, NoConvergence, ProfileMismatch, TooLarge
from nclp.exponents import Exponent
from nclp.jordan import materialise
from nclp.matcore import BlockMatrix, BlockProfile, schatten_norm
from nclp.sampling import generator


def running_example():
    m1 = FiniteMeasureSpace(["a", "b"], [0.5, 0.5])
    m2 = FiniteMeasureSpace(["x", "y", "z"], [1 / 3, 1 / 3, 1 / 3])
    T = PointMap({"x": "a", "y": "a", "z": "b"})
    return T, m1, m2


def random_space_pair(rng, max_atoms=8):
    n1 = int(rng.integers(1, max_atoms + 1))
    n2 = int(rng.integers(1, max_atoms + 1))
    m1 = FiniteMeasureSpace([f"a{i}" for i in range(n1)], rng.uniform(0.1, 2.0, n1))
    m2 = FiniteMeasureSpace([f"b{i}" for i in range(n2)], rng.uniform(0.1, 2.0, n2))
    mapping = {}
    for atom in m2.atoms:
        if rng.random() < 0.8:
            mapping[atom] = m1.atoms[int(rng.integers(0, n1))]
    return PointMap(mapping), m1, m2


def test_space_validation():
    with pytest.raises(ProfileMismatch):
        FiniteMeasureSpace(["a"], [0.0])
    with pytest.raises(ProfileMismatch):
        FiniteMeasureSpace(["a", "a"], [1.0, 1.0])
    with pytest.raises(ProfileMismatch):
        FiniteMeasureSpace([], [])


def test_pushforward_examples():
    T, m1, m2 = running_example()
    pushed, support = pushforward(T, m1, m2)
    assert np.allclose(pushed, [2 / 3, 1 / 3])
    assert support == ("a", "b")
    # identity map on equal spaces reproduces the measure
    Ti = PointMap({"a": "a", "b": "b"})
    pushed_i, _ = pushforward(Ti, m1, m1)
    assert np.allclose(pushed_i, m1.mass)
    # empty domain: zero measure
    pushed_e, support_e = pushforward(PointMap({}), m1, m2)
    assert np.allclose(pushed_e, 0) and support_e == ()


def test_rn_derivative_examples():
    T, m1, m2 = running_example()
    assert np.allclose(rn_derivative(T, m1, m2), [4 / 3, 2 / 3])
    Ti = PointMap({"a": "a", "b": "b"})
    assert np.allclose(rn_derivative(Ti, m1, m1), [1.0, 1.0])
    assert np.allclose(rn_derivative(PointMap({}), m1, m2), [0.0, 0.0])


def test_criterion_running_example():
    T, m1, m2 = running_example()
    crit = criterion(T, m1, m2, 2, 1)
    assert str(crit.r) == "2"
    assert crit.norm_f == pytest.approx(np.sqrt(10) / 3, abs=1e-12)
    assert crit.norm_f == pytest.approx(1.054093, abs=1e-6)
    assert crit.bound == pytest.approx(crit.norm_f)


def test_criterion_identity_probability():
    Ti = PointMap({"a": "a", "b": "b"})
    m1 = FiniteMeasureSpace(["a", "b"], [0.5, 0.5])
    for p, q in ((2, 1), (3, 1.5), (4, 2)):
        crit = criterion(Ti, m1, m1, p, q)
        assert crit.bound == pytest.approx(1.0, abs=1e-12)
    # p = q: r = inf and the bound is the sup of the derivative
    crit = criterion(Ti, m1, m1, 2, 2)
    assert crit.r.is_inf
    assert crit.bound == pytest.approx(1.0)
    with pytest.raises(ExponentOrder):
        criterion(Ti, m1, m1, 1, 2)


def test_p_a_hair_above_q():
    # p > q with float(p) == float(q): the Lagrange power 1/(p-q) is taken
    # from the rationals, and the witness still attains the bound
    T, m1, m2 = running_example()
    for p, q, bound in (("1.0000000000000000001", "1", 4 / 3), (10 ** 17 + 1, 10 ** 17, 1.0)):
        assert float(Exponent(p)) == float(Exponent(q))
        crit = criterion(T, m1, m2, p, q)
        assert crit.bound == pytest.approx(bound, rel=1e-12)
        assert crit.measured == pytest.approx(crit.bound, rel=1e-12)


def test_zero_operator_has_bound_zero():
    # an empty domain gives f = 0: the bound ||f||_r^{1/q} is 0 like the
    # witness's value, also at q = inf, where 0 ** (1/q) would read 1
    _, m1, m2 = running_example()
    for p, q in (("inf", "inf"), (2, 1), ("inf", 2)):
        crit = criterion(PointMap({}), m1, m2, p, q)
        assert crit.bound == crit.measured == 0.0
    T, m1, m2 = running_example()
    crit = criterion(T, m1, m2, "inf", "inf")
    assert crit.bound == crit.measured == 1.0


def test_build_classical_running_example():
    T, m1, m2 = running_example()
    C = build_classical(T, m1, m2, 2, 1)
    # basis action: indicator of 'a' pulled back to {x, y}
    x = BlockMatrix.diagonal(m1.profile(), [1.0, 0.0])  # embedded indicator * mass^(1/2)
    out = C.direct.apply(x)
    f_a = 1.0 / 0.5 ** 0.5
    expected = np.array([1 / 3 * f_a, 1 / 3 * f_a, 0.0])
    assert np.allclose([b[0, 0].real for b in out.blocks], expected)
    crit = C.criterion
    measured = crit.measured
    assert measured <= crit.bound + 1e-9
    # q = 1 with the full-support Lagrange profile attains the bound
    assert measured == pytest.approx(crit.bound, abs=1e-6)


def test_build_classical_empty_domain():
    _, m1, m2 = running_example()
    C = build_classical(PointMap({}), m1, m2, 2, 1)
    x = BlockMatrix.diagonal(m1.profile(), [1.0, 2.0])
    assert C.direct.apply(x).fro_norm() == 0.0


def test_sharpness_on_random_spaces():
    rng = generator(0)
    for _ in range(30):
        T, m1, m2 = random_space_pair(rng, max_atoms=6)
        for p, q in ((2, 1), (3, 1.5), (2, 2)):
            crit = criterion(T, m1, m2, p, q)
            assert crit.measured <= crit.bound + 1e-9


def test_bound_attained_for_constant_derivative():
    # a map whose pushforward is a constant multiple of the target measure
    # has a constant derivative; at q = 1 the Holder bound is an equality
    m1 = FiniteMeasureSpace(["a", "b"], [0.25, 0.25])
    m2 = FiniteMeasureSpace(["x", "y", "z", "w"], [0.25, 0.25, 0.25, 0.25])
    T = PointMap({"x": "a", "y": "a", "z": "b", "w": "b"})
    assert np.allclose(rn_derivative(T, m1, m2), [2.0, 2.0])
    for p in (2, 3, 4):
        crit = criterion(T, m1, m2, p, 1)
        assert crit.measured == pytest.approx(crit.bound, abs=1e-6)


PAIRS = [(2, 1), (3, "3/2"), (2, 2), (4, 2), ("inf", 2), ("inf", 1), (1, 1),
         ("inf", "inf")]


def _reference_search(T, m1, m2, p, q):
    """The best Lagrange profile over every support subset, by enumeration."""
    p, q = Exponent(p), Exponent(q)
    f = rn_derivative(T, m1, m2)
    masses = np.array(m1.mass)
    pos = np.where(f > 0)[0]
    if pos.size == 0:
        return 0.0
    pf, qf = float(p), float(q)

    def value_on(support):
        g = np.zeros_like(f)
        if p == q:
            g[max(support, key=lambda i: f[i])] = 1.0
        else:
            g[list(support)] = f[list(support)] ** (1.0 / (pf - qf))
        num = float(np.sum(masses * f * g ** qf)) ** (1.0 / qf)
        den = float(np.sum(masses * g ** pf)) ** (1.0 / pf)
        return num / den if den > 0 else 0.0

    candidates = [tuple(pos)]
    for k in range(1, pos.size + 1):
        candidates.extend(itertools.combinations(pos, k))
    return max(value_on(s) for s in candidates)


def test_closed_form_matches_support_search():
    rng = generator(31)
    cases = [random_space_pair(rng) for _ in range(30)]
    cases.append((PointMap({}),) + running_example()[1:])
    for T, m1, m2 in cases:
        for p, q in PAIRS:
            closed = criterion(T, m1, m2, p, q).measured
            searched = _reference_search(T, m1, m2, p, q)
            assert abs(closed - searched) <= 1e-15 * searched


def test_witness_attains_exact_norm():
    # g = f^{1/(p-q)} on the support of f (the indicator of the largest f at
    # p = q), pushed through the operator in embedded coordinates
    rng = generator(32)
    for _ in range(10):
        T, m1, m2 = random_space_pair(rng)
        f = rn_derivative(T, m1, m2)
        if not np.any(f > 0):
            continue
        for p, q in PAIRS:
            p, q = Exponent(p), Exponent(q)
            g = np.zeros_like(f)
            if p == q:
                g[np.argmax(f)] = 1.0
            else:
                g[f > 0] = f[f > 0] ** (1.0 / (float(p) - float(q)))
            x = BlockMatrix.diagonal(m1.profile(), g * np.array(m1.mass) ** float(p.reciprocal()))
            C = build_classical(T, m1, m2, p, q)
            value = schatten_norm(C.direct.apply(x), q) / schatten_norm(x, p)
            assert value == pytest.approx(C.criterion.measured, rel=1e-12)
            assert value == pytest.approx(C.criterion.bound, rel=1e-12)


def test_maximiser_stays_below_exact_norm():
    # the pinned alternating maximiser, from below, never beats the exact norm
    rng = generator(33)
    for _ in range(30):
        T, m1, m2 = random_space_pair(rng)
        for p, q in PAIRS:
            C = build_classical(T, m1, m2, p, q)
            est = operator_norm(C.direct, restarts=3, max_iter=60, seed=3, method="alternating")
            assert est.lower_bound <= C.criterion.measured * (1 + 1e-6)


@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
def test_build_classical_refuses_an_off_witness(monkeypatch, factor):
    # a witness value 1e-6 relative off is refused by the column norm form
    from nclp import classical

    exact = classical.exact_diagonal_norm

    def off(*args):
        crit = exact(*args)
        return dataclasses.replace(crit, measured=crit.measured * factor)

    monkeypatch.setattr(classical, "exact_diagonal_norm", off)
    T, m1, m2 = running_example()
    for p, q in PAIRS:
        with pytest.raises(NoConvergence):
            build_classical(T, m1, m2, p, q)


def test_pipeline_running_example():
    T, m1, m2 = running_example()
    res = five_step_pipeline(build_classical(T, m1, m2, 2, 1))
    assert res.partition.blocks == (("x", "y"), ("z",))
    assert res.composite_residual < 1e-10
    assert res.isometry_residual < 1e-10


def test_pipeline_identity_and_constant():
    m1 = FiniteMeasureSpace(["a", "b"], [0.5, 0.5])
    res = five_step_pipeline(build_classical(PointMap({"a": "a", "b": "b"}), m1, m1, 3, 1.5))
    assert res.composite_residual < 1e-10
    _, m1b, m2 = running_example()
    res_c = five_step_pipeline(
        build_classical(PointMap({"x": "a", "y": "a", "z": "a"}), m1b, m2, 2, 1))
    assert len(res_c.partition.blocks) == 1
    assert res_c.composite_residual < 1e-10


def test_pipeline_random_spaces():
    rng = generator(1)
    for _ in range(20):
        T, m1, m2 = random_space_pair(rng, max_atoms=6)
        res = five_step_pipeline(build_classical(T, m1, m2, 2, 1))
        assert res.composite_residual < 1e-10
        assert res.isometry_residual < 1e-10


def test_pipeline_when_an_atom_label_holds_a_bar():
    # the preimages ("a|b",) and ("a", "b") are distinct blocks of the
    # pullback algebra, also when their atoms joined by "|" read alike
    m1 = FiniteMeasureSpace(["X", "Y"], [0.5, 0.7])
    m2 = FiniteMeasureSpace(["a|b", "a", "b"], [0.3, 0.2, 0.6])
    C = build_classical(PointMap({"a|b": "X", "a": "Y", "b": "Y"}), m1, m2, 2, 1)
    res = five_step_pipeline(C)
    assert res.partition.blocks == (("a|b",), ("a", "b"))
    assert res.composite_residual < 1e-10 * np.abs(C.direct.matrix()).max()
    assert res.isometry_residual < 1e-10
    assert diagonal_consistency(C).ok


def test_isometry_residual_is_exact(monkeypatch, tmp_path):
    # stage III is a relabelling with scale 1, so every column q-norm is
    # exactly 1 and the residual max_j |c_j - 1| is exactly 0, at q = inf too
    from nclp import classical
    from nclp.cli import main

    rng = generator(5)
    bar = (PointMap({"a|b": "X", "a": "Y", "b": "Y"}),
           FiniteMeasureSpace(["X", "Y"], [0.5, 0.7]),
           FiniteMeasureSpace(["a|b", "a", "b"], [0.3, 0.2, 0.6]))
    cases = [running_example(), bar]
    while len(cases) < 22:
        case = random_space_pair(rng, max_atoms=6)
        if case[0].mapping:
            cases.append(case)
    index_map = classical._index_map

    def doubled_third_stage(*args):
        # the pipeline builds its stages in order, so the third call is stage III
        calls.append(args)
        if len(calls) == 3:
            args = args[:-1] + (2.0 * np.asarray(args[-1]),)
        return index_map(*args)

    for T, m1, m2 in cases:
        for p, q in PAIRS:
            C = build_classical(T, m1, m2, p, q)
            res = five_step_pipeline(C)
            assert res.isometry_residual == 0.0
            # scaled by 2, every column norm is exactly 2 (the norm factors
            # out the largest entry), so the residual reads exactly 1
            calls = []
            with monkeypatch.context() as patched:
                patched.setattr(classical, "_index_map", doubled_third_stage)
                doubled = five_step_pipeline(C)
            assert np.array_equal(doubled.isometry.matrix(), 2.0 * res.isometry.matrix())
            assert doubled.isometry_residual == 1.0
    # `nclp classical` draws no random number, whatever its --seed
    def no_draws(*args, **kwargs):
        raise AssertionError("nclp classical drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    T, m1, m2 = running_example()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"measure_space": {
        "atoms1": list(m1.atoms), "masses1": list(m1.mass),
        "atoms2": list(m2.atoms), "masses2": list(m2.mass), "map": dict(T.mapping)}}))
    for p, q, seed in (("2", "1", "0"), ("inf", "2", "7"), ("inf", "inf", "23")):
        out = tmp_path / "report.json"
        argv = ["classical", str(path), "--p", p, "--q", q, "--seed", seed]
        assert main(argv + ["--format", "machine", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["isometry_residual"] == 0.0 and results["all_ok"] is True


def _reference_stages(T, m1, m2, p, q):
    """The classical map and the five stages as the closures they were built from.

    Returns (closure, domain profile) for the direct map, then for stages I-V.
    """
    p, q = Exponent(p), Exponent(q)
    inv_p, inv_q = float(p.reciprocal()), float(q.reciprocal())

    def diag(x):
        return np.array([blk[0, 0] for blk in x.blocks])

    w1, w2 = np.array(m1.mass) ** inv_p, np.array(m2.mass) ** inv_q
    idx = {y: m1.index(x) for y, x in T.mapping}

    def direct(x):
        f = diag(x) / w1
        out = np.zeros(m2.size, dtype=complex)
        for j, y in enumerate(m2.atoms):
            if y in idx:
                out[j] = w2[j] * f[idx[y]]
        return BlockMatrix.diagonal(m2.profile(), out)

    pushed, support = pushforward(T, m1, m2)
    if not support:
        zero = lambda x: BlockMatrix.zeros(m2.profile())
        return [(direct, m1.profile())] + [(zero, m1.profile())] * 5
    part = Partition.from_preimages(T)
    z_idx = [m1.index(a) for a in support]
    space_z1 = FiniteMeasureSpace(support, [m1.mass[i] for i in z_idx])
    space_z_nu = FiniteMeasureSpace(support, [pushed[i] for i in z_idx])
    image = dict(T.mapping)
    block_targets = [image[blk[0]] for blk in part.blocks]
    block_mass = [sum(m2.mass_of(y) for y in blk) for blk in part.blocks]
    y_atoms = tuple(y for y in m2.atoms if y in image)
    y_mass = [m2.mass_of(y) for y in y_atoms]
    half_out = space_z_nu.weight().power(q.reciprocal() / 2)
    half_in = space_z1.weight().power(-p.reciprocal() / 2)
    perm = [support.index(t) for t in block_targets]
    member = {y: b for b, blk in enumerate(part.blocks) for y in blk}
    wq_blocks, wq_y = np.array(block_mass) ** inv_q, np.array(y_mass) ** inv_q

    def refinement(x):
        vals = diag(x) / wq_blocks
        out = [wq_y[i] * vals[member[y]] for i, y in enumerate(y_atoms)]
        return BlockMatrix.diagonal(BlockProfile([1] * len(y_atoms)), out)

    def extension(x):
        out = np.zeros(m2.size, dtype=complex)
        for i, y in enumerate(y_atoms):
            out[m2.index(y)] = diag(x)[i]
        return BlockMatrix.diagonal(m2.profile(), out)

    n = len(support)
    return [
        (direct, m1.profile()),
        (lambda x: BlockMatrix.diagonal(space_z1.profile(), diag(x)[z_idx]), m1.profile()),
        (lambda x: half_out @ (half_in @ x @ half_in) @ half_out, space_z1.profile()),
        (lambda x: BlockMatrix.diagonal(BlockProfile([1] * n), diag(x)[perm]),
         space_z_nu.profile()),
        (refinement, BlockProfile([1] * n)),
        (extension, BlockProfile([1] * len(y_atoms))),
    ]


def test_classical_matrices_match_closures():
    # the classical map (as build_classical holds it) and the five stages
    # are index-plus-scale matrices; each equals the materialisation of the
    # closure it replaced
    rng = generator(4)
    cases = [running_example(), (PointMap({}),) + running_example()[1:]]
    cases += [random_space_pair(rng, max_atoms=6) for _ in range(12)]
    for T, m1, m2 in cases:
        for p, q in ((2, 1), (3, "3/2"), (2, 2), ("inf", 2), ("inf", "inf")):
            C = build_classical(T, m1, m2, p, q)
            res = five_step_pipeline(C)
            ops = [C.direct, res.restriction,
                   res.change, res.isometry, res.refinement, res.extension]
            for op, (closure, profile) in zip(ops, _reference_stages(T, m1, m2, p, q)):
                ref, cod = materialise(closure, profile)
                assert (op.domain_profile, op.codomain_profile) == (profile, cod)
                assert np.linalg.norm(op.matrix() - ref) <= 1e-12 * np.linalg.norm(ref)


def test_eps_delta_examples():
    assert eps_delta_modulus([0.7, 0.1, 0.1, 0.1], [0.25] * 4, 0.5) == pytest.approx(0.25)
    # self continuity: the smallest subset mass reaching eps
    phi = [0.4, 0.35, 0.25]
    assert eps_delta_modulus(phi, phi, 0.3) == pytest.approx(0.35)
    assert eps_delta_modulus([0.1, 0.2], [1.0, 1.0], 10.0) == np.inf
    with pytest.raises(TooLarge):
        eps_delta_modulus([0.1] * 21, [0.1] * 21, 0.5)


def _eps_delta_loop(phi0, phi1, eps):
    """The enumeration that eps_delta_modulus replaced: each non-empty subset in turn."""
    n = len(phi0)
    best = np.inf
    for mask in range(1, 1 << n):
        v0 = sum(phi0[i] for i in range(n) if mask >> i & 1)
        if v0 >= eps:
            v1 = sum(phi1[i] for i in range(n) if mask >> i & 1)
            best = min(best, v1)
    return float(best)


def test_eps_delta_matches_the_subset_loop():
    # bit for bit, with masses on a coarse grid (ties and exact subset sums),
    # eps <= 0 (every non-empty subset reaches it, the empty one must not
    # count) and a NaN mass in phi1, which the loop passes over
    rng = generator(6)
    grid = [0.1, 0.125, 0.25, 0.3, 0.5, 1 / 3]
    for case in range(600):
        n = int(rng.integers(1, 9))
        if case % 3:
            phi0, phi1 = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        else:
            phi0, phi1 = rng.choice(grid, n), rng.choice(grid, n)
        if case % 25 == 0:
            phi1[int(rng.integers(0, n))] = np.nan
        eps = [float(rng.uniform(0.0, 1.2 * phi0.sum())), 0.0, -float(rng.uniform(0.0, 1.0)),
               float(phi0[rng.random(n) < 0.5].sum())][case % 4]
        got = eps_delta_modulus(phi0, phi1, eps)
        assert got.hex() == _eps_delta_loop(phi0.tolist(), phi1.tolist(), eps).hex()
    # 20 atoms of mass 1/16 (exact in binary): eight of them reach 1/2
    assert eps_delta_modulus([1 / 16] * 20, [1 / 16] * 20, 0.5) == 0.5


def test_eps_delta_monotone():
    rng = generator(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        phi0 = rng.uniform(0.05, 1.0, n)
        phi1 = rng.uniform(0.05, 1.0, n)
        eps_grid = sorted(rng.uniform(0.01, phi0.sum(), 4))
        values = [eps_delta_modulus(phi0, phi1, e) for e in eps_grid]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


def test_diagonal_consistency():
    T, m1, m2 = running_example()
    rep = diagonal_consistency(build_classical(T, m1, m2, 2, 1))
    assert rep.ok and rep.max_residual < 1e-9
    # identity map: exact agreement
    Ti = PointMap({"a": "a", "b": "b"})
    rep_i = diagonal_consistency(build_classical(Ti, m1, m1, 2, 2))
    assert rep_i.ok
    # proper subset domain: same extend-by-zero pattern on both sides
    Tp = PointMap({"x": "a"})
    rep_p = diagonal_consistency(build_classical(Tp, m1, m2, 2, 1))
    assert rep_p.ok


def test_diagonal_consistency_random():
    rng = generator(3)
    for _ in range(25):
        T, m1, m2 = random_space_pair(rng, max_atoms=5)
        rep = diagonal_consistency(build_classical(T, m1, m2, 2, 1))
        assert rep.ok


def test_partition_covers_domain():
    T, _, _ = running_example()
    part = Partition.from_preimages(T)
    covered = sorted(y for blk in part.blocks for y in blk)
    assert covered == sorted(dict(T.mapping))


def test_point_map_morphism_structure():
    T, m1, m2 = running_example()
    spec = point_map_morphism(T, m1, m2)
    assert len(spec.tiles) == 3
    a = BlockMatrix.diagonal(m1.profile(), [2.0, 5.0])
    out = spec.apply(a)
    assert np.allclose([b[0, 0].real for b in out.blocks], [2.0, 2.0, 5.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: FiniteMeasureSpace(["a", "b"], [1.0]), ProfileMismatch, "one mass per atom required"),
    (lambda: eps_delta_modulus([1.0, 2.0], [1.0], 0.5),
     ProfileMismatch, "weight vectors differ in length"),
], ids=["mass-short", "unequal-lengths"])
def test_classical_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
