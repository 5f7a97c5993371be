"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; runtime budgets are asserted against the
wall clock of the criterion body.
"""

import json
import time

import numpy as np
import pytest

from nclp.classical import (
    FiniteMeasureSpace,
    PointMap,
    build_classical,
    diagonal_consistency,
    criterion as classical_criterion,
    eps_delta_modulus,
    five_step_pipeline,
)
from nclp.cli import main as cli_main
from nclp.compop import (
    SuperOperator,
    build_composition,
    change_of_weights,
    classify_characteristic_preserving,
    left_multiplication,
    operator_norm,
    recover_left_multiplier,
    recover_right_multiplier,
    splitting_inequality_check,
)
from nclp.errors import NotModuleMap
from nclp.exponents import Exponent
from nclp.haagerup import ExponentTriple, LpElement, embed, holder_check
from nclp.jordan import (
    pushforward_density,
    random_morphism,
    random_onto_morphism,
)
from nclp.matcore import BlockMatrix, BlockProfile, schatten_norm
from nclp.sampling import element, generator, hermitian, psd, unitary
from nclp.vnops import Weight, centralizer_tests


def faithful(profile, rng):
    return Weight(psd(profile, rng, eps=0.15))


class Clock:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, criterion, detail):
        elapsed = time.perf_counter() - self.start
        print(f"PASS {criterion}: {detail} [{elapsed:.1f}s < {self.budget}s]")
        assert elapsed < self.budget
        return elapsed


def test_criterion_01_holder_suite():
    clock = Clock(10)
    rng = generator(101)
    profiles = [BlockProfile(d) for d in ([1], [2], [3], [2, 2], [2, 3], [4, 3])]
    triples = [
        ExponentTriple.from_pq(2, 1),
        ExponentTriple.from_pq(3, "1.5"),
        ExponentTriple.from_pq(4, 2),
        ExponentTriple.from_pq("inf", 2),
    ]
    worst = -np.inf
    for k in range(1000):
        profile = profiles[k % len(profiles)]
        triple = triples[k % len(triples)]
        x = LpElement(element(profile, rng), triple.p)
        y = LpElement(element(profile, rng), triple.r)
        lhs, rhs = holder_check(x, y, triple)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-9
    clock.done("criterion 1 (Holder suite)", f"1000 instances, max lhs-rhs {worst:.2e}")


def test_criterion_02_change_of_weights_sandwich():
    clock = Clock(60)
    rng = generator(102)
    pairs = [(Exponent(2), Exponent(1)), (Exponent(3), Exponent("1.5")),
             (Exponent(4), Exponent(2)), (Exponent(2), Exponent(2))]
    worst_gap = -np.inf
    for k in range(100):
        profile = BlockProfile([2]) if k % 2 else BlockProfile([3])
        h = faithful(profile, rng)
        kw = faithful(profile, rng)
        for p, q in pairs:
            cw = change_of_weights(h, kw, p, q)
            est = operator_norm(cw.operator, restarts=4, max_iter=100, seed=k)
            gap = est.lower_bound - cw.bound
            worst_gap = max(worst_gap, gap)
            assert est.lower_bound <= cw.bound + 1e-6
    # the diagonal example reproduces the frozen bound
    cw = change_of_weights(
        Weight.diagonal(BlockProfile([2]), [0.5, 0.5]),
        Weight.diagonal(BlockProfile([2]), [0.8, 0.2]),
        2, 1,
    )
    assert cw.bound == pytest.approx(1.166190, abs=1e-6)
    clock.done(
        "criterion 2 (change-of-weights sandwich)",
        f"400 runs, worst measured-bound gap {worst_gap:.2e}, example bound {cw.bound:.6f}",
    )


def test_criterion_03_two_two_oracle():
    clock = Clock(30)
    rng = generator(103)
    profile = BlockProfile([2, 2])
    dim = profile.coord_dim
    worst_rel = 0.0
    for k in range(50):
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        S = SuperOperator.from_matrix(profile, profile, 2, 2, mat)
        certified = operator_norm(S).lower_bound
        alternating = operator_norm(S, restarts=16, seed=k, method="alternating").lower_bound
        rel = abs(alternating - certified) / certified
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-4
        assert alternating <= certified + 1e-9
    clock.done("criterion 3 ((2,2) oracle)", f"50 operators, worst relative gap {worst_rel:.2e}")


def test_criterion_04_module_multiplier_round_trip():
    clock = Clock(10)
    rng = generator(104)
    profiles = [BlockProfile([3, 2]), BlockProfile([2]), BlockProfile([3])]
    pair_grid = [(2, 1), (3, "1.5"), (2, 2), (4, 2)]
    worst = 0.0
    for k in range(100):
        profile = profiles[k % len(profiles)]
        p, q = pair_grid[k % len(pair_grid)]
        w = faithful(profile, rng)
        c = element(profile, rng)
        T = left_multiplication(profile, c, p, q)
        rec = recover_left_multiplier(T, w)
        res = (rec.multiplier - c).fro_norm() / (1 + c.fro_norm())
        worst = max(worst, res)
        assert res < 1e-8
        # the trace dual is right multiplication by the same element
        dual = recover_right_multiplier(T.trace_dual(), w)
        assert (dual.multiplier - c).fro_norm() / (1 + c.fro_norm()) < 1e-8
    rejected = 0
    for k in range(20):
        profile = profiles[k % 2]
        w = faithful(profile, rng)
        if k % 2:
            bad = SuperOperator(profile, profile, 2, 2, lambda x: x.transpose())
        else:
            u_blocks = [unitary(d, rng) for d in profile.dims]
            u = BlockMatrix(profile, u_blocks)
            bad = SuperOperator(profile, profile, 2, 2,
                                lambda x, u=u: u @ x @ u.adjoint())
        with pytest.raises(NotModuleMap) as err:
            recover_left_multiplier(bad, w)
        assert err.value.witness is not None
        rejected += 1
    clock.done(
        "criterion 4 (module multiplier round trip)",
        f"100 recoveries (worst residual {worst:.2e}), {rejected}/20 non-module maps rejected",
    )


def test_criterion_05_classifier_completeness():
    clock = Clock(120)
    rng = generator(105)
    grid = [(Exponent(2), Exponent(2)), (Exponent(2), Exponent(1)),
            (Exponent(3), Exponent("1.5")), (Exponent("inf"), Exponent(2))]
    src_profiles = [BlockProfile(d) for d in ([2], [3], [2, 2], [1, 2], [4, 3], [2, 3])]
    specs = []
    for k in range(40):
        specs.append(random_morphism(rng, profile1=src_profiles[k % len(src_profiles)]))
    worst = 0.0
    accepted = 0
    for k, spec in enumerate(specs):
        w1 = faithful(spec.profile1, rng)
        w2 = faithful(spec.profile2, rng)
        for p, q in grid:
            C = build_composition(spec, w1, w2, p, q)
            result = classify_characteristic_preserving(C, w1, w2, seed=k)
            assert result.accepted, (k, str(p), str(q))
            accepted += 1
            for s, size in enumerate(spec.profile1.dims):
                for i in range(size):
                    for j in range(size):
                        u = BlockMatrix.matrix_unit(spec.profile1, s, i, j)
                        gap = (result.morphism.apply(u) - spec.apply(u)).fro_norm()
                        worst = max(worst, gap)
                        assert gap < 1e-8
    rejected = 0
    for k in range(20):
        spec = specs[k]
        w1 = faithful(spec.profile1, rng)
        w2 = faithful(spec.profile2, rng)
        C = build_composition(spec, w1, w2, 2, 1)
        mat = np.array(C.matrix())
        noise = 0.05 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))
        S = SuperOperator.from_matrix(spec.profile1, spec.profile2, 2, 1, mat + noise)
        result = classify_characteristic_preserving(S, w1, w2, seed=k)
        assert not result.accepted
        rejected += 1
    clock.done(
        "criterion 5 (classifier completeness)",
        f"{accepted} accepts (worst basis gap {worst:.2e}), {rejected}/20 perturbed rejects",
    )


def test_criterion_06_onto_isometry():
    clock = Clock(10)
    rng = generator(106)
    worst = 0.0
    for k in range(50):
        profile = BlockProfile([2, 3]) if k % 2 else BlockProfile([3, 1, 2])
        spec = random_onto_morphism(rng, profile, anti=bool(k % 2))
        w2 = faithful(spec.profile2, rng)
        kw = pushforward_density(spec, w2)
        for p in (1, 2, 3, "inf"):
            a = element(profile, rng)
            lhs = embed(kw, a, p).norm()
            rhs = embed(w2, spec.apply(a), p).norm()
            gap = abs(lhs - rhs) / (1 + rhs)
            worst = max(worst, gap)
            assert gap < 1e-9
    clock.done("criterion 6 (pushforward isometry)", f"50 morphisms x 4 exponents, worst gap {worst:.2e}")


def test_criterion_07_commuting_weights_and_splitting():
    clock = Clock(10)
    rng = generator(107)
    profiles = [BlockProfile([2]), BlockProfile([3]), BlockProfile([2, 2])]
    agree = 0
    for k in range(200):
        profile = profiles[k % len(profiles)]
        w = faithful(profile, rng)
        if k % 4 == 0:
            d = w.rho @ w.rho  # centralizer member
        elif k % 4 == 1:
            v = faithful(profile, rng)
            d = v.rho  # density of a second weight
        else:
            d = hermitian(profile, rng)
        comm, orbit = centralizer_tests(w, d)
        assert comm == orbit
        agree += 1
    min_gap = np.inf
    for k in range(100):
        profile = profiles[k % len(profiles)]
        u_blocks = [unitary(d, rng) for d in profile.dims]
        u = BlockMatrix(profile, u_blocks)
        n = profile.total_dim
        lam_z = np.abs(rng.uniform(0, 2, n)) * (rng.random(n) > 0.2)
        lam_1z = np.abs(rng.uniform(0, 2, n)) * (rng.random(n) > 0.2)
        hz = Weight(u @ BlockMatrix.diagonal(profile, lam_z) @ u.adjoint())
        h1z = Weight(u @ BlockMatrix.diagonal(profile, lam_1z) @ u.adjoint())
        hJ = Weight(hz.rho + h1z.rho)
        q = [1, 2, 3, "inf"][k % 4]
        report = splitting_inequality_check(hJ, hz, h1z, q)
        min_gap = min(min_gap, report.min_gap_eigenvalue)
        assert report.ok
    clock.done(
        "criterion 7 (commuting weights and splitting)",
        f"{agree}/200 test agreements, min splitting gap {min_gap:.2e}",
    )


def test_criterion_08_classical_layer():
    clock = Clock(20)
    m1 = FiniteMeasureSpace(["a", "b"], [0.5, 0.5])
    m2 = FiniteMeasureSpace(["x", "y", "z"], [1 / 3, 1 / 3, 1 / 3])
    T = PointMap({"x": "a", "y": "a", "z": "b"})
    crit = classical_criterion(T, m1, m2, 2, 1)
    assert str(crit.r) == "2"
    assert crit.norm_f == pytest.approx(1.054093, abs=1e-6)
    delta = eps_delta_modulus([0.7, 0.1, 0.1, 0.1], [0.25] * 4, 0.5)
    assert delta == 0.25
    rng = generator(108)
    worst_pipe = 0.0
    worst_cons = 0.0
    for k in range(50):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        s1 = FiniteMeasureSpace([f"a{i}" for i in range(n1)], rng.uniform(0.1, 2.0, n1))
        s2 = FiniteMeasureSpace([f"b{i}" for i in range(n2)], rng.uniform(0.1, 2.0, n2))
        mapping = {
            atom: s1.atoms[int(rng.integers(0, n1))]
            for atom in s2.atoms if rng.random() < 0.85
        }
        Tk = PointMap(mapping)
        pq = [(2, 1), (3, "1.5"), (2, 2)][k % 3]
        Ck = build_classical(Tk, s1, s2, *pq)
        pipe = five_step_pipeline(Ck)
        worst_pipe = max(worst_pipe, pipe.composite_residual, pipe.isometry_residual)
        assert pipe.composite_residual < 1e-10
        cons = diagonal_consistency(Ck)
        worst_cons = max(worst_cons, cons.max_residual)
        assert cons.max_residual < 1e-9
    clock.done(
        "criterion 8 (classical layer)",
        f"example norm {crit.norm_f:.6f}, delta* {delta}, worst pipeline {worst_pipe:.2e}, "
        f"worst consistency {worst_cons:.2e}",
    )


def test_criterion_09_sup_norm_bound():
    clock = Clock(10)
    rng = generator(109)
    worst = -np.inf
    for k in range(10):
        spec = random_morphism(rng)
        w1 = faithful(spec.profile1, rng)
        w2 = faithful(spec.profile2, rng)
        q = [1, 2, "1.5"][k % 3]
        C = build_composition(spec, w1, w2, "inf", q)
        lead = schatten_norm(C.apply(BlockMatrix.identity(spec.profile1)), q)
        for _ in range(20):
            a = hermitian(spec.profile1, rng)
            lhs = schatten_norm(C.apply(a), q)
            rhs = lead * schatten_norm(a, "inf")
            worst = max(worst, lhs - rhs)
            assert lhs <= rhs + 1e-9
    clock.done("criterion 9 (sup-norm remark bound)", f"200 samples, worst lhs-rhs {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    clock = Clock(10)

    def c2(z):
        return [float(np.real(z)), float(np.imag(z))]

    prof = BlockProfile([2])
    w1 = Weight.diagonal(prof, [0.5, 0.5])
    w2 = Weight.diagonal(prof, [0.8, 0.2])
    from nclp.jordan import transpose_morphism

    C = build_composition(transpose_morphism(prof), w1, w2, 2, 1)
    spec = {
        "algebra1": [2],
        "algebra2": [2],
        "weight1": [[[c2(0.5), c2(0.0)], [c2(0.0), c2(0.5)]]],
        "weight2": [[[c2(0.8), c2(0.0)], [c2(0.0), c2(0.2)]]],
        "morphism": {"tiles": [{"src": 0, "dst": 0, "offset": 0, "kind": "H"}]},
        "superoperator": {"matrix": [[c2(z) for z in row] for row in C.matrix()]},
        "measure_space": {
            "atoms1": ["a", "b"], "masses1": [0.5, 0.5],
            "atoms2": ["x", "y", "z"], "masses2": [1 / 3, 1 / 3, 1 / 3],
            "map": {"x": "a", "y": "a", "z": "b"},
        },
        "exponents": {"p": "2", "q": "1"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    commands = [
        ["check-jordan", str(spec_path), "--seed", "3"],
        ["norm", str(spec_path), "--p", "2", "--q", "1", "--seed", "3"],
        ["classify", str(spec_path), "--p", "2", "--q", "1", "--seed", "3"],
        ["change-of-weights", str(spec_path), "--p", "2", "--q", "1"],
        ["classical", str(spec_path)],
        ["modular", str(spec_path), "--t", "0", "0.5"],
    ]
    for idx, command in enumerate(commands):
        outputs = []
        for run in range(2):
            out = tmp_path / f"report_{idx}_{run}.json"
            code = cli_main(command + ["--format", "machine", "--out", str(out)])
            assert code == 0, command
            raw = out.read_bytes()
            lines = [ln for ln in raw.split(b"\n") if b"wall_time_s" not in ln]
            outputs.append(b"\n".join(lines))
        assert outputs[0] == outputs[1], command
    clock.done("criterion 10 (CLI determinism)", f"{len(commands)} commands byte-stable")
