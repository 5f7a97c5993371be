import copy
import itertools
import json
import math
import pickle
from decimal import Decimal, getcontext

import numpy as np
import pytest

from nclp import compop
from nclp.cli import main as cli_main
from nclp.compop import (
    NORM_RTOL,
    ClassifyResult,
    SuperOperator,
    _dual_maximizer,
    _reconstruct_tiles,
    build_composition,
    change_of_weights,
    change_of_weights_scale,
    classify_characteristic_preserving,
    contraction_inclusion,
    identity_operator,
    left_multiplication,
    operator_norm,
    recover_left_multiplier,
    recover_right_multiplier,
    splitting_inequality_check,
)
from nclp.errors import (
    ExponentOrder,
    NotCommuting,
    NotFaithful,
    NotModuleMap,
    NotSummable,
    ProfileMismatch,
    RatioMismatch,
)
from nclp.exponents import Exponent, INF, holder_complement
from nclp.haagerup import embed
from nclp.jordan import (
    JordanMorphismSpec,
    Tile,
    identity_morphism,
    materialise,
    pushforward_density,
    random_morphism,
    random_onto_morphism,
    transpose_morphism,
    verify_jordan,
)
from nclp.classical import FiniteMeasureSpace, PointMap, build_classical
from nclp.matcore import (
    BlockMatrix,
    BlockProfile,
    KrausTerms,
    _lp_norm,
    block_stacks,
    eigh_groups,
    flat_columns,
    schatten_norm,
)
from nclp.sampling import element, generator, hermitian, projection, psd, unitary
from nclp.vnops import Weight

PROF2 = BlockProfile([2])
PROF23 = BlockProfile([2, 3])


def faithful(profile, rng):
    return Weight(psd(profile, rng, eps=0.15))


# -- SuperOperator plumbing -------------------------------------------------


def _reference_composition(J, w1, w2, p, q):
    """C_J as the closure post @ J.apply(pre @ x @ pre) @ post."""
    pre = w1.power(-Exponent(p).reciprocal() / 2)
    post = w2.power(Exponent(q).reciprocal() / 2)
    return lambda x: post @ J.apply(pre @ x @ pre) @ post


def test_composition_matrix_matches_closure():
    rng = generator(64)
    for _ in range(6):
        spec = random_morphism(rng)
        w1, w2 = faithful(spec.profile1, rng), faithful(spec.profile2, rng)
        for p, q in ((2, 2), (2, 1), (3, "3/2"), ("inf", 2)):
            C = build_composition(spec, w1, w2, p, q)
            closure = _reference_composition(spec, w1, w2, p, q)
            ref, _ = materialise(closure, spec.profile1)
            scale = np.linalg.norm(ref)
            assert np.linalg.norm(C.matrix() - ref) <= 1e-12 * scale
            for _ in range(3):
                x = element(spec.profile1, rng)
                y = closure(x)
                assert (C.apply(x) - y).fro_norm() <= 1e-12 * max(y.fro_norm(), scale * x.fro_norm())


def test_trace_dual_pairing():
    rng = generator(1)
    w1 = faithful(PROF2, rng)
    w2 = faithful(PROF2, rng)
    C = build_composition(identity_morphism(PROF2), w1, w2, 2, 1)
    D = C.trace_dual()
    assert D.p == Exponent(1).conjugate() == INF
    for _ in range(5):
        x = element(PROF2, rng)
        g = element(PROF2, rng)
        lhs = (g @ C.apply(x)).trace()
        rhs = (D.apply(g) @ x).trace()
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def _reference_closures(rng):
    """(operator, the closure it was built from before it was a matrix, domain profile)."""
    cases = []
    for dims in ([2], [2, 3], [1, 3]):
        profile = BlockProfile(dims)
        w, w0 = faithful(profile, rng), faithful(profile, rng)
        c = element(profile, rng)
        cases.append((identity_operator(profile, 3), lambda x: x, profile))
        cases.append((left_multiplication(profile, c, 2, 1), lambda x, c=c: c @ x, profile))
        for p, q in ((2, 2), (2, 1), (3, "3/2"), ("inf", 2)):
            half_out = w0.power(Exponent(q).reciprocal() / 2)
            half_in = w.power(-Exponent(p).reciprocal() / 2)
            cases.append((change_of_weights(w, w0, p, q).operator,
                          lambda x, o=half_out, i=half_in: o @ (i @ x @ i) @ o, profile))
    for _ in range(4):
        spec = random_morphism(rng)
        w1, w2 = faithful(spec.profile1, rng), faithful(spec.profile2, rng)
        for p in (2, 3, "inf"):
            pre = w1.power(-Exponent(p).reciprocal() / 2)
            post = w2.power(Exponent(p).reciprocal() / 2)
            inc = contraction_inclusion(w1, w2, spec, p)
            cases.append((inc.operator,
                          lambda x, J=spec, a=pre, b=post: b @ J.apply(a @ x @ a) @ b,
                          spec.profile1))
        C = build_composition(spec, w1, w2, 3, "3/2")
        # the Hilbert-Schmidt adjoint: the conjugate transpose of the matrix
        hs = SuperOperator.from_matrix(C.codomain_profile, C.domain_profile,
                                       C.q.conjugate(), C.p.conjugate(), C.matrix().conj().T)
        cases.append((C.trace_dual(), lambda g, hs=hs: hs.apply(g.adjoint()).adjoint(),
                      spec.profile2))
        L = left_multiplication(spec.profile2, element(spec.profile2, rng), "3/2", 1)
        cases.append((L.compose(C), lambda x, L=L, C=C: L.apply(C.apply(x)), spec.profile1))
    return cases


def test_closed_forms_match_closures():
    # every library operator is built as a matrix; each equals the
    # materialisation of the closure it replaced
    for op, closure, profile in _reference_closures(generator(67)):
        ref, cod = materialise(closure, profile)
        assert (op.domain_profile, op.codomain_profile) == (profile, cod)
        assert np.linalg.norm(op.matrix() - ref) <= 1e-12 * np.linalg.norm(ref)
        assert not op.matrix().flags.writeable


def test_constructor_refuses_maps_that_are_not_linear():
    rng = generator(68)
    spec = random_morphism(rng, profile1=PROF23)
    profile2 = spec.profile2
    with pytest.raises(ProfileMismatch):
        SuperOperator(PROF23, profile2, 2, 2,
                      lambda x: spec.apply(BlockMatrix(x.profile, [b.conj() for b in x.blocks])))
    with pytest.raises(ProfileMismatch):
        SuperOperator(PROF23, PROF23, 2, 2, lambda x: x @ x)
    # a linear callable is materialised once and then applied through its matrix
    op = SuperOperator(PROF23, profile2, 2, 2, spec.apply)
    x = element(PROF23, rng)
    assert (op.apply(x) - spec.apply(x)).fro_norm() <= 1e-12 * (1 + x.fro_norm())


def test_constructor_refuses_images_on_another_profile():
    with pytest.raises(ProfileMismatch):
        SuperOperator(BlockProfile([2]), BlockProfile([3]), 2, 2, lambda x: x)
    spec = random_morphism(generator(69), profile1=PROF23)
    assert spec.profile2 != PROF23
    with pytest.raises(ProfileMismatch):
        SuperOperator(PROF23, PROF23, 2, 2, spec.apply)
    with pytest.raises(ProfileMismatch):
        # one image lands on another profile
        SuperOperator(PROF2, PROF2, 2, 2,
                      lambda x: x if x.blocks[0][0, 0] == 0 else BlockMatrix.zeros(PROF23))


def test_left_multiplication_refuses_a_multiplier_on_another_profile():
    with pytest.raises(ProfileMismatch):
        left_multiplication(BlockProfile([2]), BlockMatrix.identity(BlockProfile([3])), 2, 2)


# -- build_composition ------------------------------------------------------


def test_identity_composition_cancels():
    rng = generator(2)
    w = faithful(PROF23, rng)
    C = build_composition(identity_morphism(PROF23), w, w, 2, 2)
    x = element(PROF23, rng)
    assert (C.apply(x) - x).fro_norm() < 1e-10 * (1 + x.fro_norm())
    est = operator_norm(C)
    assert est.status == "exact"
    assert est.lower_bound == pytest.approx(1.0, abs=1e-9)


def test_composition_requires_order_and_faithfulness():
    rng = generator(3)
    w = faithful(PROF2, rng)
    with pytest.raises(ExponentOrder):
        build_composition(identity_morphism(PROF2), w, w, 1, 2)
    singular = Weight.diagonal(PROF2, [1.0, 0.0])
    with pytest.raises(NotFaithful):
        build_composition(identity_morphism(PROF2), singular, w, 2, 1)


def test_infinity_domain_bound():
    # ||C_J(a)||_q <= ||C_J(1)||_q ||a||_inf for self-adjoint a
    rng = generator(4)
    for k in range(8):
        spec = random_morphism(rng)
        w1 = faithful(spec.profile1, rng)
        w2 = faithful(spec.profile2, rng)
        C = build_composition(spec, w1, w2, "inf", 2)
        lead = schatten_norm(C.apply(BlockMatrix.identity(spec.profile1)), 2)
        for _ in range(10):
            a = hermitian(spec.profile1, rng)
            assert schatten_norm(C.apply(a), 2) <= lead * schatten_norm(a, "inf") + 1e-9


# -- operator_norm ----------------------------------------------------------


def test_norm_left_multiplication_certified():
    c = BlockMatrix.diagonal(PROF2, [2.0, 3.0])
    est = operator_norm(left_multiplication(PROF2, c, 2, 2))
    assert est.status == "exact"
    assert est.lower_bound == pytest.approx(3.0, abs=1e-10)


def test_norm_identity_all_pairs():
    for p in (1, 1.5, 2, 3, "inf"):
        est = operator_norm(identity_operator(PROF2, p), restarts=4, seed=11)
        assert est.lower_bound == pytest.approx(1.0, abs=1e-7)


def test_alternating_reaches_certified_value():
    rng = generator(5)
    for k in range(6):
        mat = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
        S = SuperOperator.from_matrix(PROF23, PROF23, 2, 2, mat)
        exact = operator_norm(S).lower_bound
        alt = operator_norm(S, restarts=16, seed=k, method="alternating").lower_bound
        assert alt <= exact + 1e-9
        assert alt == pytest.approx(exact, rel=1e-4)


def test_norm_deterministic_given_seed():
    rng = generator(6)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    S = SuperOperator.from_matrix(PROF2, PROF2, 3, 1.5, mat)
    a = operator_norm(S, restarts=5, seed=123)
    b = operator_norm(S, restarts=5, seed=123)
    assert a.lower_bound == b.lower_bound


def test_norm_refuses_empty_runs():
    ident = identity_operator(PROF2, 3)
    for kwargs in ({"restarts": 0}, {"restarts": -1}, {"max_iter": 0}):
        with pytest.raises(ValueError):
            operator_norm(ident, **kwargs)


def _one_element_dual(z, s):
    """The one-element dual maximiser: (norm, y), y None for z = 0."""
    svds = [np.linalg.svd(blk) for blk in z.blocks]
    all_s = np.concatenate([sv for _, sv, _ in svds])
    norm = schatten_norm(z, s)
    if norm == 0.0:
        return 0.0, None
    top = float(np.max(all_s))
    if s.is_inf:
        cut = top * (1.0 - 1e-12)
        total = float(np.sum(all_s >= cut))
        f_of_s = [(sv >= cut) / total for _, sv, _ in svds]
    else:
        f_of_s = [np.where(sv > 1e-14 * top, (sv / norm) ** (float(s) - 1.0), 0.0)
                  for _, sv, _ in svds]
    return norm, BlockMatrix(z.profile, [(w * f) @ vh for (w, _, vh), f in zip(svds, f_of_s)])


def _reference_norm(C, restarts, max_iter, seed):
    """One restart at a time on BlockMatrix elements.

    Returns (best value, total iterations, list of per-restart iterations).
    """
    mat = C.matrix()
    mat_h = mat.conj().T
    p_star = C.p.conjugate()
    best, steps = 0.0, []
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        x = BlockMatrix(C.domain_profile, [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in C.domain_profile
        ])
        x = x * (1.0 / schatten_norm(x, C.p))
        current, k = 0.0, 0
        for _ in range(max_iter):
            k += 1
            val, y = _one_element_dual(BlockMatrix.unflat(C.codomain_profile, mat @ x.flat()), C.q)
            if y is None:
                break
            val2, x_new = _one_element_dual(BlockMatrix.unflat(C.domain_profile, mat_h @ y.flat()),
                                           p_star)
            gain = max(val, val2) - current
            current = max(val, val2, current)
            if x_new is None or gain < 1e-10:
                break
            x = x_new
        best = max(best, current)
        steps.append(k)
    return best, sum(steps), steps


def test_batched_restarts_match_one_at_a_time():
    rng = generator(31)
    max_iter = 35
    mixed = 0
    for dom, cod in (([3, 2], [2, 1]), ([2, 1], [3, 2])):
        dom, cod = BlockProfile(dom), BlockProfile(cod)
        for p, q in (("inf", 2), (3, "3/2")):
            for seed in range(3):
                mat = (rng.standard_normal((cod.coord_dim, dom.coord_dim))
                       + 1j * rng.standard_normal((cod.coord_dim, dom.coord_dim)))
                S = SuperOperator.from_matrix(dom, cod, p, q, mat)
                best, total, steps = _reference_norm(S, 5, max_iter, seed)
                est = operator_norm(S, restarts=5, max_iter=max_iter, seed=seed)
                assert est.iterations == total
                assert est.lower_bound == pytest.approx(best, rel=1e-12)
                mixed += 0 < steps.count(max_iter) < len(steps)
    # the comparison covers calls where restarts that stop early run next to
    # restarts that hit max_iter
    assert mixed >= 3


def test_norm_of_zero_operator():
    S = SuperOperator.from_matrix(BlockProfile([3, 2]), BlockProfile([2, 1]), 3, "3/2",
                                  np.zeros((5, 13)))
    est = operator_norm(S, restarts=4, seed=2, method="alternating")
    assert est.lower_bound == 0.0
    assert est.iterations == 4


# -- change of weights ------------------------------------------------------


def test_change_of_weights_identity():
    rng = generator(7)
    w = faithful(PROF2, rng)
    cw = change_of_weights(w, w, 2, 2)
    assert cw.d.allclose(BlockMatrix.identity(PROF2), tol=1e-9)
    assert cw.bound == pytest.approx(1.0, abs=1e-9)


def test_change_of_weights_diagonal_example():
    h = Weight.diagonal(PROF2, [0.5, 0.5])
    k = Weight.diagonal(PROF2, [0.8, 0.2])
    cw = change_of_weights(h, k, 2, 1)
    d_diag = np.diagonal(cw.d.blocks[0]).real
    assert d_diag == pytest.approx([1.063659, 0.531830], abs=1e-6)
    dd = (cw.d.adjoint() @ cw.d).blocks[0]
    assert np.allclose(np.diagonal(dd).real, [0.8 * np.sqrt(2), 0.2 * np.sqrt(2)], atol=1e-12)
    assert cw.bound == pytest.approx(np.sqrt(1.36), abs=1e-12)
    assert cw.bound == pytest.approx(1.166190, abs=1e-6)
    # the connecting element solves the problem exactly
    dh = cw.d @ h.power(0.25)
    assert (dh.adjoint() @ dh - k.power(1.0)).fro_norm() < 1e-12


def test_change_of_weights_singular_target():
    rng = generator(8)
    w = faithful(PROF2, rng)
    k = Weight.diagonal(PROF2, [1.0, 0.0])
    cw = change_of_weights(w, k, 2, 1)
    # d is supported on the support of k
    e = BlockMatrix.diagonal(PROF2, [1.0, 0.0])
    assert (e @ cw.d - cw.d).fro_norm() < 1e-10
    # the induced map lands in the compression
    x = embed(w, element(PROF2, rng), 2).matrix
    out = cw.operator.apply(x)
    assert (e @ out @ e - out).fro_norm() < 1e-10


def test_change_of_weights_soundness_random():
    rng = generator(9)
    for pair in ((2, 1), (3, 1.5), (4, 2), (2, 2)):
        for _ in range(5):
            h = faithful(PROF2, rng)
            k = faithful(PROF2, rng)
            cw = change_of_weights(h, k, *pair)
            est = operator_norm(cw.operator, restarts=4, seed=5)
            assert est.lower_bound <= cw.bound + 1e-6


def test_change_of_weights_sup_domain_corners():
    # p = inf: the connecting element is k^(1/2q) itself and the bound is
    # attained for commuting data; q = inf compresses to the support
    rng = generator(19)
    w = faithful(PROF23, rng)
    v = faithful(PROF23, rng)
    for q in (1, 2, "inf"):
        cw = change_of_weights(w, v, "inf", q)
        est = operator_norm(cw.operator, restarts=4, seed=3)
        assert est.lower_bound <= cw.bound + 1e-6
    # at (inf, 1) the bound is the total mass of the target weight
    cw1 = change_of_weights(w, v, "inf", 1)
    assert cw1.bound == pytest.approx(v.total(), rel=1e-10)


CW_PAIRS = [(2, 1), (3, "3/2"), (2, 2), (1, 1), ("inf", 1), ("inf", 2), ("inf", "inf")]


def _singular_target(profile, rng):
    # a random density with the smallest eigenvalue of its last block set to 0
    blocks = []
    for i, d in enumerate(profile):
        lam = rng.uniform(0.2, 2.0, d)
        if i == profile.block_count - 1:
            lam[0] = 0.0
        u = unitary(d, rng)
        blocks.append((u * lam) @ u.conj().T)
    return Weight(BlockMatrix(profile, blocks))


def test_change_of_weights_witness_attains_bound():
    # the bound against ||d||_{2r}^2 from the singular values of d, which
    # shares no code with the library; a tracial h = k makes every
    # eigenvalue of d*d a tied top one, for the top eigenprojection at p = q
    rng, tied = generator(23), generator(24)
    for dims in ([1], [2], [3, 2], [4, 1, 2]):
        profile = BlockProfile(dims)
        targets = [faithful(profile, rng), Weight(BlockMatrix.zeros(profile))]
        if profile.total_dim > 1:
            targets.append(_singular_target(profile, rng))
        # 0.37 I written in a random basis, so rounding splits the tie
        tracial = Weight(BlockMatrix(profile, [(u * 0.37) @ u.conj().T
                                               for d in profile for u in [unitary(d, tied)]]))
        for h, target in [(faithful(profile, rng), t) for t in targets] + [(tracial, tracial)]:
            for p, q in CW_PAIRS:
                cw = change_of_weights(h, target, p, q)
                s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in cw.d.blocks])
                r = float(cw.triple.r)
                oracle = np.max(s) ** 2 if np.isinf(r) else np.sum(s ** (2 * r)) ** (1 / r)
                assert cw.bound == pytest.approx(oracle, rel=1e-12)
                if h is tracial and np.isinf(r):
                    # d*d is a multiple of 1: its top eigenprojection is 1
                    assert cw.witness.allclose(BlockMatrix.identity(profile), 1e-12)
                assert cw.norm_estimate.status == "exact"
                if target.total() == 0.0:
                    assert cw.bound == 0.0 and cw.norm_estimate.lower_bound == 0.0
                    continue
                x = cw.witness
                value = schatten_norm(cw.operator.apply(x), q) / schatten_norm(x, p)
                assert value == pytest.approx(cw.bound, rel=1e-12)
                assert cw.norm_estimate.lower_bound == pytest.approx(cw.bound, rel=1e-12)


def test_change_of_weights_bound_holds_for_every_morphism():
    # C_J is compression to the covered blocks, the change of weights from w1
    # to the pushforward k of w2, then a contractive Jordan embedding: the
    # bound holds on onto morphisms, on two copies of one source block and
    # on a corner that misses part of the codomain
    rng = generator(25)
    prof1, prof3 = BlockProfile([1]), BlockProfile([3])
    doubled = JordanMorphismSpec(prof1, PROF2, [Tile(0, 0, 0, "H"), Tile(0, 0, 1, "H")])
    corner = JordanMorphismSpec(PROF2, prof3, [Tile(0, 0, 0, "H")])
    for J in (transpose_morphism(PROF23), doubled, corner):
        w1, w2 = faithful(J.profile1, rng), faithful(J.profile2, rng)
        k = pushforward_density(J, w2)
        for p, q in ((3, "3/2"), (2, 1), ("inf", 2), (2, 2), (4, 2)):
            bound = change_of_weights(w1, k, p, q).bound
            C = build_composition(J, w1, w2, p, q)
            for method in ("auto", "alternating"):
                est = operator_norm(C, restarts=4, seed=0, method=method)
                assert est.lower_bound <= bound * (1 + 1e-12)
    # a diagonal w2 leaves the corner's image invariant under its modular
    # group, and the bound is the norm
    w1, w2 = faithful(PROF2, rng), Weight.diagonal(prof3, [0.5, 0.3, 0.2])
    est = operator_norm(build_composition(corner, w1, w2, 3, "3/2"))
    assert est.status == "exact"
    bound = change_of_weights(w1, pushforward_density(corner, w2), 3, "3/2").bound
    assert est.lower_bound == pytest.approx(bound, rel=1e-9)


def test_norm_rank_one_map_exact():
    # a map concentrating one matrix entry: the L^3 -> L^1 norm is the
    # coefficient itself, reached by a rank-one input
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 3] = 2.5
    S = SuperOperator.from_matrix(PROF2, PROF2, 3, 1, mat)
    est = operator_norm(S, restarts=6, seed=0)
    assert est.lower_bound == pytest.approx(2.5, abs=1e-8)


def _rank_deficient_elements():
    # profile [1, 2, 3] with a zero block and a rank-1 block; in the second
    # element the top singular value 3 has multiplicity 2
    rng = generator(12)
    cases = [([[0.0], [0.5, 2.0], [0.0, 0.0, 3.0]], (1, "3/2", 2, "inf")),
             ([[0.0], [0.5, 3.0], [0.0, 0.0, 3.0]], ("inf",))]
    for svals, exponents in cases:
        z = BlockMatrix(BlockProfile([1, 2, 3]), [
            (unitary(len(sv), rng) * np.array(sv)) @ unitary(len(sv), rng).conj().T
            for sv in svals
        ])
        yield z, exponents


def test_dual_maximizer_rank_deficient():
    for z, exponents in _rank_deficient_elements():
        for s in exponents:
            s = Exponent(s)
            norms, ys = _dual_maximizer(z.profile, z.flat()[:, None], s)
            norm, y = norms[0], BlockMatrix.unflat(z.profile, ys[:, 0])
            assert norm == pytest.approx(schatten_norm(z, s), rel=1e-12)
            assert schatten_norm(y, s.conjugate()) == pytest.approx(1.0, rel=1e-12)
            assert y.hs_inner(z).real == pytest.approx(norm, rel=1e-12)


def test_dual_maximizer_stacked_columns():
    # the zero element, the rank-deficient element and the s = inf element
    # with a doubled top singular value, side by side: every column must come
    # out as it does alone, so the top, the cut and the support count stay
    # per column
    (z1, _), (z2, _) = _rank_deficient_elements()
    zero = BlockMatrix.zeros(z1.profile)
    cols = np.stack([zero.flat(), z1.flat(), z2.flat()], axis=1)
    for s in (1, "3/2", 2, "inf"):
        s = Exponent(s)
        norms, ys = _dual_maximizer(z1.profile, cols, s)
        assert norms.shape == (3,) and ys.shape == cols.shape
        for j in range(3):
            alone_norm, alone_y = _dual_maximizer(z1.profile, cols[:, j:j + 1], s)
            assert norms[j] == pytest.approx(alone_norm[0], rel=1e-14, abs=0.0)
            np.testing.assert_allclose(ys[:, j], alone_y[:, 0], rtol=0.0, atol=1e-14)
        assert norms[0] == 0.0
        assert not np.any(ys[:, 0])


def _reference_dual(profile, cols, s):
    """The per-block dual maximiser: one svd call per block, y scaled by the norm."""
    svds = [np.linalg.svd(stack) for stack in block_stacks(profile, cols)]
    all_s = np.concatenate([sv for _, sv, _ in svds], axis=-1)
    norms = _lp_norm(all_s, s)
    live = (norms != 0.0)[:, None]
    top = np.max(all_s, axis=-1, keepdims=True)
    if s.is_inf:
        on = (all_s >= top * (1.0 - 1e-12)) & live
        f_of_s = on / np.maximum(np.sum(on, axis=-1, keepdims=True), 1)
    else:
        scale = np.where(live, norms[:, None], 1.0)
        f_of_s = np.where(all_s > 1e-14 * top, (all_s / scale) ** (float(s) - 1.0), 0.0)
    ys, at = [], 0
    for w, sv, vh in svds:
        d = sv.shape[-1]
        ys.append((w * f_of_s[:, None, at : at + d]) @ vh)
        at += d
    return norms, flat_columns(ys)


def _dual_test_columns(profile, rng):
    """Flat columns: zero, rank-deficient, two with a doubled top singular value, generic."""
    def element(values):
        blocks, at = [], 0
        for d in profile:
            blocks.append((unitary(d, rng) * values[at : at + d]) @ unitary(d, rng).conj().T)
            at += d
        return BlockMatrix(profile, blocks).flat()

    n = profile.total_dim
    rank_deficient = np.concatenate([np.linspace(0.5, 2.0, n - n // 2), np.zeros(n // 2)])
    doubled_ends = np.linspace(0.2, 1.0, n)
    doubled_ends[[0, -1]] = 3.0
    doubled_rank_deficient = np.zeros(n)
    doubled_rank_deficient[[1, 2]] = 3.0
    generic = element(rng.uniform(0.1, 2.0, n))
    return np.stack([np.zeros(profile.coord_dim), element(rank_deficient),
                     element(doubled_ends), element(doubled_rank_deficient), generic], axis=1)


@pytest.mark.parametrize("dims", [[2, 1, 2], [1] * 6, [3, 2], [1, 3, 1]])
def test_dual_maximizer_matches_per_block_reference(dims):
    # one svd per block size, the 1x1 and s = 2 closed forms and the top
    # factored out of y against one svd per block and y scaled by the norm
    profile = BlockProfile(dims)
    cols = _dual_test_columns(profile, generator(41))
    for s in (1, "4/3", "3/2", 2, 3, "inf"):
        s = Exponent(s)
        norms, ys = _dual_maximizer(profile, cols, s)
        ref_norms, ref_ys = _reference_dual(profile, cols, s)
        np.testing.assert_allclose(norms, ref_norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ys, ref_ys, rtol=0.0, atol=1e-12)
        assert norms[0] == 0.0 and not np.any(ys[:, 0])


def test_operator_norm_matches_per_block_reference(monkeypatch):
    # the same seeds, stopping rule and iteration path with either dual map
    rng = generator(42)
    m1 = FiniteMeasureSpace([f"a{i}" for i in range(8)], rng.uniform(0.1, 2.0, 8))
    m2 = FiniteMeasureSpace([f"b{i}" for i in range(16)], rng.uniform(0.1, 2.0, 16))
    T = PointMap({f"b{i}": f"a{int(rng.integers(0, 8))}" for i in range(14)})
    profile = BlockProfile([2, 1, 3])
    h, k = faithful(profile, rng), faithful(profile, rng)
    operators = [build_classical(T, m1, m2, p, q).direct
                 for p, q in ((3, "3/2"), ("inf", 2), (2, 1))]
    operators += [change_of_weights(h, k, p, q).operator for p, q in ((3, "3/2"), (2, 1), ("inf", 3))]
    for C in operators:
        for restarts, max_iter, seed in ((3, 60, 3), (16, 200, 0)):
            est = operator_norm(C, restarts=restarts, max_iter=max_iter, seed=seed,
                                method="alternating")
            with monkeypatch.context() as patch:
                patch.setattr(compop, "_dual_maximizer", _reference_dual)
                ref = operator_norm(C, restarts=restarts, max_iter=max_iter, seed=seed,
                                    method="alternating")
            assert est.iterations == ref.iterations
            assert est.capped == ref.capped
            assert est.lower_bound == pytest.approx(ref.lower_bound, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dims", [[1] * 17, [2, 3, 1], [4], [2, 2], [3, 1, 3, 2]])
def test_random_start_matches_per_block_draws(dims):
    # one draw of 2 * coord_dim normals, gathered block by block as d*d real
    # then d*d imaginary parts, is the stream the per-block draws consumed
    def reference(profile, stream):
        rng = np.random.default_rng(stream)
        return np.concatenate([
            (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))).ravel()
            for d in profile
        ])

    profile = BlockProfile(dims)
    for stream in np.random.SeedSequence(3).spawn(5):
        assert np.array_equal(compop._random_start(profile, stream), reference(profile, stream))


def test_dual_maximizer_huge_exponent():
    # at s = 1e300 every top ratio S/norm rounds to 1, so y must be scaled
    # by the top singular value, not by the norm, to keep ||y||_{s*} = 1;
    # both elements are rank-deficient with the top value 3 twice
    rng = generator(43)
    elements = [
        BlockMatrix(BlockProfile([1, 2, 1]),
                    [[[3j]], (unitary(2, rng) * [0.5, 0.0]) @ unitary(2, rng).conj().T, [[-3.0]]]),
        BlockMatrix(BlockProfile([3]), [np.diag([3.0, 0.0, 3.0])]),
    ]
    s = Exponent("1e300")
    for z in elements:
        norms, ys = _dual_maximizer(z.profile, z.flat()[:, None], s)
        y = BlockMatrix.unflat(z.profile, ys[:, 0])
        assert norms[0] == pytest.approx(3.0, rel=1e-12)
        assert schatten_norm(y, s.conjugate()) == pytest.approx(1.0, rel=1e-12)
        assert y.hs_inner(z).real == pytest.approx(norms[0], rel=1e-12)


def test_norm_reports_capped_restarts():
    rng = generator(44)
    mat = rng.standard_normal((PROF2.coord_dim, PROF23.coord_dim))
    S = SuperOperator.from_matrix(PROF23, PROF2, 3, "3/2", mat)
    # one step: every restart is still running at the cap
    est = operator_norm(S, restarts=4, max_iter=1, seed=0)
    assert est.capped == 4 and est.iterations == 4
    # the identity settles long before the cap
    est = operator_norm(identity_operator(PROF2, 3), restarts=4, seed=0)
    assert est.capped == 0 and est.iterations < 4 * 200
    assert operator_norm(identity_operator(PROF2, 2)).capped == 0


# -- positive maps: closed forms and the cone iteration -----------------------

CONE_PAIRS = [(3, "3/2"), (4, 2), ("5/2", "5/4"), (6, "3/2"), (2, "3/2"), (3, 2)]
ENDPOINT_PAIRS = [("inf", 2), ("inf", 1), (2, 1), (3, 1), ("inf", 3)]


def _kraus_operator(dom, cod, rng):
    """x -> sum_i K_i x K_i* with one or two random Kraus maps per block pair, some pairs absent.

    A third of the maps have a zero column, so the support of C#(1) can
    miss part of a source block, and some source blocks may be missed
    altogether.
    """
    mat = np.zeros((cod.coord_dim, dom.coord_dim), dtype=complex)
    src_at = np.cumsum([0] + [n * n for n in dom.dims])
    dst_at = np.cumsum([0] + [m * m for m in cod.dims])
    for s, n in enumerate(dom.dims):
        for t, m in enumerate(cod.dims):
            if rng.random() < 0.3:
                continue
            for _ in range(int(rng.integers(1, 3))):
                K = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                if n > 1 and rng.random() < 0.3:
                    K[:, 0] = 0.0
                mat[dst_at[t]:dst_at[t + 1], src_at[s]:src_at[s + 1]] += np.kron(K, K.conj())
    return mat


def _with_kind(spec, kind):
    tiles = [Tile(t.src, t.dst, t.offset, kind, t.conj_unitary) for t in spec.tiles]
    return JordanMorphismSpec(spec.profile1, spec.profile2, tiles, spec.block_unitaries)


def _positive_operators(rng, count):
    """(label, matrix, domain, codomain): Kraus maps and H-only and A-only composition operators."""
    out = []
    for k in range(count):
        dom = BlockProfile(rng.integers(1, 4, size=int(rng.integers(1, 3))))
        cod = BlockProfile(rng.integers(1, 4, size=int(rng.integers(1, 3))))
        out.append(("kraus", _kraus_operator(dom, cod, rng), dom, cod))
        spec = random_morphism(rng, allow_mixed=False)
        w1, w2 = faithful(spec.profile1, rng), faithful(spec.profile2, rng)
        for kind in ("H", "A"):
            mat = build_composition(_with_kind(spec, kind), w1, w2, 2, 2).matrix()
            out.append((kind, mat, spec.profile1, spec.profile2))
    return out


def test_complete_positivity_from_the_choi_matrices():
    # H-only maps are completely positive; A-only maps are so after a
    # transpose of the input; mixed maps and multipliers are neither
    rng = generator(60)
    w1, w2 = faithful(PROF23, rng), faithful(PROF23, rng)
    prof4 = BlockProfile([4])
    mixed = JordanMorphismSpec(PROF2, prof4, [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
    c = BlockMatrix(PROF23, [unitary(2, rng) * [1.0, 2.0], unitary(3, rng) * [0.5, 1.0, 1.5]])
    cases = [  # (operator, completely positive, completely positive after a transpose)
        (build_composition(identity_morphism(PROF23), w1, w2, 3, 2), True, False),
        (build_composition(transpose_morphism(PROF23), w1, w2, 3, 2), False, True),
        (build_composition(mixed, faithful(PROF2, rng), faithful(prof4, rng), 3, 2), False, False),
        (left_multiplication(PROF23, c, 3, 2), False, False),
        (SuperOperator.from_matrix(PROF23, PROF23, 3, 2, _kraus_operator(PROF23, PROF23, rng)),
         True, False),
    ]
    for C, cp, cp_flipped in cases:
        dom, cod, mat = C.domain_profile, C.codomain_profile, C.matrix()
        flipped = mat[:, dom.transpose_index]
        assert (compop._choi_stacks(mat, dom, cod) is not None) is cp
        assert (compop._choi_stacks(flipped, dom, cod) is not None) is cp_flipped


def test_positive_norm_bounds_the_maximiser():
    # the proved upper bound is never beaten by the maximiser, and the lower
    # value is never noticeably below it; partial maps exercise the support
    rng = generator(61)
    partial = 0
    for label, mat, dom, cod in _positive_operators(rng, 4):
        unit = BlockMatrix.unflat(dom, mat.conj().T @ BlockMatrix.identity(cod).flat())
        partial += min(np.linalg.eigvalsh(b)[0] for b in unit.hermitized().blocks) < 1e-9
        for p, q in CONE_PAIRS + ENDPOINT_PAIRS:
            C = SuperOperator.from_matrix(dom, cod, p, q, mat)
            est = operator_norm(C)
            alt = operator_norm(C, restarts=6, max_iter=200, seed=1, method="alternating")
            assert est.status == "exact", (label, p, q, est)
            assert est.capped == 0 and est.source != "maximiser"
            assert alt.lower_bound <= est.upper_bound * (1.0 + 1e-13), (label, p, q)
            assert est.lower_bound >= (1.0 - 1e-9) * alt.lower_bound, (label, p, q)
            assert est.lower_bound <= est.upper_bound
    assert partial >= 6


def test_positive_endpoints_match_change_of_weights():
    rng = generator(62)
    for dims in ([2], [3, 1], [2, 2]):
        profile = BlockProfile(dims)
        h, k = faithful(profile, rng), faithful(profile, rng)
        for p, q in ((2, 1), (3, 1), ("inf", 1), ("inf", "3/2"), ("inf", 2), ("inf", 4)):
            cw = change_of_weights(h, k, p, q)
            est = operator_norm(cw.operator)
            assert est.status == "exact" and est.iterations == 0
            assert est.lower_bound == est.upper_bound
            assert est.lower_bound == pytest.approx(cw.bound, rel=1e-13)


def _cone(C, max_iter=200):
    """The cone iteration alone on the matrix of C, as `operator_norm` reports it.

    `operator_norm` takes the closed form first wherever it applies, the
    change of weights included, so the cone is reached here directly.
    """
    mat, dom, cod = C.matrix(), C.domain_profile, C.codomain_profile
    unit = eigh_groups(dom, mat.conj().T @ BlockMatrix.identity(cod).flat())
    return compop._cone_norm(mat, dom, cod, C.p, C.q, unit, max_iter)


def test_cone_matches_change_of_weights():
    rng = generator(63)
    for dims in ([2], [3, 2], [4]):
        profile = BlockProfile(dims)
        h, k = faithful(profile, rng), faithful(profile, rng)
        for p, q in CONE_PAIRS:
            cw = change_of_weights(h, k, p, q)
            est = _cone(cw.operator)
            assert est.status == "exact" and est.iterations >= 1
            assert est.lower_bound <= cw.bound * (1.0 + 1e-13) <= est.upper_bound * (1.0 + 2e-13)
            assert est.lower_bound == pytest.approx(cw.bound, rel=3e-12)


def test_cone_is_scale_invariant():
    rng = generator(64)
    cases = _positive_operators(rng, 2)
    for label, mat, dom, cod in cases:
        for p, q in ((3, "3/2"), (4, 2)):
            base = operator_norm(SuperOperator.from_matrix(dom, cod, p, q, mat))
            assert base.iterations >= 2
            for c in (1e-8, 1e-4, 3.0, 1e4, 1e8):
                est = operator_norm(SuperOperator.from_matrix(dom, cod, p, q, c * mat))
                assert est.iterations == base.iterations, (label, p, q, c)
                assert est.lower_bound == pytest.approx(c * base.lower_bound, rel=1e-13)
                assert est.upper_bound == pytest.approx(c * base.upper_bound, rel=1e-13)


def test_cone_reports_an_open_gap():
    # one step cannot close the gap: the bounds form an interval, flagged as capped
    rng = generator(65)
    h, k = faithful(PROF23, rng), faithful(PROF23, rng)
    est = _cone(change_of_weights(h, k, 3, "3/2").operator, max_iter=1)
    assert est.status == "interval"
    assert est.capped == 1 and est.iterations == 1
    assert 0.0 < est.lower_bound < est.upper_bound < np.inf


def test_cone_bound_holds_at_large_p():
    # the power (p-1)/q multiplies the rounding of lambda: the upper bound
    # must still hold the exact norm, exact where the allowance permits and
    # an interval where it does not
    rng = generator(67)
    h, k = faithful(PROF23, rng), faithful(PROF23, rng)
    for p, status in ((20, "exact"), (1000, "interval"), ("1e6", "interval")):
        cw = change_of_weights(h, k, p, 2)
        est = _cone(cw.operator)
        assert est.status == status
        assert est.lower_bound <= cw.bound * (1.0 + 1e-13)
        assert est.upper_bound >= cw.bound * (1.0 - 1e-13)


def test_cone_stops_when_rounding_removes_the_support():
    # densities with eigenvalues down to 1e-9: F(x) loses rank on e in
    # floating point, so the cone stops early with an interval that still
    # holds the exact norm
    rng = generator(70)

    def weight(low):
        return Weight(BlockMatrix(PROF23, [(u * np.geomspace(low, 1.0, d)) @ u.conj().T
                                           for d in PROF23 for u in [unitary(d, rng)]]))

    h, k = weight(1e-9), weight(1e-9)
    for p, q in ((3, "3/2"), (4, 2)):
        cw = change_of_weights(h, k, p, q)
        est = _cone(cw.operator)
        assert est.status == "interval" and est.capped == 1 and est.iterations < 200
        assert est.lower_bound <= cw.bound * (1.0 + 1e-13)
        assert est.upper_bound >= cw.bound * (1.0 - 1e-13)


# -- positive maps: the Holder closed form for one Kraus map per matched pair --

HOLDER_PAIRS = CONE_PAIRS + [(3, 3), (5, 3), ("inf", "inf")]


def test_single_kraus_norm_matches_change_of_weights():
    rng = generator(71)
    for dims in ([2], [3, 2], [4]):
        profile = BlockProfile(dims)
        h, k = faithful(profile, rng), faithful(profile, rng)
        for p, q in HOLDER_PAIRS:
            cw = change_of_weights(h, k, p, q)
            est = operator_norm(cw.operator)
            assert est.status == "exact", (dims, p, q)
            assert est.source == ("positive-endpoint" if p == "inf" else "holder")
            assert est.iterations == est.capped == 0
            assert est.lower_bound <= cw.bound * (1.0 + 1e-13) <= est.upper_bound * (1.0 + 2e-13)
            assert est.lower_bound == pytest.approx(cw.bound, rel=1e-12)


def test_single_kraus_norm_is_exact_where_the_cone_is_not():
    # the inputs of the two cone tests above that end with an interval:
    # (p-1)/q up to 5e5, and densities with eigenvalues down to 1e-9
    rng = generator(67)
    h, k = faithful(PROF23, rng), faithful(PROF23, rng)
    cases = [(h, k, p, 2) for p in (20, 1000, "1e6")]
    rng = generator(70)

    def weight(low):
        return Weight(BlockMatrix(PROF23, [(u * np.geomspace(low, 1.0, d)) @ u.conj().T
                                           for d in PROF23 for u in [unitary(d, rng)]]))

    h, k = weight(1e-9), weight(1e-9)
    cases += [(h, k, p, q) for p, q in ((3, "3/2"), (4, 2))]
    for h, k, p, q in cases:
        cw = change_of_weights(h, k, p, q)
        est = operator_norm(cw.operator)
        assert est.status == "exact" and est.iterations == 0, (p, q)
        assert est.lower_bound == pytest.approx(cw.bound, rel=1e-12)
        assert est.lower_bound <= cw.bound * (1.0 + 1e-13) <= est.upper_bound * (1.0 + 2e-13)


def _multiplicity_free_operators(rng):
    """(label, H-only composition operator matrix, domain, codomain) of morphisms whose
    tiles form a matching of blocks: permuted with unitaries, and not onto."""
    prof32, prof31 = BlockProfile([3, 2]), BlockProfile([3, 1])
    specs = [
        ("permuted", JordanMorphismSpec(PROF23, prof32, [Tile(0, 1, 0, "H", unitary(2, rng)),
                                                         Tile(1, 0, 0, "H")],
                                        [unitary(3, rng), None])),
        ("corner", JordanMorphismSpec(PROF2, prof31, [Tile(0, 0, 1, "H")])),
        ("missed source", JordanMorphismSpec(PROF23, BlockProfile([4]), [Tile(1, 0, 1, "H")],
                                             [unitary(4, rng)])),
    ]
    out = []
    for label, spec in specs:
        w1, w2 = faithful(spec.profile1, rng), faithful(spec.profile2, rng)
        for kind in ("H", "A"):
            mat = build_composition(_with_kind(spec, kind), w1, w2, 2, 2).matrix()
            out.append((f"{label} {kind}", mat, spec.profile1, spec.profile2))
    return out


def test_single_kraus_norm_bounds_the_maximiser():
    rng = generator(72)
    for label, mat, dom, cod in _multiplicity_free_operators(rng):
        for p, q in HOLDER_PAIRS:
            C = SuperOperator.from_matrix(dom, cod, p, q, mat)
            est = operator_norm(C)
            alt = operator_norm(C, restarts=6, max_iter=200, seed=1, method="alternating")
            assert est.status == "exact" and est.iterations == 0, (label, p, q)
            assert alt.lower_bound <= est.upper_bound * (1.0 + 1e-13), (label, p, q)
            assert est.lower_bound >= (1.0 - 1e-9) * alt.lower_bound, (label, p, q)


def test_single_kraus_norm_is_scale_invariant():
    rng = generator(73)
    for label, mat, dom, cod in _multiplicity_free_operators(rng)[::2]:
        for p, q in ((3, "3/2"), (5, 3)):
            base = operator_norm(SuperOperator.from_matrix(dom, cod, p, q, mat))
            for c in (1e-8, 1e-4, 3.0, 1e4, 1e8):
                est = operator_norm(SuperOperator.from_matrix(dom, cod, p, q, c * mat))
                assert est.status == "exact" and est.iterations == 0, (label, p, q, c)
                assert est.lower_bound == pytest.approx(c * base.lower_bound, rel=1e-13)
                assert est.upper_bound == pytest.approx(c * base.upper_bound, rel=1e-13)


def test_maps_beyond_one_kraus_operator_per_matched_pair_reach_the_cone():
    # two Kraus operators on one block pair; one source block feeding two
    # destination blocks; two source blocks feeding one destination block
    rng = generator(74)

    def kraus(m, n):
        K = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        return np.kron(K, K.conj())

    prof3, prof21 = BlockProfile([3]), BlockProfile([2, 1])
    cases = [
        ("two Kraus", PROF2, prof3, kraus(3, 2) + kraus(3, 2)),
        ("one source, two destinations", PROF2, prof21, np.vstack([kraus(2, 2), kraus(1, 2)])),
        ("two sources, one destination", prof21, prof3, np.hstack([kraus(3, 2), kraus(3, 1)])),
    ]
    for label, dom, cod, mat in cases:
        for p, q in CONE_PAIRS:
            C = SuperOperator.from_matrix(dom, cod, p, q, mat)
            est = operator_norm(C)
            alt = operator_norm(C, restarts=6, max_iter=200, seed=1, method="alternating")
            assert est.iterations >= 1 and est.status == "exact", (label, p, q)
            assert alt.lower_bound <= est.upper_bound * (1.0 + 1e-13), (label, p, q)


def test_single_kraus_slack_covers_a_defect_below_the_tolerance():
    # x -> x + delta tr(x) P_0 on M_4 with delta = 4e-13: the Choi matrix is
    # rank one up to a defect of about 7.5 delta, under the tolerance
    # 1e-12 ||M||_F = 4e-12, and the (2, 2) norm, about 1 + 1.5 delta, is
    # above ||C#(1)||_inf = 1 + delta; the slack keeps the upper bound above it
    n, delta = 4, 4e-13
    profile, p0 = BlockProfile([n]), np.diag([1.0, 0.0, 0.0, 0.0])
    mat = np.eye(n * n) + delta * np.outer(p0.ravel(), np.eye(n).ravel())
    stacks = compop._choi_stacks(mat, profile, profile)
    two = Exponent(2)
    unit = eigh_groups(profile, mat.conj().T @ np.eye(n).ravel())
    slack = compop._single_kraus_slack(stacks, profile)
    assert 0.0 < slack <= 4e-12
    est = compop._single_kraus_norm(mat.__matmul__, profile, profile, two, two, slack, unit)
    top = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert top > 1.0 + 1.4 * delta
    assert est.lower_bound <= top * (1.0 + 1e-15) and top <= est.upper_bound


def test_zero_operator_is_exact_on_the_positive_path():
    zero = np.zeros((5, 13))
    for p, q in ((3, "3/2"), ("inf", 2), (2, 1)):
        S = SuperOperator.from_matrix(BlockProfile([3, 2]), BlockProfile([2, 1]), p, q, zero)
        est = operator_norm(S, restarts=4, seed=2)
        assert est.status == "exact"
        assert est.lower_bound == est.upper_bound == 0.0


def test_maps_that_are_not_positive_go_to_the_maximiser():
    rng = generator(66)
    c = BlockMatrix(PROF23, [unitary(2, rng) * [1.0, 2.0], unitary(3, rng) * [0.5, 1.0, 1.5]])
    mixed = JordanMorphismSpec(PROF2, BlockProfile([4]), [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
    w1, w2 = faithful(PROF2, rng), faithful(BlockProfile([4]), rng)
    for p, q in ((3, "3/2"), ("inf", 2), (2, 1)):
        for C in (left_multiplication(PROF23, c, p, q), build_composition(mixed, w1, w2, p, q)):
            est = operator_norm(C, restarts=4, seed=0)
            assert est.status == "lower-only"
            assert est.upper_bound == np.inf and est.source == "maximiser"


def test_each_theorem_names_its_source():
    rng = generator(75)
    h, k = faithful(PROF23, rng), faithful(PROF23, rng)
    cw = change_of_weights(h, k, 3, "3/2")
    K = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    two_kraus = np.kron(K, K.conj()) + np.kron(K.conj(), K)
    c = BlockMatrix(PROF23, [unitary(2, rng) * [1.0, 2.0], unitary(3, rng) * [0.5, 1.0, 1.5]])
    cases = [
        ("svd", operator_norm(change_of_weights(h, k, 2, 2).operator)),
        ("positive-endpoint", operator_norm(change_of_weights(h, k, "inf", 2).operator)),
        ("positive-endpoint", operator_norm(change_of_weights(h, k, 3, 1).operator)),
        ("holder", operator_norm(cw.operator)),
        ("holder", cw.norm_estimate),
        ("cone", operator_norm(SuperOperator.from_matrix(PROF2, BlockProfile([3]), 3, "3/2",
                                                         two_kraus))),
        ("cone", _cone(cw.operator, max_iter=1)),
        ("cone", _cone(SuperOperator.from_matrix(PROF2, PROF2, 3, "3/2", np.zeros((4, 4))))),
        ("maximiser", operator_norm(left_multiplication(PROF23, c, 3, "3/2"), restarts=2)),
        ("maximiser", operator_norm(cw.operator, restarts=2, method="alternating")),
    ]
    for i, (source, est) in enumerate(cases):
        assert est.source == source, (i, est)


def test_every_bound_is_a_python_float():
    # from every source, on operators that carry their terms and on
    # `from_matrix` ones, and from `change_of_weights`: float, not numpy.float64
    rng = generator(79)
    h, k = faithful(PROF2, rng), faithful(PROF2, rng)
    doubled = JordanMorphismSpec(PROF2, BlockProfile([4]),
                                 [Tile(0, 0, 0, "A"), Tile(0, 0, 2, "A")])
    w4 = faithful(doubled.profile2, rng)
    ests = []
    for p, q in ((2, 2), ("inf", 2), (3, 1), (3, "3/2")):
        cw = change_of_weights(h, k, p, q)
        assert type(cw.bound) is float, (p, q)
        ests.append(cw.norm_estimate)
        for C in (cw.operator, build_composition(doubled, h, w4, p, q)):
            tested = SuperOperator.from_matrix(C.domain_profile, C.codomain_profile, p, q,
                                               C.matrix())
            for op in (C, tested):
                ests += [operator_norm(op), operator_norm(op, restarts=2, method="alternating")]
    assert {est.source for est in ests} == {"svd", "positive-endpoint", "holder", "cone",
                                            "maximiser"}
    for est in ests:
        assert type(est.lower_bound) is float and type(est.upper_bound) is float, est


# -- positivity carried by construction ---------------------------------------

CARRIED_PAIRS = CW_PAIRS + [(3, 3), (5, 3), (4, 2)]


def _carrying_operators(rng, p, q):
    """(label, operator, (transposed, single_kraus) as its terms prove them) for
    change-of-weights operators and the
    composition operators of H-only, A-only (with tile and block unitaries),
    partial and multiplicity-2 morphisms, at (p, q)."""
    prof1, prof3, prof4 = BlockProfile([1]), BlockProfile([3]), BlockProfile([4])
    specs = [
        ("H-only", identity_morphism(PROF23), (False, True)),
        ("A-only", transpose_morphism(PROF23), (True, True)),
        ("A-only unitaries", JordanMorphismSpec(PROF23, BlockProfile([3, 2]),
                                                [Tile(0, 1, 0, "A", unitary(2, rng)),
                                                 Tile(1, 0, 0, "A")],
                                                [unitary(3, rng), None]), (True, True)),
        ("partial", JordanMorphismSpec(PROF23, prof4, [Tile(1, 0, 1, "A")], [unitary(4, rng)]),
         (True, True)),
        ("corner", JordanMorphismSpec(PROF2, prof3, [Tile(0, 0, 1, "H")]), (False, True)),
        ("doubled", JordanMorphismSpec(PROF2, prof4, [Tile(0, 0, 0, "A"), Tile(0, 0, 2, "A")]),
         (True, False)),
        ("doubled 1x1", JordanMorphismSpec(prof1, PROF2, [Tile(0, 0, 0, "H"), Tile(0, 0, 1, "H")]),
         (False, False)),
        ("two sources", JordanMorphismSpec(BlockProfile([1, 2]), prof3,
                                           [Tile(0, 0, 0, "H"), Tile(1, 0, 1, "A")]),
         (True, False)),
    ]
    out = []
    for label, spec, positivity in specs:
        w1, w2 = faithful(spec.profile1, rng), faithful(spec.profile2, rng)
        out.append((label, build_composition(spec, w1, w2, p, q), positivity))
    for dims in ([2], [3, 2]):
        profile = BlockProfile(dims)
        h, k = faithful(profile, rng), faithful(profile, rng)
        out.append((f"change of weights {dims}", change_of_weights(h, k, p, q).operator,
                    (False, True)))
    return out


# The largest relative gap between a norm computed from the Kraus terms and
# the same norm computed from the matrix, on this corpus, was 1.43e-15 (a
# change-of-weights lower bound at (3, 3)); 4x that, rounded up.
CARRIED_RTOL = 6e-15


def test_carried_positivity_gives_the_norm_the_matrix_test_gives():
    # the same source, label and work counts as the matrix tested from
    # scratch, and the same values to rounding: the carried closed forms are
    # computed from the terms, the tested ones from the matrix; a carried
    # `holder` upper bound also drops the slack
    rng = generator(76)
    for p, q in CARRIED_PAIRS:
        for label, C, positivity in _carrying_operators(rng, p, q):
            image, _, _, slack = compop._completely_positive_map(C)
            assert (image.__self__ is not C._terms, slack() == 0.0) == positivity, label
            tested = SuperOperator.from_matrix(C.domain_profile, C.codomain_profile, p, q,
                                               C.matrix())
            assert tested._terms is None
            got, want = operator_norm(C, restarts=4), operator_norm(tested, restarts=4)
            case = (label, p, q, got, want)
            assert (got.source, got.status) == (want.source, want.status), case
            assert (got.iterations, got.capped) == (want.iterations, want.capped), case
            assert abs(got.lower_bound - want.lower_bound) <= CARRIED_RTOL * want.lower_bound, case
            if got.source == "holder":
                assert got.lower_bound <= got.upper_bound, case
                assert got.upper_bound <= want.upper_bound * (1.0 + CARRIED_RTOL), case
            elif math.isinf(want.upper_bound):
                assert math.isinf(got.upper_bound), case
            else:
                gap = abs(got.upper_bound - want.upper_bound)
                assert gap <= CARRIED_RTOL * want.upper_bound, case


def test_carried_positivity_skips_the_choi_test(monkeypatch):
    rng = generator(77)
    w1, w2 = faithful(PROF23, rng), faithful(PROF23, rng)
    mixed = JordanMorphismSpec(PROF2, BlockProfile([4]), [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
    inner = build_composition(identity_morphism(PROF23), w1, w2, 3, "3/2")
    outer = build_composition(transpose_morphism(PROF23), w2, w2, "3/2", "3/2")
    untested = [
        SuperOperator.from_matrix(PROF23, PROF23, 3, "3/2", inner.matrix()),
        SuperOperator(PROF23, PROF23, 3, "3/2", inner.apply),
        outer.compose(inner),
        inner.trace_dual(),
    ]
    assert all(C._terms is None for C in untested)
    # a mixed H/A morphism carries terms but no proof: straight to the maximiser
    mixed_op = build_composition(mixed, faithful(PROF2, rng), faithful(BlockProfile([4]), rng),
                                 3, "3/2")
    assert compop._completely_positive_map(mixed_op) is None

    def refuse(*args):
        raise AssertionError("the Choi test ran")

    monkeypatch.setattr(compop, "_choi_stacks", refuse)
    for p, q in CARRIED_PAIRS:
        for label, C, _ in _carrying_operators(rng, p, q):
            operator_norm(C, restarts=2)
    assert operator_norm(mixed_op, restarts=2).source == "maximiser"
    for C in untested:
        with pytest.raises(AssertionError, match="the Choi test ran"):
            operator_norm(C, restarts=2)


def test_superoperators_copy_and_pickle():
    # a copy rebuilds the operator from its terms, or from the matrix of a
    # `from_matrix` operator: same matrix bits, exponents, terms and norm
    rng = generator(93)
    w1, w2 = faithful(PROF23, rng), faithful(BlockProfile([3, 2]), rng)
    spec = JordanMorphismSpec(PROF23, BlockProfile([3, 2]),
                              [Tile(0, 1, 0, "A", unitary(2, rng)), Tile(1, 0, 0, "A")])
    composed = build_composition(spec, w1, w2, 3, "3/2")
    ops = [composed, change_of_weights(w1, faithful(PROF23, rng), 3, "3/2").operator,
           SuperOperator.from_matrix(PROF23, BlockProfile([3, 2]), 3, "3/2", composed.matrix())]
    for C in ops:
        want = operator_norm(C, restarts=2)
        for twin in (copy.copy(C), copy.deepcopy(C), pickle.loads(pickle.dumps(C))):
            assert twin is not C
            assert (twin.domain_profile, twin.codomain_profile) == (C.domain_profile,
                                                                    C.codomain_profile)
            assert (twin.p, twin.q) == (C.p, C.q)
            assert np.array_equal(twin.matrix(), C.matrix())
            assert not twin.matrix().flags.writeable
            if C._terms is None:
                assert twin._terms is None
            else:
                assert len(twin._terms.groups) == len(C._terms.groups)
                for got, ref in zip(twin._terms.groups, C._terms.groups):
                    assert got[0] == ref[0] and all(map(np.array_equal, got[1:], ref[1:]))
            assert operator_norm(twin, restarts=2) == want
            with pytest.raises(AttributeError, match="immutable"):
                twin.p = Exponent(2)


def _reference_tile_matrix(J):
    """J's matrix tile by tile: kron(E, conj E), columns permuted (i, j) -> (j, i) for A."""
    src_at = np.cumsum([0] + [n * n for n in J.profile1.dims])
    dst_at = np.cumsum([0] + [m * m for m in J.profile2.dims])
    mat = np.zeros((J.profile2.coord_dim, J.profile1.coord_dim), dtype=complex)
    for t in J.tiles:
        n, m = J.profile1.dims[t.src], J.profile2.dims[t.dst]
        W = None if J.block_unitaries is None else J.block_unitaries[t.dst]
        E = (np.eye(m) if W is None else W)[:, t.offset:t.offset + n]
        E = E if t.conj_unitary is None else E @ t.conj_unitary
        k = np.kron(E, E.conj())
        if t.kind == "A":
            k = k.reshape(m * m, n, n).swapaxes(1, 2).reshape(m * m, n * n)
        mat[dst_at[t.dst]:dst_at[t.dst + 1], src_at[t.src]:src_at[t.src + 1]] += k
    return mat


DRAW_CLASSES = {"partial", "onto", "multiplicity 2", "multiplicity 1", "mixed", "one kind",
                "unitaries", "no unitaries"}


def _draw_classes(J):
    """The classes of DRAW_CLASSES that the morphism J falls in."""
    per_src = [t.src for t in J.tiles]
    return {"partial" if len(set(per_src)) < J.profile1.block_count else "onto",
            "multiplicity 2" if len(set(per_src)) < len(per_src) else "multiplicity 1",
            "mixed" if len({t.kind for t in J.tiles if J.profile1.dims[t.src] > 1}) > 1
            else "one kind",
            "unitaries" if J.block_unitaries is not None
            or any(t.conj_unitary is not None for t in J.tiles) else "no unitaries"}


def test_term_written_matrix_matches_the_sandwiched_tile_matrix():
    # the matrix written from the Kraus terms against the product of the two
    # sandwich matrices and J's matrix built tile by tile
    rng = generator(91)
    seen = set()
    for _ in range(40):
        J = random_morphism(rng)
        seen |= _draw_classes(J)
        w1, w2 = faithful(J.profile1, rng), faithful(J.profile2, rng)
        tiles = _reference_tile_matrix(J)
        for p, q in ((3, "3/2"), (2, 1), ("inf", 2), (4, 4)):
            pre = w1.power(-Exponent(p).float_reciprocal() / 2)
            post = w2.power(Exponent(q).float_reciprocal() / 2)
            ref = compop._sandwich_matrix(post, post) @ tiles @ compop._sandwich_matrix(pre, pre)
            got = build_composition(J, w1, w2, p, q).matrix()
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), (J, p, q)
    assert seen == DRAW_CLASSES


def test_term_norms_match_the_matrix_route_up_to_8():
    # on profiles up to [8] the closed forms read from the terms agree with
    # those of `from_matrix` of the same matrix within NORM_RTOL
    rng = generator(94)
    for n in range(1, 9):
        for anti in (False, True):
            J = random_onto_morphism(rng, BlockProfile([n, max(n - 3, 1)]), anti=anti)
            w1, w2 = faithful(J.profile1, rng), faithful(J.profile2, rng)
            for p, q in ((3, "3/2"), (2, 1), ("inf", 2), (4, 4), (5, 3)):
                C = build_composition(J, w1, w2, p, q)
                got = operator_norm(C)
                want = operator_norm(SuperOperator.from_matrix(J.profile1, J.profile2, p, q,
                                                               C.matrix()))
                assert (got.source, got.status) == (want.source, want.status)
                for a, b in ((got.lower_bound, want.lower_bound),
                             (got.upper_bound, want.upper_bound)):
                    assert abs(a - b) <= NORM_RTOL * b, (n, anti, p, q, got, want)


def test_carried_norms_write_no_matrix(monkeypatch, tmp_path):
    rng = generator(92)
    reads, read = [], SuperOperator.matrix

    def refuse(self):
        raise AssertionError("the matrix was written")

    def counted(self):
        reads.append(self)
        return read(self)

    onto = random_onto_morphism(rng, BlockProfile([64]))
    w64 = [faithful(onto.profile1, rng), faithful(onto.profile2, rng)]
    h, k = faithful(PROF23, rng), faithful(PROF23, rng)
    spec = {"algebra1": [2], "algebra2": [3],
            "weight1": [[[[0.6, 0], [0.1, 0.05]], [[0.1, -0.05], [0.4, 0]]]],
            "weight2": [[[[0.5, 0], [0, 0], [0, 0]], [[0, 0], [0.3, 0], [0, 0]],
                         [[0, 0], [0, 0], [0.2, 0]]]],
            "morphism": {"tiles": [{"src": 0, "dst": 0, "offset": 1, "kind": "A"}]}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    monkeypatch.setattr(KrausTerms, "matrix", refuse)
    monkeypatch.setattr(SuperOperator, "matrix", counted)
    # p = inf, q = 1 and one Kraus map per block pair over a matching: the terms only
    for p, q in CARRIED_PAIRS:
        for label, C, (_, single) in _carrying_operators(rng, p, q):
            if p == q == 2 or not (single or p == "inf" or q == 1):
                with pytest.raises(AssertionError, match="the matrix was written"):
                    operator_norm(C, restarts=2)   # svd, the cone and the maximiser
                reads.clear()
            else:
                assert operator_norm(C, restarts=2).status == "exact", (label, p, q)
                assert reads == [], (label, p, q)
    big = operator_norm(build_composition(onto, *w64, 3, "3/2"))
    assert (big.source, big.status) == ("holder", "exact")
    assert change_of_weights(h, k, 3, "3/2").norm_estimate.status == "exact"
    J = transpose_morphism(PROF23)
    assert pushforward_density(J, k).rho.allclose(k.rho.transpose(), 1e-12)
    out = tmp_path / "report.json"
    assert cli_main(["norm", str(tmp_path / "spec.json"), "--p", "3", "--q", "1.5",
                     "--format", "machine", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["norm_source"] == "holder"
    assert reads == []
    # apply, the maximiser and every `from_matrix` operator read the matrix
    C = change_of_weights(h, k, 3, "3/2").operator
    for use in (lambda: C.apply(h.rho), lambda: operator_norm(C, method="alternating")):
        with pytest.raises(AssertionError, match="the matrix was written"):
            use()
    tested = SuperOperator.from_matrix(PROF23, PROF23, 3, "3/2", np.eye(PROF23.coord_dim))
    assert operator_norm(tested).status == "exact" and reads[-1] is tested


def _sym2_power(m, t):
    """m^t for a real symmetric positive definite 2x2 `m` of Decimals, from its eigenvectors."""
    (a, b), (_, c) = m
    half, root = (a + c) / 2, (((a - c) / 2) ** 2 + b * b).sqrt()
    out = [[Decimal(0)] * 2 for _ in range(2)]
    for lam in (half + root, half - root):
        one, zero = Decimal(1), Decimal(0)
        v = (b, lam - a) if b else ((one, zero) if lam == a else (zero, one))
        norm2 = v[0] * v[0] + v[1] * v[1]
        for i in range(2):
            for j in range(2):
                out[i][j] += lam ** t * v[i] * v[j] / norm2
    return out


def _decimal_lp(values, rho):
    values = [v for v in values if v > 0]
    return max(values) if rho is None else sum(v ** rho for v in values) ** (1 / rho)


def test_carried_norms_match_a_50_digit_reference():
    # composition and change-of-weights operators on [2] and [1, 1, 1] with
    # real weights: the norm is ||C#(1)||_rho (||C(1)||_q at p = inf), here
    # computed in 50-digit decimal arithmetic from the float inputs
    getcontext().prec = 50
    h2, k2 = np.diag([0.3, 0.7]), np.array([[0.6, -0.15], [-0.15, 0.4]])
    h1, k1 = [0.2, 0.5, 0.3], [0.6, 0.4]
    partial = JordanMorphismSpec(BlockProfile([1, 1, 1]), PROF11,
                                 [Tile(0, 1, 0, "H"), Tile(2, 0, 0, "H")])
    for p, q in ((3, "3/2"), (2, 1), ("inf", 2), (4, 4), (5, 3)):
        P, Q = Exponent(p), Exponent(q)
        inv_p, inv_q = Decimal(P.fraction.denominator) / P.fraction.numerator if not P.is_inf \
            else Decimal(0), Decimal(Q.fraction.denominator) / Q.fraction.numerator
        r = holder_complement(P, Q)
        rho = None if r.is_inf else Decimal(r.fraction.numerator) / r.fraction.denominator
        dk, dh = [[Decimal(x) for x in row] for row in k2], [Decimal(x) for x in np.diag(h2)]
        if P.is_inf:
            ref2 = (dk[0][0] + dk[1][1]) ** inv_q
            ref1 = sum(Decimal(x) for x in k1) ** inv_q
        else:
            kq = _sym2_power(dk, inv_q)
            d = [x ** (-inv_p / 2) for x in dh]
            m = [[d[i] * kq[i][j] * d[j] for j in range(2)] for i in range(2)]
            half = (m[0][0] + m[1][1]) / 2
            root = (((m[0][0] - m[1][1]) / 2) ** 2 + m[0][1] ** 2).sqrt()
            ref2 = _decimal_lp([half + root, half - root], rho)
            ref1 = _decimal_lp([Decimal(k1[1]) ** inv_q * Decimal(h1[0]) ** -inv_p,
                                Decimal(k1[0]) ** inv_q * Decimal(h1[2]) ** -inv_p], rho)
        w1, w2 = Weight(BlockMatrix(PROF2, [h2])), Weight(BlockMatrix(PROF2, [k2]))
        ops = [(ref2, build_composition(identity_morphism(PROF2), w1, w2, p, q)),
               (ref2, build_composition(transpose_morphism(PROF2), w1, w2, p, q)),
               (ref2, change_of_weights(w1, w2, p, q).operator),
               (ref1, build_composition(partial, Weight.diagonal(partial.profile1, h1),
                                        Weight.diagonal(PROF11, k1), p, q))]
        for ref, C in ops:
            est, ref = operator_norm(C), float(ref)
            assert est.status == "exact" and est.source in ("holder", "positive-endpoint")
            assert abs(est.lower_bound - ref) <= 1e-14 * ref, (p, q, est, ref)
            assert ref * (1 - 1e-14) <= est.upper_bound <= ref * (1 + 3e-14), (p, q, est, ref)


def test_change_of_weights_scale():
    h = Weight.diagonal(PROF2, [0.5, 0.5])
    k = Weight.diagonal(PROF2, [0.8, 0.2])
    report = change_of_weights_scale(h, k, 2, [(2, 1), (4, 2)])
    assert report.all_ok
    assert all(np.isfinite(e.bound) for e in report.entries)
    ident = change_of_weights_scale(h, k, 1, [(1, 1), (2, 2), ("inf", "inf")])
    assert ident.all_ok
    with pytest.raises(RatioMismatch):
        change_of_weights_scale(h, k, 2, [(3, 1)])


# -- multiplier recovery ----------------------------------------------------


def test_recover_left_multiplier_round_trip():
    rng = generator(10)
    w = faithful(PROF23, rng)
    for p, q in ((2, 1), (3, 1.5), (2, 2)):
        c = element(PROF23, rng)
        T = left_multiplication(PROF23, c, p, q)
        rec = recover_left_multiplier(T, w)
        assert (rec.multiplier - c).fro_norm() < 1e-8 * (1 + c.fro_norm())
        # duality: T* is right multiplication by the same element
        dual = recover_right_multiplier(T.trace_dual(), w)
        assert (dual.multiplier - c).fro_norm() < 1e-8 * (1 + c.fro_norm())


def test_recover_left_multiplier_upper_triangular_example():
    w = Weight.diagonal(PROF2, [0.6, 0.4])
    c = BlockMatrix(PROF2, [np.array([[1.0, 2.0], [0.0, 1.0]])])
    rec = recover_left_multiplier(left_multiplication(PROF2, c, 2, 2), w)
    assert (rec.multiplier - c).fro_norm() < 1e-10


def test_recover_rejects_non_module_maps():
    rng = generator(11)
    w = faithful(PROF2, rng)
    transpose_map = SuperOperator(PROF2, PROF2, 2, 2, lambda x: x.transpose())
    with pytest.raises(NotModuleMap):
        recover_left_multiplier(transpose_map, w)
    u = unitary(2, rng)
    conj_map = SuperOperator(
        PROF2, PROF2, 2, 2,
        lambda x: BlockMatrix(PROF2, [u @ x.blocks[0] @ u.conj().T]),
    )
    with pytest.raises(NotModuleMap):
        recover_left_multiplier(conj_map, w)


def _reference_recover(T, w, mul):
    """The unit-by-unit module check: (multiplier, residual, witness unit or None)."""
    hp = w.power(T.p.reciprocal())
    c = mul(T.apply(hp), w.power(-T.p.reciprocal()))
    worst, witness = 0.0, None
    for s, size in enumerate(w.profile.dims):
        for i in range(size):
            for j in range(size):
                a = BlockMatrix.matrix_unit(w.profile, s, i, j)
                x = mul(hp, a)
                res = (T.apply(x) - mul(c, x)).fro_norm()
                if res > worst:
                    worst, witness = res, a
    return c, worst, witness


def test_recover_multiplier_matches_unit_loop():
    rng = generator(12)
    recoveries = ((recover_left_multiplier, lambda a, b: a @ b),
                  (recover_right_multiplier, lambda a, b: b @ a))
    refused = accepted = 0
    for dims in ([2], [2, 3], [1, 2, 2]):
        profile = BlockProfile(dims)
        cd = profile.coord_dim
        w = faithful(profile, rng)
        for p, q in ((2, 1), (3, "3/2"), ("inf", 2)):
            c = element(profile, rng)
            L = left_multiplication(profile, c, p, q)
            noise = rng.standard_normal((cd, cd)) + 1j * rng.standard_normal((cd, cd))
            ops = [L, SuperOperator.from_matrix(profile, profile, p, q, L.matrix() + 1e-3 * noise),
                   SuperOperator.from_matrix(profile, profile, p, q, noise)]
            ops.append(L.trace_dual())
            for T in ops:
                for recover, mul in recoveries:
                    ref_c, ref_res, ref_witness = _reference_recover(T, w, mul)
                    try:
                        rec = recover(T, w)
                    except NotModuleMap as exc:
                        refused += 1
                        assert exc.residual == pytest.approx(ref_res, rel=1e-12, abs=1e-12)
                        assert ref_res > exc.tolerance
                        assert np.array_equal(exc.witness.flat(), ref_witness.flat())
                        continue
                    assert (rec.multiplier - ref_c).fro_norm() <= 1e-12 * (1 + ref_c.fro_norm())
                    assert rec.residual == pytest.approx(ref_res, rel=1e-12, abs=1e-12)
                    assert rec.residual <= rec.tolerance
                    accepted += 1
    # L passes on the left only, its trace dual on the right only
    assert (accepted, refused) == (18, 54)


# -- necessity direction: the dual density ----------------------------------


def test_trace_dual_density_identity():
    # composing C_J with the trace and dualising recovers the pushforward
    # density: tr(b embed(w1, a, r)) = k(a) with b = h^(-1/2r) k h^(-1/2r)
    rng = generator(12)
    for _ in range(6):
        spec = random_morphism(rng, allow_partial=False)
        w1 = faithful(spec.profile1, rng)
        w2 = faithful(spec.profile2, rng)
        r = Exponent(2)
        C = build_composition(spec, w1, w2, r, 1)
        from nclp.jordan import pushforward_density

        k = pushforward_density(spec, w2)
        half = w1.power(-float(r.reciprocal()) / 2)
        b = half @ k.rho @ half
        for s, size in enumerate(spec.profile1.dims):
            for i in range(size):
                for j in range(size):
                    a = BlockMatrix.matrix_unit(spec.profile1, s, i, j)
                    lhs = (b @ embed(w1, a, r).matrix).trace()
                    tr_c = C.apply(embed(w1, a, r).matrix).trace()
                    rhs = k.value(a)
                    assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))
                    assert abs(tr_c - rhs) < 1e-8 * (1 + abs(rhs))


# -- classifier -------------------------------------------------------------


def test_classifier_accepts_composition_operators():
    rng = generator(13)
    w1 = faithful(PROF2, rng)
    w2 = faithful(PROF2, rng)
    for spec in (identity_morphism(PROF2), transpose_morphism(PROF2)):
        C = build_composition(spec, w1, w2, 2, 1)
        res = classify_characteristic_preserving(C, w1, w2)
        assert res.accepted
        for i in range(2):
            for j in range(2):
                u = BlockMatrix.matrix_unit(PROF2, 0, i, j)
                assert (res.morphism.apply(u) - spec.apply(u)).fro_norm() < 1e-8


def test_classifier_rejects_perturbation():
    rng = generator(14)
    w1 = faithful(PROF2, rng)
    w2 = faithful(PROF2, rng)
    C = build_composition(identity_morphism(PROF2), w1, w2, 2, 1)
    mat = np.array(C.matrix())
    e11 = BlockMatrix.matrix_unit(PROF2, 0, 0, 0).flat()
    trace_vec = BlockMatrix.identity(PROF2).flat().conj()
    S = SuperOperator.from_matrix(PROF2, PROF2, 2, 1, mat + 0.1 * np.outer(e11, trace_vec))
    res = classify_characteristic_preserving(S, w1, w2)
    assert not res.accepted
    probe, image, residual = res.witness
    assert residual > 1e-7


def test_classifier_multiplicity_under_global_unitary():
    # two H copies and one A copy of the same source block, all hidden
    # behind per-tile unitaries and one unitary on the destination block
    rng = generator(42)
    big = BlockProfile([7])
    spec = JordanMorphismSpec(
        PROF2, big,
        [Tile(0, 0, 0, "H", conj_unitary=unitary(2, rng)),
         Tile(0, 0, 2, "H", conj_unitary=unitary(2, rng)),
         Tile(0, 0, 4, "A", conj_unitary=unitary(2, rng))],
        block_unitaries=[unitary(7, rng)],
    )
    w1 = faithful(PROF2, rng)
    w2 = faithful(big, rng)
    C = build_composition(spec, w1, w2, 2, 1)
    res = classify_characteristic_preserving(C, w1, w2)
    assert res.accepted
    assert sorted(t.kind for t in res.morphism.tiles) == ["A", "H", "H"]
    for i in range(2):
        for j in range(2):
            u = BlockMatrix.matrix_unit(PROF2, 0, i, j)
            assert (res.morphism.apply(u) - spec.apply(u)).fro_norm() < 1e-8


def test_classifier_handles_kills_and_multiplicity():
    rng = generator(15)
    # one source block dropped, one duplicated
    spec = JordanMorphismSpec(
        PROF23, BlockProfile([5]),
        [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A", conj_unitary=unitary(2, rng))],
    )
    w1 = faithful(PROF23, rng)
    w2 = faithful(BlockProfile([5]), rng)
    C = build_composition(spec, w1, w2, 3, 1.5)
    res = classify_characteristic_preserving(C, w1, w2)
    assert res.accepted
    worst = 0.0
    for s, size in enumerate(PROF23.dims):
        for i in range(size):
            for j in range(size):
                u = BlockMatrix.matrix_unit(PROF23, s, i, j)
                worst = max(worst, (res.morphism.apply(u) - spec.apply(u)).fro_norm())
    assert worst < 1e-8


def _reference_projection(profile, rng):
    """One spectral probe, drawn block by block (normals, then one uniform)."""
    blocks = []
    for d in profile:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lam, v = np.linalg.eigh((g + g.conj().T) / 2)
        if d == 1:
            keep = np.array([rng.random() < 0.5])
        else:
            keep = lam > rng.uniform(lam[0], lam[-1])
        blk = (v * keep.astype(float)) @ v.conj().T
        blocks.append((blk + blk.conj().T) / 2)
    return BlockMatrix(profile, blocks)


def _reference_classify(S, w1, w2, probes, seed):
    """The projection test one probe at a time through the candidate callable.

    Returns (witness probe or None, its residual, worst residual, probes
    used, materialised candidate).
    """
    pre = w1.power(S.p.reciprocal() / 2)
    post = w2.power(-S.q.reciprocal() / 2)

    def j0(a):
        return post @ S.apply(pre @ a @ pre) @ post

    n = w1.profile.total_dim
    diagonal = (BlockMatrix.diagonal(w1.profile, [(m >> i) & 1 for i in range(n)])
                for m in range(min(2 ** n, 4096)))
    rng = generator(seed)
    spectral = (_reference_projection(w1.profile, rng) for _ in range(probes))
    units = [BlockMatrix.matrix_unit(w1.profile, s, i, j)
             for s, d in enumerate(w1.profile.dims) for i in range(d) for j in range(d)]
    J0 = np.array([j0(u).flat() for u in units]).T
    worst, used = 0.0, 0
    for e in itertools.chain(diagonal, spectral):
        used += 1
        f = j0(e)
        residual = max((f - f.adjoint()).fro_norm(), (f @ f - f).fro_norm()) / max(1.0, f.fro_norm())
        worst = max(worst, residual)
        if residual > 1e-7:
            return e, residual, worst, used, J0
    return None, None, worst, used, J0


def _diagonal_compressed(spec, w1, w2, p, q):
    """x -> embed(w2, J(E(unembed(w1, x)))), E the diagonal expectation."""
    pre = w1.power(-Exponent(p).reciprocal() / 2)
    post = w2.power(Exponent(q).reciprocal() / 2)

    def action(x):
        y = pre @ x @ pre
        diag = BlockMatrix(y.profile, [np.diag(np.diagonal(b)) for b in y.blocks])
        return post @ spec.apply(diag) @ post

    return SuperOperator(spec.profile1, spec.profile2, p, q, action)


def test_projection_batch_matches_single_draws():
    for dims in ([2], [1, 2], [4, 3], [1, 1, 3]):
        profile = BlockProfile(dims)
        for seed in range(4):
            rng, ref_rng = generator(seed), generator(seed)
            cols = projection(profile, rng, 30)
            assert cols.shape == (profile.coord_dim, 30)
            for k in range(30):
                assert np.array_equal(cols[:, k], _reference_projection(profile, ref_rng).flat())
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_batched_classifier_matches_probe_loop():
    rng = generator(47)
    cases = []
    for dims in ([2], [1, 2], [2, 2], [2, 3]):
        profile = BlockProfile(dims)
        for p, q in ((2, 2), (2, 1), (3, "3/2"), ("inf", 2)):
            spec = random_morphism(rng, profile1=profile)
            w1, w2 = faithful(profile, rng), faithful(spec.profile2, rng)
            cases.append(("accept", build_composition(spec, w1, w2, p, q), w1, w2))
        spec = random_morphism(rng, profile1=profile)
        w1, w2 = faithful(profile, rng), faithful(spec.profile2, rng)
        mat = np.array(build_composition(spec, w1, w2, 2, 1).matrix())
        noise = 0.05 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))
        cases.append(("noise", SuperOperator.from_matrix(profile, spec.profile2, 2, 1,
                                                         mat + noise), w1, w2))
        # a diagonal-compressed map passes every diagonal pattern, so it
        # must fail on a spectral probe; J covers every block so that it is
        # not a composition operator again
        spec = random_morphism(rng, profile1=profile, allow_partial=False)
        w1, w2 = faithful(profile, rng), faithful(spec.profile2, rng)
        cases.append(("diagonal", _diagonal_compressed(spec, w1, w2, 2, 1), w1, w2))
    for seed, (kind, S, w1, w2) in enumerate(cases):
        # the probe loop is the verdict oracle; the exact check decides alike
        e, _, _, _, J0 = _reference_classify(S, w1, w2, 200, seed)
        res = classify_characteristic_preserving(S, w1, w2, seed=seed)
        assert res.accepted == (kind == "accept") == (e is None)
        n = w1.profile.coord_dim
        assert res.basis_pairs_checked == n * (n + 1) // 2
        if e is None:
            assert res.max_projection_residual <= 1e-12
            ref = _reconstruct_tiles(J0, w1.profile, w2.profile, 1e-7)
            assert [(t.src, t.dst, t.offset, t.kind) for t in res.morphism.tiles] == \
                [(t.src, t.dst, t.offset, t.kind) for t in ref.tiles]
            for u, v in zip(res.morphism.block_unitaries, ref.block_unitaries):
                np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)
        else:
            assert res.max_projection_residual > 1e-7


def test_reconstruction_gauge_is_fixed_by_the_matrix():
    # a rounding-level change of J0 moves the rebuilt frames and their
    # completion at rounding level only: no eigenvector phase, degenerate
    # eigenspace basis or QR sign is left to the noise
    rng = generator(68)
    for dims in ([1, 1], [2], [1, 2], [2, 2], [3], [2, 3]):
        profile = BlockProfile(dims)
        for _ in range(50):
            spec = random_morphism(rng, profile1=profile)
            J0 = spec.matrix()
            noisy = J0 + 1e-14 * (rng.standard_normal(J0.shape) + 1j * rng.standard_normal(J0.shape))
            clean = _reconstruct_tiles(J0, profile, spec.profile2, 1e-7)
            moved = _reconstruct_tiles(noisy, profile, spec.profile2, 1e-7)
            assert [(t.src, t.dst, t.offset, t.kind) for t in moved.tiles] == \
                [(t.src, t.dst, t.offset, t.kind) for t in clean.tiles]
            for u, v in zip(moved.block_unitaries, clean.block_unitaries):
                np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)
            for rebuilt in (clean, moved):
                np.testing.assert_allclose(rebuilt.matrix(), J0, rtol=0.0, atol=1e-12)


def _count_pivots(monkeypatch):
    calls = []
    original = compop._pivot_columns

    def counted(P):
        calls.append(P.shape)
        return original(P)

    monkeypatch.setattr(compop, "_pivot_columns", counted)
    return calls


def test_completion_runs_only_on_a_partly_covered_block(monkeypatch):
    # one pivot per extractor of the [2] source (its H and its A part),
    # plus one for the completion of 1 - W W* when W leaves the block
    # partly uncovered
    calls = _count_pivots(monkeypatch)
    for dims2, tiles, completions in (([4], [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "H")], 0),
                                      ([3], [Tile(0, 0, 1, "H")], 1)):
        spec = JordanMorphismSpec(PROF2, BlockProfile(dims2), tiles)
        calls.clear()
        rebuilt = _reconstruct_tiles(spec.matrix(), PROF2, spec.profile2, 1e-7)
        assert len(calls) == 2 + completions
        assert [(t.src, t.dst, t.kind) for t in rebuilt.tiles] == \
            [(t.src, t.dst, t.kind) for t in spec.tiles]
        np.testing.assert_allclose(rebuilt.matrix(), spec.matrix(), rtol=0.0, atol=1e-12)


def test_pivot_columns_of_a_rank_zero_projection_is_empty():
    for m in (1, 3):
        for P in (np.zeros((m, m), dtype=complex), 1e-13 * np.eye(m, dtype=complex)):
            cols = compop._pivot_columns(P)
            assert cols.shape == (m, 0) and cols.dtype == complex


def _per_column_unitaries(J0, profile1, profile2, tol):
    """`_reconstruct_tiles`'s block unitaries, each map applied to one pivot column at a time."""
    def polar(X):
        lam, v = np.linalg.eigh(X.conj().T @ X)
        return X @ (v / np.sqrt(lam)) @ v.conj().T

    src_at = np.cumsum([0] + [n * n for n in profile1.dims])
    dst_at = np.cumsum([0] + [m * m for m in profile2.dims])
    unitaries = []
    for d, m in enumerate(profile2.dims):
        columns = []
        for s, n in enumerate(profile1.dims):
            F = J0[dst_at[d] : dst_at[d + 1], src_at[s] : src_at[s + 1]].T.reshape(n, n, m, m)
            if np.linalg.norm(F) <= tol:
                continue
            if n == 1:
                parts = [(F[0, 0], [])]
            else:
                X, Y = F[0, 0] @ F[0, 1], F[0, 1] @ F[0, 0]
                parts = [(X @ X.conj().T, [F[i, i] @ F[i, 0] for i in range(1, n)]),
                         (Y.conj().T @ Y, [F[0, l] @ F[0, 0] for l in range(1, n)])]
            for extractor, maps in parts:
                for x in compop._pivot_columns(extractor).T:
                    columns += [x] + [g @ x for g in maps]
        W = polar(np.column_stack(columns)) if columns else np.zeros((m, 0), dtype=complex)
        rest = compop._pivot_columns(np.eye(m) - W @ W.conj().T)
        unitaries.append(np.column_stack([W, polar(rest)]) if rest.shape[1] else W)
    return unitaries


def test_stacked_map_products_match_per_column_products():
    # every source block has two copies, of one kind or of both; the last
    # two cases mix sources of sizes 2 and 3 in one destination block
    rng = generator(26)
    cases = [(PROF2, [5], [(0, 0, 0, "H"), (0, 0, 2, "H")]),
             (PROF2, [4], [(0, 0, 0, "A"), (0, 0, 2, "H")]),
             (BlockProfile([3]), [7], [(0, 0, 0, "H"), (0, 0, 3, "A")]),
             (PROF23, [5, 6], [(0, 0, 0, "H"), (0, 0, 2, "A"), (1, 1, 0, "H"), (1, 1, 3, "A")]),
             (PROF23, [5, 5], [(0, 0, 0, "H"), (1, 0, 2, "H"), (0, 1, 0, "A"), (1, 1, 2, "A")])]
    for profile, dims2, placed in cases:
        for _ in range(5):
            tiles = [Tile(s, d, o, kind, conj_unitary=unitary(profile.dims[s], rng))
                     for s, d, o, kind in placed]
            spec = JordanMorphismSpec(profile, BlockProfile(dims2), tiles,
                                      block_unitaries=[unitary(m, rng) for m in dims2])
            J0 = spec.matrix()
            rebuilt = _reconstruct_tiles(J0, profile, spec.profile2, 1e-7)
            for u, v in zip(rebuilt.block_unitaries,
                            _per_column_unitaries(J0, profile, spec.profile2, 1e-7)):
                np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(rebuilt.matrix(), J0, rtol=0.0, atol=1e-12)


def test_classifier_ends_in_a_verdict_a_rounding_hair_off_a_morphism():
    # a composition operator plus relative noise eps: each destination
    # block's rebuilt frames are orthonormalised together, so the rebuilt
    # spec is a valid morphism and the comparison with J0 alone decides
    profiles = ([2], [3], [2, 2], [1, 2], [4, 3], [2, 3])
    for eps in (1e-9, 1e-8, 3e-8):
        rng = generator(5)
        for k in range(300):
            profile = BlockProfile(profiles[k % 6])
            spec = random_morphism(rng, profile1=profile)
            w1 = Weight(psd(profile, rng, eps=0.15))
            w2 = Weight(psd(spec.profile2, rng, eps=0.15))
            mat = build_composition(spec, w1, w2, 2, 1).matrix()
            noise = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
            S = SuperOperator.from_matrix(profile, spec.profile2, 2, 1,
                                          mat + eps * np.abs(mat).max() * noise)
            res = classify_characteristic_preserving(S, w1, w2)
            if res.accepted:
                for u in res.morphism.block_unitaries:
                    np.testing.assert_allclose(u @ u.conj().T, np.eye(len(u)),
                                               rtol=0.0, atol=1e-12)
            else:
                e = res.witness[0]
                assert (e - e.adjoint()).fro_norm() <= 1e-9
                assert (e @ e - e).fro_norm() <= 1e-9


def test_classifier_runs_the_pair_check_once_on_an_accept(monkeypatch):
    # once on J0; the rebuilt spec's constructor checks its frames only
    from nclp import jordan

    rng = generator(8)
    spec = random_morphism(rng, profile1=PROF23)
    w1, w2 = faithful(PROF23, rng), faithful(spec.profile2, rng)
    S = build_composition(spec, w1, w2, 2, 1)
    calls = []
    original = jordan.jordan_defect

    def counted(*args):
        calls.append(1)
        return original(*args)

    for m in (compop, jordan):
        monkeypatch.setattr(m, "jordan_defect", counted)
    res = classify_characteristic_preserving(S, w1, w2)
    assert res.accepted and res.morphism.block_unitaries is not None
    assert len(calls) == 1


def _classifier_candidate(monkeypatch, S, w1, w2):
    """The J0 that `classify_characteristic_preserving` hands to `jordan_defect`."""
    seen, original = [], compop.jordan_defect

    def capture(J0, *args):
        seen.append(J0)
        return original(J0, *args)

    with monkeypatch.context() as patch:
        patch.setattr(compop, "jordan_defect", capture)
        classify_characteristic_preserving(S, w1, w2)
    return seen[0]


def test_carried_candidate_matches_the_sandwiched_matrix(monkeypatch):
    # J0 from the Kraus terms (post K pre) against the product of the two
    # sandwich matrices and the operator's matrix
    rng = generator(95)
    seen = set()
    for _ in range(40):
        J = random_morphism(rng)
        seen |= _draw_classes(J)
        w1, w2 = faithful(J.profile1, rng), faithful(J.profile2, rng)
        for p, q in ((2, 2), (2, 1), (3, "3/2"), ("inf", 2)):
            S = build_composition(J, w1, w2, p, q)
            got = _classifier_candidate(monkeypatch, S, w1, w2)
            pre = w1.power(S.p.float_reciprocal() / 2)
            post = w2.power(-S.q.float_reciprocal() / 2)
            ref = (compop._sandwich_matrix(post, post) @ S.matrix()
                   @ compop._sandwich_matrix(pre, pre))
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), (J, p, q)
    assert seen == DRAW_CLASSES


def _classified_carriers(rng):
    """(operator, w1, w2, accepted) for composition operators of random
    morphisms at four exponent pairs, and a change-of-weights operator
    classified under other weights than its own (no Jordan map: rejected)."""
    cases = []
    for _ in range(10):
        J = random_morphism(rng)
        w1, w2 = faithful(J.profile1, rng), faithful(J.profile2, rng)
        for p, q in ((2, 2), (2, 1), (3, "3/2"), ("inf", 2)):
            cases.append((build_composition(J, w1, w2, p, q), w1, w2, True))
    h, k = faithful(PROF23, rng), faithful(PROF23, rng)
    cases.append((change_of_weights(h, k, 3, "3/2").operator, faithful(PROF23, rng),
                  faithful(PROF23, rng), False))
    return cases


def test_carried_classification_reads_no_matrix(monkeypatch):
    rng = generator(96)
    cases = _classified_carriers(rng)
    J = random_morphism(rng)
    w1, w2 = faithful(J.profile1, rng), faithful(J.profile2, rng)
    tested = SuperOperator.from_matrix(J.profile1, J.profile2, 2, 1,
                                       build_composition(J, w1, w2, 2, 1).matrix())

    def refuse(self):
        raise AssertionError("the matrix was read")

    monkeypatch.setattr(SuperOperator, "matrix", refuse)
    for S, v1, v2, accepted in cases:
        assert classify_characteristic_preserving(S, v1, v2).accepted is accepted
        assert S._matrix is None
    with pytest.raises(AssertionError, match="the matrix was read"):
        classify_characteristic_preserving(tested, w1, w2)


def test_carried_and_matrix_tested_classifications_agree():
    # the carried J0 comes from the Kraus terms, the tested one from the
    # operator's matrix: same verdict and tiles, unitaries to rounding
    for S, w1, w2, accepted in _classified_carriers(generator(97)):
        tested = SuperOperator.from_matrix(S.domain_profile, S.codomain_profile, S.p, S.q,
                                           S.matrix())
        got = classify_characteristic_preserving(S, w1, w2)
        want = classify_characteristic_preserving(tested, w1, w2)
        assert got.accepted is want.accepted is accepted
        assert got.basis_pairs_checked == want.basis_pairs_checked
        for res in (got, want):
            if accepted:
                assert res.max_projection_residual <= 1e-12
            else:
                assert res.max_projection_residual > compop.CLASSIFY_TOL
        if accepted:
            assert [(t.src, t.dst, t.offset, t.kind) for t in got.morphism.tiles] == \
                [(t.src, t.dst, t.offset, t.kind) for t in want.morphism.tiles]
            for u, v in zip(got.morphism.block_unitaries, want.morphism.block_unitaries):
                np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)


def test_norm_refuses_a_negative_seed():
    # SeedSequence takes no negative entropy; the maximiser path needs the seed
    with pytest.raises(ValueError, match="seed >= 0"):
        operator_norm(identity_operator(PROF2, 3), seed=-1)


def test_classifier_verdict_does_not_depend_on_the_seed():
    # total_dim 13 is past the 4096 diagonal patterns that probing could
    # afford; the exact check decides the same under every seed
    rng = generator(65)
    profile = BlockProfile([1] * 11 + [2])
    w1, w2 = faithful(profile, rng), faithful(profile, rng)
    spec = transpose_morphism(profile)
    cases = [(build_composition(spec, w1, w2, 2, 1), True),
             (_diagonal_compressed(spec, w1, w2, 2, 1), False)]
    for S, accepted in cases:
        results = [classify_characteristic_preserving(S, w1, w2, seed=seed) for seed in range(5)]
        for res in results:
            assert res.accepted is accepted
            assert res.basis_pairs_checked == 15 * 16 // 2
            assert res.max_projection_residual == results[0].max_projection_residual
            if accepted:
                np.testing.assert_array_equal(res.morphism.matrix(), results[0].morphism.matrix())
            else:
                for got, first in zip(res.witness[:2], results[0].witness[:2]):
                    np.testing.assert_array_equal(got.flat(), first.flat())
    # the benchmark's verdict flip builds a result from the four leading fields
    assert ClassifyResult(accepted=True, morphism=None, witness=None,
                          max_projection_residual=0.0).basis_pairs_checked == 0


def _unit_weights(profile):
    return Weight(BlockMatrix.identity(profile))


def test_reject_witness_is_a_projection_whose_image_is_not():
    # noise and diagonal compression break the anticommutator law; a
    # similarity x -> s J(x) s^{-1} keeps it and breaks only J(x*) = J(x)*,
    # and i J breaks both
    rng = generator(69)
    cases = []
    for dims in ([2], [1, 2], [2, 2], [2, 3]):
        profile = BlockProfile(dims)
        spec = random_morphism(rng, profile1=profile, allow_partial=False)
        w1, w2 = faithful(profile, rng), faithful(spec.profile2, rng)
        mat = np.array(build_composition(spec, w1, w2, 2, 1).matrix())
        noise = 0.05 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))
        cases.append((SuperOperator.from_matrix(profile, spec.profile2, 2, 1, mat + noise), w1, w2))
        cases.append((_diagonal_compressed(spec, w1, w2, 2, 1), w1, w2))
        u1, u2 = _unit_weights(profile), _unit_weights(spec.profile2)
        sim = BlockMatrix(spec.profile2, [np.eye(m) + 0.3 * np.triu(np.ones((m, m)), 1)
                                          for m in spec.profile2.dims])
        inv = BlockMatrix(spec.profile2, [np.linalg.inv(b) for b in sim.blocks])
        cases.append((SuperOperator(profile, spec.profile2, 2, 2,
                                    lambda x, J=spec, s=sim, t=inv: s @ J.apply(x) @ t), u1, u2))
        cases.append((SuperOperator.from_matrix(profile, spec.profile2, 2, 2,
                                                1j * spec.matrix()), u1, u2))
    for S, w1, w2 in cases:
        res = classify_characteristic_preserving(S, w1, w2)
        assert not res.accepted and res.max_projection_residual > 1e-7
        e, f, residual = res.witness
        assert (e @ e - e).fro_norm() <= 1e-12 and (e - e.adjoint()).fro_norm() <= 1e-12
        assert e.fro_norm() > 0.5
        off = max((f - f.adjoint()).fro_norm(), (f @ f - f).fro_norm()) / max(1.0, f.fro_norm())
        assert residual == pytest.approx(off, rel=1e-12) and residual > 1e-7


def test_classifier_checks_pairs_across_source_blocks():
    # a -> a_1 + a_2 of two copies of M_n onto one M_n is a Jordan *-morphism
    # on each block, but J(E_u) J(E_v) + J(E_v) J(E_u) != 0 across the blocks
    for n in (1, 2):
        src, dst = BlockProfile([n, n]), BlockProfile([n])
        both = np.hstack([np.eye(n * n)] * 2)
        S = SuperOperator.from_matrix(src, dst, 2, 2, both)
        res = classify_characteristic_preserving(S, _unit_weights(src), _unit_weights(dst))
        assert not res.accepted and res.max_projection_residual == pytest.approx(2.0)
        assert not verify_jordan(S).passed
        for block in (0, 1):
            one = np.zeros_like(both)
            one[:, block * n * n : (block + 1) * n * n] = np.eye(n * n)
            assert verify_jordan(SuperOperator.from_matrix(src, dst, 2, 2, one)).passed


def test_classifier_refuses_weights_off_the_operator_profiles():
    # [2] and [1, 1, 1, 1] have the same coordinate count, so only the
    # profile check stops the products from running on the wrong blocks
    w = Weight.diagonal(PROF2, [0.5, 0.5])
    C = build_composition(identity_morphism(PROF2), w, w, 2, 1)
    other = Weight.diagonal(BlockProfile([1, 1, 1, 1]), [0.25] * 4)
    for w1, w2 in ((other, w), (w, other)):
        with pytest.raises(ProfileMismatch):
            classify_characteristic_preserving(C, w1, w2)


def test_classifier_rejects_conjugate_linear_operator():
    # x -> C(conj x) sends projections to projections and its matrix on the
    # (real) matrix units is that of C, so the classifier could not tell it
    # apart; it never becomes an operator, because the constructor's probe
    # compares the callable with its matrix
    profile = BlockProfile([1, 2])
    w1 = Weight.diagonal(profile, [0.3, 0.5, 0.2])
    spec = random_morphism(generator(48), profile1=profile)
    w2 = Weight.diagonal(spec.profile2, np.linspace(0.5, 1.5, spec.profile2.total_dim))
    C = build_composition(spec, w1, w2, 2, 1)
    with pytest.raises(ProfileMismatch):
        SuperOperator(profile, spec.profile2, 2, 1,
                      lambda x: C.apply(BlockMatrix(x.profile, [b.conj() for b in x.blocks])))


# -- contraction inclusion --------------------------------------------------


def test_contraction_inclusion_identity():
    rng = generator(16)
    w = faithful(PROF2, rng)
    inc = contraction_inclusion(w, w, identity_morphism(PROF2), 2)
    assert inc.constant == pytest.approx(1.0, abs=1e-9)
    est = operator_norm(inc.operator, restarts=3, seed=2)
    assert est.lower_bound <= 2.0 * inc.bound + 1e-6


def test_contraction_inclusion_diagonal_subalgebra():
    # the diagonal of M_2 sits inside M_2 with constant 1 for the trace form
    diag_prof = BlockProfile([1, 1])
    wB = Weight.diagonal(diag_prof, [0.5, 0.5])
    w2 = Weight(BlockMatrix.identity(PROF2) * 0.5)
    inclusion = JordanMorphismSpec(
        diag_prof, PROF2, [Tile(0, 0, 0, "H"), Tile(1, 0, 1, "H")]
    )
    inc = contraction_inclusion(wB, w2, inclusion, 2)
    assert inc.constant == pytest.approx(1.0, abs=1e-9)
    # the embedded copy is the plain inclusion of diagonal L^p
    x = embed(wB, BlockMatrix.diagonal(diag_prof, [1.0, -2.0]), 2).matrix
    out = inc.operator.apply(x)
    assert np.allclose(out.blocks[0], np.diag([1.0, -2.0]) / np.sqrt(2), atol=1e-10)


def test_contraction_inclusion_modular_invariant_block():
    # block-diagonal subalgebra of M_3 with a matching block density: the map
    # agrees with the plain inclusion after the density identification
    prof_b = BlockProfile([2, 1])
    prof3 = BlockProfile([3])
    rng = generator(17)
    blk = psd(prof_b, rng, eps=0.2)
    w2 = Weight(BlockMatrix(prof3, [np.block([
        [blk.blocks[0], np.zeros((2, 1))],
        [np.zeros((1, 2)), blk.blocks[1]],
    ])]))
    wB = Weight(blk)
    inclusion = JordanMorphismSpec(prof_b, prof3, [Tile(0, 0, 0, "H"), Tile(1, 0, 2, "H")])
    inc = contraction_inclusion(wB, w2, inclusion, 3)
    assert inc.constant == pytest.approx(1.0, abs=1e-8)
    a = hermitian(prof_b, rng)
    lhs = inc.operator.apply(embed(wB, a, 3).matrix)
    rhs = embed(w2, inclusion.apply(a), 3).matrix
    assert (lhs - rhs).fro_norm() < 1e-9


def test_contraction_inclusion_constant_above_one():
    # phi2 o inclusion = 3 phi_B on the diagonal of M_2 (and more on a
    # skewed density): C rho_B - k >= 0 holds with the spectral C, and is
    # sharp, so the inequality without C would fail
    diag_prof = BlockProfile([1, 1])
    inclusion = JordanMorphismSpec(diag_prof, PROF2, [Tile(0, 0, 0, "H"), Tile(1, 0, 1, "H")])
    wB = Weight.diagonal(diag_prof, [0.5, 0.5])
    for masses, constant in (([1.5, 1.5], 3.0), ([0.5, 2.0], 4.0)):
        w2 = Weight(BlockMatrix.diagonal(PROF2, masses))
        inc = contraction_inclusion(wB, w2, inclusion, 2)
        assert inc.constant == pytest.approx(constant, rel=1e-12)
        assert inc.bound == pytest.approx(constant ** 0.5, rel=1e-12)


# -- splitting inequality ---------------------------------------------------


def test_splitting_scalar_example():
    one = BlockProfile([1])
    hz = Weight.diagonal(one, [1.0])
    h1z = Weight.diagonal(one, [1.0])
    hJ = Weight.diagonal(one, [2.0])
    rep = splitting_inequality_check(hJ, hz, h1z, 2)
    assert rep.ok
    assert rep.min_gap_eigenvalue == pytest.approx(2 - np.sqrt(2), abs=1e-12)


def test_splitting_disjoint_supports_equality():
    hz = Weight.diagonal(PROF2, [1.0, 0.0])
    h1z = Weight.diagonal(PROF2, [0.0, 1.0])
    hJ = Weight.diagonal(PROF2, [1.0, 1.0])
    rep = splitting_inequality_check(hJ, hz, h1z, 2)
    assert rep.ok
    assert abs(rep.min_gap_eigenvalue) < 1e-12


def test_splitting_commuting_diagonals():
    hz = Weight.diagonal(PROF2, [1.0, 2.0])
    h1z = Weight.diagonal(PROF2, [3.0, 1.0])
    hJ = Weight.diagonal(PROF2, [4.0, 3.0])
    rep = splitting_inequality_check(hJ, hz, h1z, 3)
    assert rep.ok and rep.min_gap_eigenvalue >= -1e-9


def test_splitting_preconditions():
    rng = generator(18)
    hz = Weight.diagonal(PROF2, [1.0, 2.0])
    rotated = Weight(BlockMatrix(PROF2, [np.array([[2.0, 1.0], [1.0, 2.0]])]))
    with pytest.raises(NotCommuting):
        splitting_inequality_check(hz, hz, rotated, 2)
    with pytest.raises(NotSummable):
        splitting_inequality_check(hz, hz, hz, 2)


PROF11 = BlockProfile([1, 1])
W2, W11 = Weight.diagonal(PROF2, [0.5, 0.5]), Weight.diagonal(PROF11, [0.5, 0.5])


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_composition(identity_morphism(PROF2), W11, W2, 2, 1),
     ProfileMismatch, "weights do not match the morphism profiles"),
    (lambda: change_of_weights(W2, W11, 2, 1), ProfileMismatch, "weights live on different profiles"),
    (lambda: identity_operator(PROF2, 2).apply(BlockMatrix.zeros(PROF11)),
     ProfileMismatch, "input does not match the domain profile"),
    (lambda: identity_operator(PROF2, 2).compose(identity_operator(PROF11, 2)),
     ProfileMismatch, "composition profiles do not chain"),
    (lambda: SuperOperator.from_matrix(PROF2, PROF2, 2, 2, np.eye(3)),
     ProfileMismatch, "matrix shape (3, 3), expected (4, 4)"),
    (lambda: operator_norm(identity_operator(PROF2, 2), method="other"),
     ValueError, "unknown method 'other'"),
], ids=["composition-weights", "change-of-weights", "apply", "compose", "matrix-shape",
        "norm-method"])
def test_compop_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
