"""Composition operators between weighted L^p carriers.

Builds the operator C_J : x -> embed(w2, J(unembed(w1, x))), bounds
L^p -> L^q operator norms (an exact singular-value oracle at p = q = 2;
for completely positive maps with q <= p, ||C(1)||_q at p = inf, the Holder
closed form ||C#(1)||_rho at q = 1 and for one Kraus map per matched block
pair, and a certified cone iteration for the others when 1 < q <= 2 <= p;
alternating duality alignment, a lower bound only, for every other map),
solves the change-of-weights problem by that Holder form, recovers
one-sided multipliers from module homomorphisms, and classifies which raw
operators are composition operators, deciding exactly (on the pairs of
matrix units) whether they preserve embedded projections.

An operator is its matrix on flat block coordinates (`SuperOperator`).
Composition operators and the change of weights carry their Kraus terms
x -> K x^(T) K* (`KrausTerms`): their closed-form norms read the terms, and
the matrix is written from them only when read.  Other matrices come in
closed form from `_sandwich_matrix` (x -> L x R) and matrix products; only
a user's callable is materialised, once, where it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    DominationFails,
    NoConvergence,
    NotCommuting,
    NotModuleMap,
    NotSummable,
    ProfileMismatch,
    RatioMismatch,
)
from .exponents import Exponent, holder_complement, ratio, require_order
from .haagerup import ExponentTriple
from .jordan import (
    JordanMorphismSpec,
    Tile,
    jordan_defect,
    linearity_defect,
    materialise,
    pushforward_density,
)
from .matcore import (
    SUPPORT_CUTOFF,
    BlockMatrix,
    BlockProfile,
    KrausTerms,
    _lp_norm,
    block_stacks,
    eigh_groups,
    flat_columns,
    from_eig_groups,
    schatten_norm,
)
from .vnops import Weight, weights_commute

_ONE = Exponent(1)
_TWO = Exponent(2)

# The bounds of an exact norm agree within NORM_RTOL; the cone iteration runs
# until its bounds do.
NORM_RTOL = 1e-12
# Relative rounding allowed in a computed top eigenvalue lambda.  The cone's
# upper bound raises (1 + _CONE_ROUNDING) lambda to the power (p-1)/q, so the
# allowance grows with that power, as the rounding does; a fixed relative
# inflation of the bound would not cover it once (p-1)/q is large.  Holder
# witnesses treat eigenvalues this close to the top as tied.
_CONE_ROUNDING = 64 * np.finfo(float).eps
# A Choi matrix passes as positive semidefinite down to an eigenvalue of
# -_CHOI_TOL times the Frobenius norm of the operator's matrix: room for the
# rounding of its closed-form products.
_CHOI_TOL = 1e-12
BOUND_SLACK = 1e-6    # relative excess of a measured norm over a closed-form bound
CLASSIFY_TOL = 1e-7   # looser than JORDAN_TOL: two embeddings compound their rounding


class SuperOperator:
    """A linear map between block-matrix carriers, tagged with exponents, held as its matrix.

    The one representation is a read-only matrix on flat block coordinates
    (per-block matrix units, dimension sum of n_i^2 on each side): `apply`
    is x -> unflat(M x.flat()).  Those coordinates are orthonormal for the
    Hilbert-Schmidt inner product, so the 2 -> 2 operator norm is the top
    singular value of M.

    The callable constructor materialises `fn` once, from its images of
    the matrix units.  It refuses (ProfileMismatch) images off the codomain
    profile and an `fn` that disagrees with that matrix on a seeded complex
    probe, so a nonlinear or conjugate-linear callable never becomes an
    operator.  `from_matrix` takes the matrix as it is.

    `build_composition` and `ChangeOfWeights.operator` give the operator
    its Kraus terms (`_terms`, a `KrausTerms`; else None): M is written
    from them on first read, and `operator_norm` reads its proofs and
    closed forms from them.  Copies rebuild from the terms, or else from M.
    """

    __slots__ = ("domain_profile", "codomain_profile", "p", "q", "_matrix", "_terms")

    def __init__(self, domain_profile: BlockProfile, codomain_profile: BlockProfile,
                 p, q, fn):
        mat, profile = materialise(fn, domain_profile)
        if profile != codomain_profile:
            raise ProfileMismatch(
                f"images lie on {profile.dims}, the codomain profile is {codomain_profile.dims}"
            )
        self._set(domain_profile, codomain_profile, p, q, mat, None)
        if linearity_defect(fn, self._matrix, domain_profile, 5_040) > 1e-10:
            raise ProfileMismatch("the map disagrees with its matrix on a probe: it is not linear")

    @classmethod
    def from_matrix(cls, domain_profile, codomain_profile, p, q, mat) -> "SuperOperator":
        return cls.__new__(cls)._set(domain_profile, codomain_profile, p, q, mat, None)

    @classmethod
    def _of_terms(cls, p, q, terms: KrausTerms) -> "SuperOperator":
        return cls.__new__(cls)._set(terms.dom, terms.cod, p, q, None, terms)

    def _set(self, domain_profile, codomain_profile, p, q, mat, terms) -> "SuperOperator":
        if mat is not None:
            mat = np.array(mat, dtype=complex)
            expected = (codomain_profile.coord_dim, domain_profile.coord_dim)
            if mat.shape != expected:
                raise ProfileMismatch(f"matrix shape {mat.shape}, expected {expected}")
            mat.setflags(write=False)
        values = (domain_profile, codomain_profile, Exponent(p), Exponent(q), mat, terms)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SuperOperator is immutable")

    def __reduce__(self):
        if self._terms is not None:
            return SuperOperator._of_terms, (self.p, self.q, self._terms)
        return SuperOperator.from_matrix, (self.domain_profile, self.codomain_profile,
                                           self.p, self.q, self._matrix)

    def apply(self, x: BlockMatrix) -> BlockMatrix:
        if x.profile != self.domain_profile:
            raise ProfileMismatch("input does not match the domain profile")
        return BlockMatrix.unflat(self.codomain_profile, self.matrix() @ x.flat())

    def matrix(self) -> np.ndarray:
        """The read-only matrix on flat block coordinates, written from the terms on first read."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", self._terms.matrix())
            self._matrix.setflags(write=False)
        return self._matrix

    def trace_dual(self) -> "SuperOperator":
        """Banach adjoint for the bilinear trace pairing tr(g T(x)).

        Maps L^{q*} to L^{p*}.  With Pi the permutation of flat coordinates
        that transposes every block, tr(g y) = g.flat() . Pi y.flat(), so the
        matrix is Pi_dom M^T Pi_cod.
        """
        dom = self.domain_profile.transpose_index
        cod = self.codomain_profile.transpose_index
        return SuperOperator.from_matrix(
            self.codomain_profile, self.domain_profile,
            self.q.conjugate(), self.p.conjugate(), self.matrix().T[dom][:, cod],
        )

    def compose(self, inner: "SuperOperator") -> "SuperOperator":
        """self after inner: the matrix product."""
        if inner.codomain_profile != self.domain_profile:
            raise ProfileMismatch("composition profiles do not chain")
        return SuperOperator.from_matrix(inner.domain_profile, self.codomain_profile,
                                         inner.p, self.q, self.matrix() @ inner.matrix())

    def __repr__(self):
        return (
            f"SuperOperator(L^{self.p}{self.domain_profile.dims} -> "
            f"L^{self.q}{self.codomain_profile.dims})"
        )


@dataclass(frozen=True)
class NormEstimate:
    """Bounds on an operator norm from the theorem named by `source`, labelled by `status`.

    `lower_bound` is a value the norm attains or exceeds, `upper_bound`
    math.inf when there is none.  A norm is `exact` when the bounds agree
    within NORM_RTOL, `interval` when they do not, and `lower-only` with no
    upper bound.  The sources: `svd` (p = q = 2), `positive-endpoint` (a
    completely positive map at p = inf or q = 1), `holder` (one Kraus map
    per matched block pair, and `change_of_weights`), `cone` and
    `maximiser` (`lower-only`).  The upper bounds of `holder` in
    `operator_norm` and of `cone` carry an allowance of _CONE_ROUNDING
    (64 eps) for rounding; `holder` adds the Choi defects of
    `_single_kraus_slack` only on an operator whose positivity was tested
    from its matrix, not on one that carries its terms (`SuperOperator._terms`),
    whose closed forms come from the terms and agree with the matrix route
    to rounding.  Those of `svd`, `positive-endpoint` and
    `change_of_weights` are the closed form's float value, which can lie a
    few ulps below the norm of the float matrix.

    The work counts `iterations` and `capped` are 0 for `svd`,
    `positive-endpoint` and `holder`.  The cone reports its steps and
    `capped` 1 when its gap did not close.  The maximiser sums `iterations`
    over its restarts (restarts * max_iter exactly when every restart hit
    the cap) and counts in `capped` the restarts still running after
    max_iter steps.
    """

    lower_bound: float
    source: str
    upper_bound: float = math.inf
    iterations: int = 0
    capped: int = 0

    @property
    def status(self) -> str:
        if math.isinf(self.upper_bound):
            return "lower-only"
        if self.upper_bound <= self.lower_bound * (1.0 + NORM_RTOL):
            return "exact"
        return "interval"


def identity_operator(profile: BlockProfile, p, q=None) -> SuperOperator:
    q = p if q is None else q
    return SuperOperator.from_matrix(profile, profile, p, q, np.eye(profile.coord_dim))


def _sandwich_matrix(left: BlockMatrix, right: BlockMatrix) -> np.ndarray:
    """Matrix of x -> left x right on flat block coordinates: blockdiag(kron(L_i, R_i^T))."""
    profile = left.profile
    mat = np.zeros((profile.coord_dim, profile.coord_dim), dtype=complex)
    for d, m, rows in profile.size_groups:
        lb = left.flat()[rows]
        rb = lb if right is left else right.flat()[rows]   # x -> b x b gathers once
        lb, rb = lb.reshape(m, d, 1, d, 1), rb.reshape(m, 1, d, 1, d).swapaxes(2, 4)
        mat[rows[:, :, None], rows[:, None, :]] = (lb * rb).reshape(m, d * d, d * d)
    return mat


def build_composition(J: JordanMorphismSpec, w1: Weight, w2: Weight, p, q) -> SuperOperator:
    """The composition operator embed_q(w2) o J o unembed_p(w1).

    Exact at finite dimension because the symmetric embedding is bijective
    for a faithful weight.  Requires q <= p; the reversed regime is refused.
    With post = k^{1/(2q)} and pre = h^{-1/(2p)}, each tile (frame E) is
    one Kraus term K = post_t E pre_s (post_t E pre_s^T for an A tile), at
    O(n^3) a tile; the operator carries them and writes its matrix on read.
    """
    p, q = Exponent(p), Exponent(q)
    require_order(p, q)
    w1.require_faithful("composition operator (domain weight)")
    w2.require_faithful("composition operator (codomain weight)")
    if w1.profile != J.profile1 or w2.profile != J.profile2:
        raise ProfileMismatch("weights do not match the morphism profiles")
    # h^0 = identity for faithful weights, so the p or q = inf cases need no branch
    pre = w1.power(-p.float_reciprocal() / 2)
    post = w2.power(q.float_reciprocal() / 2)
    return SuperOperator._of_terms(p, q, J.kraus_terms().sandwich(post, pre))


# ---------------------------------------------------------------------------
# Operator norm estimation.
# ---------------------------------------------------------------------------


def _dual_maximizer(profile: BlockProfile, cols: np.ndarray, s: Exponent):
    """Per-column (norms, ys) for flat coordinate columns z_j of shape (coord_dim, k).

    Column j of ys is a norming element y_j for z_j: ||y_j||_{s*} = 1 and
    Re tr(y_j* z_j) = ||z_j||_s; a zero column gets norm 0 and y_j = 0.  For
    finite s, y_j is u |z_j|^{s-1} normalised (the s = 1 case degenerates to
    u times the support projection).  For s = inf the mass concentrates on
    the top singular subspace: u P_top / tr(P_top).  Both are written from
    the SVD z = W S V* as W f(S) V*, with one svd call per block size on the
    (k, m, d, d) stack of its m blocks in all columns.  A 1x1 block needs no
    svd (z = (z/|z|) |z| 1), and at s = 2 the norming element is z/||z||_2.
    """
    if s == _TWO:
        norms = np.linalg.norm(cols, axis=0)
        return norms, cols * (1.0 / np.where(norms == 0.0, 1.0, norms))
    k = cols.shape[1]
    svds = []   # (rows, W, S, V*) per size, S of shape (k, m, d); 1x1: W the phase, V* None
    for d, m, rows in profile.size_groups:
        z = cols.T[:, rows].reshape(k, m, d, d)
        if d == 1:
            sv = np.abs(z[..., 0])
            svds.append((rows, z[..., 0] / np.where(sv == 0.0, 1.0, sv), sv, None))
        else:
            svds.append((rows, *np.linalg.svd(z)))
    all_s = np.concatenate([sv.reshape(k, sv.shape[1] * sv.shape[2]) for _, _, sv, _ in svds],
                           axis=-1)
    top = np.max(all_s, axis=-1, keepdims=True)
    if s.is_inf:
        norms = top[:, 0]
        on = (all_s >= top * (1.0 - 1e-12)) & (top != 0.0)
        f_of_s = on / np.maximum(np.sum(on, axis=-1, keepdims=True), 1)
    else:
        # ||z||_s = top c^{1/s} with c = sum (S/top)^s, and the normalised
        # |z|^{s-1} is (S/top)^{s-1} c^{1/s-1}: factoring out top, not the
        # norm, keeps the top ratios exact at a huge s.  The support
        # convention covers s == 1.
        sf = float(s)
        ratio = all_s / np.where(top == 0.0, 1.0, top)
        c = np.sum(ratio ** sf, axis=-1, keepdims=True)
        norms = (top * c ** (1.0 / sf))[:, 0]
        scale = np.where(c == 0.0, 1.0, c) ** (1.0 / sf - 1.0)
        f_of_s = np.where(all_s > 1e-14 * top, ratio ** (sf - 1.0) * scale, 0.0)
    ys, at = np.empty((k, profile.coord_dim), dtype=complex), 0
    for rows, w, sv, vh in svds:
        n = sv.shape[1] * sv.shape[2]
        f = f_of_s[:, at : at + n].reshape(sv.shape)
        at += n
        y = w * f if vh is None else (w * f[..., None, :]) @ vh
        ys[:, rows] = y.reshape(k, *rows.shape)
    return norms, ys.T


@lru_cache(maxsize=64)
def _start_index(profile: BlockProfile) -> tuple:
    """Read-only (real, imag) positions of each flat coordinate in one draw of 2 * coord_dim
    normals, block by block the d*d real parts and then the d*d imaginary parts."""
    sizes = [d * d for d in profile]
    offset = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    real = np.arange(profile.coord_dim) + offset
    imag = real + np.repeat(sizes, sizes)
    real.setflags(write=False)
    imag.setflags(write=False)
    return real, imag


def _random_start(profile: BlockProfile, stream) -> np.ndarray:
    """Flat coordinates of a complex Gaussian element drawn from one seed stream, in one call."""
    z = np.random.default_rng(stream).standard_normal(2 * profile.coord_dim)
    real, imag = _start_index(profile)
    return z[real] + 1j * z[imag]


def _choi_stacks(mat: np.ndarray, dom: BlockProfile, cod: BlockProfile) -> tuple | None:
    """(||mat||_F, the Choi matrices of the map with matrix `mat` as (n, m, stack) per size pair)
    if the map is completely positive, tested exactly; None if it is not.

    For a source block s of size n and a destination block t of size m, with
    B = mat[rows of t, cols of s], the Choi matrix sum_ij E_ij (x) C(E_ij) is
    B.reshape(m, m, n, n).transpose(2, 0, 3, 1).reshape(n*m, n*m), and C is
    completely positive iff every one of them is positive semidefinite.  The
    Choi matrices are stacked per (n, m), entry k of a stack for the pair
    (k // K, k % K) of the blocks of sizes m and n, K blocks of size n; each
    stack passes its Hermiticity defect and one Cholesky factorisation of
    Choi + tol I, tol = _CHOI_TOL times the Frobenius norm of mat, or C
    fails.  So the test is exact for eigenvalues above -tol and needs no
    eigensolver.  The zero map passes, with no stacks.
    """
    scale = float(np.linalg.norm(mat))
    if scale == 0.0:
        return scale, []
    tol, stacks = _CHOI_TOL * scale, []
    for n, ks, src in dom.size_groups:
        for m, kt, dst in cod.size_groups:
            pairs = mat[dst[:, None, :, None], src[None, :, None, :]].reshape(kt * ks, m, m, n, n)
            choi = pairs.transpose(0, 3, 1, 4, 2).reshape(kt * ks, n * m, n * m)
            if np.linalg.norm(choi - choi.conj().swapaxes(1, 2)) > tol:
                return None
            shifted = choi.copy()
            shifted.reshape(len(choi), n * m * n * m)[:, :: n * m + 1] += tol   # the diagonals
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                return None
            stacks.append((n, m, choi))
    return scale, stacks


def _completely_positive_map(C: SuperOperator):
    """Callables (image, unit, matrix, slack) of C, else of C o transpose, if completely positive.

    Transposition is a Schatten isometry, so C o transpose has C's norms;
    None if neither is.  `unit(adjoint)` gives C(1), or C#(1).  Carried
    terms x -> K x^(T) K* prove it when every term on a source block
    larger than 1x1 has one kind (C o transpose, every kind flipped, for
    kind A); `slack()` is then 0.0 if no block is in two terms (one Kraus
    map per block pair over a matching), else None.  Any other operator's
    matrix is tested (`_choi_stacks`; `_single_kraus_slack`).
    """
    terms = C._terms
    if terms is not None:
        kinds, srcs, dsts = set(), [], []
        for kind, src, dst, K in terms.groups:
            if K.shape[2] > 1:
                kinds.add(kind)
            srcs += src[:, 0].tolist()   # a block's first flat coordinate names it
            dsts += dst[:, 0].tolist()
        if len(kinds) > 1:
            return None
        flip = kinds == {"A"}
        if flip:
            terms = KrausTerms(terms.dom, terms.cod, [("H" if kind == "A" else "A", *rest)
                                                      for kind, *rest in terms.groups])
        single = len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)
        return (terms.image, terms.unit_image,
                lambda: C.matrix()[:, terms.dom.transpose_index] if flip else C.matrix(),
                lambda: 0.0 if single else None)
    mat, dom, cod = C.matrix(), C.domain_profile, C.codomain_profile
    for cand in (mat, mat[:, dom.transpose_index]):
        choi = _choi_stacks(cand, dom, cod)
        if choi is not None:
            return (cand.__matmul__, lambda adjoint: (cand.conj().T if adjoint else cand)
                    @ BlockMatrix.identity(cod if adjoint else dom).flat(),
                    lambda: cand, lambda: _single_kraus_slack(choi, dom))
    return None


def _holder_form(unit: tuple, p: Exponent, rho: Exponent) -> tuple:
    """(||P||_rho, f, ||x||_p) from the eigensystem `unit` (`eigh_groups`) of P = C#(1) >= 0.

    rho is the Holder complement of (p, q): 1/rho = 1/q - 1/p.  A map that
    sends each source block to one destination block as x -> A x A* has
    C#(1) = A*A there, and Holder gives
    ||A x A*||_q <= ||A*A||_rho ||x||_p, so over the direct sum ||C|| <=
    ||C#(1)||_rho, attained at the witness x = (P/top)^{rho/p}, top the
    largest eigenvalue: x = V diag(f) V* per size group.  The support
    convention makes x the support projection at p = inf, and at rho = inf
    (p = q) the projection on the eigenvalues within _CONE_ROUNDING of top.
    The spectrum is clipped at 0 and divided by top before the power: a huge
    rho/p (p just above q) cannot overflow, and every value scales with P.
    """
    lams = [np.maximum(lam, 0.0) for lam in unit[0]]
    spectrum = np.concatenate([lam.ravel() for lam in lams])
    top = float(spectrum.max())
    if top == 0.0:
        return 0.0, lams, 0.0
    if rho.is_inf:
        f = [(lam >= (1.0 - _CONE_ROUNDING) * top).astype(float) for lam in lams]
    else:
        power = _witness_power(rho, p)
        f = [np.where(lam > SUPPORT_CUTOFF * top, (lam / top) ** power, 0.0) for lam in lams]
    return (float(_lp_norm(spectrum, rho)), f,
            float(_lp_norm(np.concatenate([v.ravel() for v in f]), p)))


# float(rho/p), the power of the Holder witness, once per exponent pair
_witness_power = lru_cache(maxsize=64)(lambda rho, p: float(rho.fraction * p.reciprocal()))


def _single_kraus_slack(cp: tuple, dom: BlockProfile) -> float | None:
    """The slack of `_single_kraus_norm` if the completely positive map whose
    `_choi_stacks` are `cp` is one Kraus map per block pair over a matching
    of blocks; None if it is not.

    With tol = _CHOI_TOL ||mat||_F, a pair of the Choi stacks is live when
    tr Choi > tol; the map qualifies when no block is in two live pairs and
    each live Choi is rank one up to tr - ||Choi||_F^2/tr <= tol, a bound
    on its trace beyond the top eigenvalue.  The slack sums those defects
    and the traces of the other pairs, as a completely positive map with
    Choi matrix R has norm at most tr R.
    """
    scale, stacks = cp
    tol, slack, src_hits, dst_hits = _CHOI_TOL * scale, 0.0, {}, {}
    for n, m, choi in stacks:
        trace = choi.diagonal(axis1=1, axis2=2).sum(axis=-1).real
        on = trace > tol
        # trace - ||Choi||_F^2 / trace on the live pairs; at most trace <= tol on the others
        defect = trace - np.einsum("kij,kij->k", choi, choi.conj()).real / np.maximum(trace, tol)
        if (defect > tol).any():
            return None
        slack += float(np.add.reduce(np.where(on, np.maximum(defect, 0.0), 0.0))
                       + np.add.reduce(np.where(on, 0.0, trace)))
        live = on.reshape(-1, dom.dims.count(n))   # (destination, source) blocks of sizes (m, n)
        src_hits[n] = src_hits.get(n, 0) + live.sum(axis=0)
        dst_hits[m] = dst_hits.get(m, 0) + live.sum(axis=1)
    if any(hits.max() > 1 for hits in (*src_hits.values(), *dst_hits.values())):
        return None
    return slack


def _single_kraus_norm(image, dom: BlockProfile, cod: BlockProfile,
                       p: Exponent, q: Exponent, slack: float, unit: tuple) -> NormEstimate:
    """The `holder` estimate of a completely positive map with one Kraus map per block pair
    over a matching of blocks, q <= p.

    `unit` is the eigensystem of C#(1), and the bound and witness are
    `_holder_form`'s.  The lower value is the witness's ||Cx||_q / ||x||_p,
    Cx = image(x.flat()); the upper bound is (1 + _CONE_ROUNDING)
    ||C#(1)||_rho plus `slack`: `_single_kraus_slack` for a map tested
    from its matrix, 0 for one that carries its terms.
    """
    bound, f, x_norm = _holder_form(unit, p, holder_complement(p, q))
    x = from_eig_groups(dom, unit[1], f).flat()
    lower = schatten_norm(BlockMatrix._of_flat(cod, image(x)), q) / x_norm if bound else 0.0
    return NormEstimate(lower, "holder", (1.0 + _CONE_ROUNDING) * bound + slack)


def _cone_norm(mat: np.ndarray, dom: BlockProfile, cod: BlockProfile,
               p: Exponent, q: Exponent, unit: tuple, max_iter: int) -> NormEstimate:
    """The `cone` estimate of a completely positive map, 1 < q <= 2 <= p < inf.

    The step is x <- F(x) / ||F(x)||_p with F(x) = [C#((Cx)^{q-1})]^{1/(p-1)},
    order-preserving on the positive cone and homogeneous of degree
    d = (q-1)/(p-1) < 1.  It starts from x = e, the support of C#(1): every
    positive maximiser lives under e, and x stays invertible on e, so x, F(x)
    and x^{-1/2} are all taken on e (the top rank(e) eigenvalues of each
    block), read from `unit`, the eigensystem of C#(1).  Each step gives the
    lower value ||Cx||_q / ||x||_p and the upper bound
    (lambda ||x||_p^{1-d})^{(p-1)/q}, lambda the top eigenvalue of
    x^{-1/2} F(x) x^{-1/2}: a positive maximiser x* satisfies F(x*) =
    ||C||^{q/(p-1)} x*, and comparing x* with its least multiple of x above
    it bounds ||C||.  lambda is inflated by _CONE_ROUNDING before the power.
    The iteration stops once the smallest upper bound is within NORM_RTOL
    of the largest lower value; after max_iter steps; or when F(x) loses
    rank on e in floating point (ill-conditioned maps), so that the next
    x^{-1/2} would not exist.  The last two leave the gap open (`capped` 1).

    One eigh per block size and spectral step: (Cx)^{q-1} (none at q = 2),
    F(x), whose eigensystem is the next x's, and lambda.
    """
    mat_h = mat.conj().T
    pf, qf = float(p), float(q)
    d = float((q.fraction - 1) / (p.fraction - 1))
    top = max(float(np.max(lam)) for lam in unit[0])
    if top <= 0.0:                      # C#(1) = 0, so C = 0
        return NormEstimate(0.0, "cone", 0.0)
    on = [lam > SUPPORT_CUTOFF * top for lam in unit[0]]
    vecs, xi = unit[1], [mask.astype(float) for mask in on]
    x_norm = float(sum(int(np.sum(mask)) for mask in on)) ** (1.0 / pf)
    lower, upper = 0.0, math.inf
    for step in range(1, max_iter + 1):
        y = mat @ from_eig_groups(dom, vecs, xi).flat()
        if q == _TWO:
            z, y_norm = y, float(np.linalg.norm(y))
        else:
            lams, ws = eigh_groups(cod, y)
            lams = [np.maximum(lam, 0.0) for lam in lams]
            y_norm = float(_lp_norm(np.concatenate([lam.ravel() for lam in lams]), q))
            z = from_eig_groups(cod, ws, [lam ** (qf - 1.0) for lam in lams]).flat()
        lower = max(lower, y_norm / x_norm)
        lams, ws = eigh_groups(dom, mat_h @ z)
        phi = [np.where(mask, np.maximum(lam, 0.0), 0.0) ** (1.0 / (pf - 1.0))
               for lam, mask in zip(lams, on)]
        # x^{-1/2} F x^{-1/2} = T T* in the eigenbasis of x, T = xi^{-1/2} V* W phi^{1/2}
        lam_top = 0.0
        for V, f, g, mask, W in zip(vecs, xi, phi, on, ws):
            inv_root = np.where(mask, 1.0 / np.sqrt(np.where(mask, f, 1.0)), 0.0)
            T = (V.conj().swapaxes(1, 2) @ W) * np.sqrt(g)[:, None, :] * inv_root[:, :, None]
            lam_top = max(lam_top, float(np.max(np.linalg.eigvalsh(T @ T.conj().swapaxes(1, 2)))))
        upper = min(upper, ((1.0 + _CONE_ROUNDING) * lam_top * x_norm ** (1.0 - d))
                    ** ((pf - 1.0) / qf))
        closed = upper <= lower * (1.0 + NORM_RTOL)
        phi_top = max(float(np.max(g)) for g in phi)
        if closed or any(np.any(e & (g <= SUPPORT_CUTOFF * phi_top)) for g, e in zip(phi, on)):
            break
        f_norm = float(_lp_norm(np.concatenate([g.ravel() for g in phi]), p))
        vecs, xi, x_norm = ws, [g / f_norm for g in phi], 1.0
    return NormEstimate(lower, "cone", upper, iterations=step, capped=int(not closed))


def operator_norm(C: SuperOperator, restarts: int = 16, max_iter: int = 200,
                  seed: int = 0, method: str = "auto") -> NormEstimate:
    """Estimate the L^p -> L^q norm of C.

    "auto" takes, in order (the `source` of the estimate in brackets):
    - p = q = 2: the norm is the largest singular value of the matrix
      (exact; `svd`);
    - q <= p, when C or C o transpose is completely positive, as C's
      Kraus terms prove or else `_choi_stacks` tests on the matrix
      (`_completely_positive_map`).  Transposition is a Schatten isometry,
      and such a map attains its norm on positive elements (Audenaert, LAA
      430, 2009).  C(1), C#(1) and the witness's image come from the terms
      when C carries them, else from the matrix (C# = mat^H).
      At p = inf the norm is ||C(1)||_q, attained at 1
      (`positive-endpoint`).  Else one eigh per block size of C#(1)
      serves the rest: the Holder closed form ||C#(1)||_rho,
      1/rho = 1/q - 1/p (`_holder_form`), is the norm of every such map at
      q = 1, rho = p* (tr C(x) = tr(x C#(1)) for x >= 0;
      `positive-endpoint`), and of one Kraus map per block pair over a
      matching of blocks (multiplicity-free H-only or A-only composition
      operators, the change of weights: read from the terms, or else
      tested on the Choi stacks by `_single_kraus_slack`;
      `_single_kraus_norm` evaluates the witness; `holder`), all exact;
      then, if 1 < q <= 2 <= p, the cone
      iteration (`_cone_norm`; `cone`): a lower value and an upper bound,
      exact once they meet and an interval if they have not met after
      max_iter steps;
    - every other map: the alternating maximiser, a lower bound only (`maximiser`).
    "alternating" is the maximiser alone.  `restarts` and `seed` serve
    the maximiser only.

    The maximiser alternates duality-aligned updates on both sides of
    Re tr(y* C x) over the unit balls; the objective is monotone and the
    result is the best stationary value over seeded restarts.  The restarts
    start from seed streams SeedSequence(seed).spawn(restarts) and advance
    together as the columns of one (coord_dim, restarts) array of flat
    block coordinates.  Each restart stops on its own, after max_iter
    steps, on a gain below 1e-10 or on a zero dual; only the columns still
    running are multiplied.  The restarts still running after max_iter
    steps are reported as `capped`.
    """
    if method not in ("auto", "alternating"):
        raise ValueError(f"unknown method {method!r}")
    if restarts < 1 or max_iter < 1 or seed < 0:
        raise ValueError(f"need restarts >= 1, max_iter >= 1 and seed >= 0, "
                         f"got {restarts}, {max_iter} and {seed}")
    p, q = C.p, C.q
    if method == "auto" and p == _TWO and q == _TWO:
        top = float(np.linalg.svd(C.matrix(), compute_uv=False)[0])
        return NormEstimate(top, "svd", top)
    dom, cod = C.domain_profile, C.codomain_profile
    positive = _completely_positive_map(C) if method == "auto" and q <= p else None
    if positive is not None:
        image, unit_image, matrix, slack = positive
        if p.is_inf:
            value = schatten_norm(BlockMatrix._of_flat(cod, unit_image(False)), q)
            return NormEstimate(value, "positive-endpoint", value)
        unit = eigh_groups(dom, unit_image(True))
        if q == _ONE:
            value = _holder_form(unit, p, holder_complement(p, q))[0]
            return NormEstimate(value, "positive-endpoint", value)
        if (slack := slack()) is not None:
            return _single_kraus_norm(image, dom, cod, p, q, slack, unit)
        if _ONE < q <= _TWO <= p:
            return _cone_norm(matrix(), dom, cod, p, q, unit, max_iter)
    mat = C.matrix()
    mat_h = mat.conj().T
    p_star = p.conjugate()
    X = np.stack([_random_start(dom, stream)
                  for stream in np.random.SeedSequence(seed).spawn(restarts)], axis=1)
    xn, _ = _dual_maximizer(dom, X, p)
    active = np.flatnonzero(xn != 0.0)
    X = X[:, active] * (1.0 / xn[active])
    current = np.zeros(restarts)
    total_iters = 0
    for _ in range(max_iter):
        if not active.size:
            break
        total_iters += active.size
        val, Y = _dual_maximizer(cod, mat @ X, q)
        live = val != 0.0
        active, val, Y = active[live], val[live], Y[:, live]
        val2, X = _dual_maximizer(dom, mat_h @ Y, p_star)
        best = np.maximum(val, val2)
        gain = best - current[active]
        current[active] = np.maximum(best, current[active])
        going = (val2 != 0.0) & ~(gain < 1e-10)
        active, X = active[going], X[:, going]
    return NormEstimate(float(np.max(current)), "maximiser", iterations=total_iters,
                        capped=int(active.size))


# ---------------------------------------------------------------------------
# Bounded change of weights.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChangeOfWeights:
    """Connecting element, exact norm, the witness attaining it and the induced map.

    `operator`, x -> d x d*, is built on first read from `terms` (K = d_s).
    """

    d: BlockMatrix
    terms: KrausTerms = field(repr=False, compare=False)
    bound: float
    norm_estimate: NormEstimate
    witness: BlockMatrix
    triple: ExponentTriple

    @cached_property
    def operator(self) -> SuperOperator:
        return SuperOperator._of_terms(self.triple.p, self.triple.q, self.terms)


def change_of_weights(w: Weight, w0: Weight, p, q) -> ChangeOfWeights:
    """Solve the change-of-weights problem from w (density h) to w0 (density k).

    The connecting element d = k^{1/(2q)} h^{-1/(2p)} satisfies
    |d h^{1/(2p)}|^2 = k^{1/q} exactly, and the induced map
    x -> d x d* (embed_p(w, a) -> embed_q(w0, eae), e the support of w0)
    has norm ||  |d|^2 ||_r = ||d||_{2r}^2 for the Holder complement r: the
    Holder closed form of this single-Kraus map (terms K = d_s), C#(1) = d*d.
    Bound and witness come from one eigh per block size of d*d (`_holder_form`):
    x = (d*d/t)^{r/p}, t the top eigenvalue (support convention: the
    support projection at p = inf), the top eigenprojection at r = inf.
    NoConvergence if the witness's value ||d x d*||_q / ||x||_p falls 1e-9
    relative below the bound or BOUND_SLACK relative above it.  `bound` is
    the closed form's float value, with no allowance for rounding: it can
    lie a few ulps below the norm of the float operator.  `norm_estimate`
    is the `holder` estimate with the witness's value and `bound`.
    """
    p, q = Exponent(p), Exponent(q)
    require_order(p, q)
    w.require_faithful("change of weights")
    if w.profile != w0.profile:
        raise ProfileMismatch("weights live on different profiles")
    triple = ExponentTriple.from_pq(p, q)
    half_out = w0.power(q.float_reciprocal() / 2)   # k^{1/(2q)}; support proj at q = inf
    half_in = w.power(-p.float_reciprocal() / 2)    # h^{-1/(2p)}; identity at p = inf
    d, profile = half_out @ half_in, w.profile
    terms = KrausTerms(profile, profile, [("H", rows, rows, d.flat()[rows].reshape(m, n, n))
                                          for n, m, rows in profile.size_groups])
    unit = eigh_groups(profile, terms.unit_image(adjoint=True))
    bound, f, x_norm = _holder_form(unit, p, triple.r)
    witness = from_eig_groups(profile, unit[1], f)
    image = BlockMatrix._of_flat(profile, terms.image(witness.flat()))
    value = schatten_norm(image, q) / x_norm if bound else 0.0
    if not bound * (1.0 - 1e-9) <= value <= bound * (1.0 + BOUND_SLACK):
        raise NoConvergence(f"witness attains {value:.15g}, the bound is {bound:.15g}")
    return ChangeOfWeights(d=d, terms=terms, bound=bound,
                           norm_estimate=NormEstimate(value, "holder", bound),
                           witness=witness, triple=triple)


@dataclass(frozen=True)
class ScaleEntry:
    p: Exponent
    q: Exponent
    bound: float
    measured: float
    ok: bool


@dataclass(frozen=True)
class ScaleReport:
    ratio: Exponent
    entries: tuple

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def change_of_weights_scale(w: Weight, w0: Weight, r, sample_pairs) -> ScaleReport:
    """Run the change of weights along a whole scale of pairs with p/q fixed.

    Every pair must realise the ratio exactly; each entry reports the bound
    and the value its witness attains, so `measured` equals `bound` to
    rounding (finite bounds are automatic here).
    """
    r = Exponent(r)
    entries = []
    for p, q in sample_pairs:
        p, q = Exponent(p), Exponent(q)
        if ratio(p, q) != r:
            raise RatioMismatch(f"pair ({p}, {q}) does not realise ratio {r}")
        cw = change_of_weights(w, w0, p, q)
        entries.append(ScaleEntry(
            p=p, q=q, bound=cw.bound,
            measured=cw.norm_estimate.lower_bound,
            ok=cw.norm_estimate.lower_bound <= cw.bound * (1.0 + BOUND_SLACK),
        ))
    return ScaleReport(ratio=r, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Module homomorphisms and multiplier recovery.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierRecovery:
    multiplier: BlockMatrix
    residual: float
    tolerance: float


def _recover_multiplier(T: SuperOperator, w: Weight, sides) -> MultiplierRecovery:
    """Recover c with T(x) = c' x c''; sides(c) gives (c', c''): (c, 1) or (1, c).

    With mul(c, x) = c' x c'', c = mul(T(h^{1/p}), h^{-1/p}).  The module
    property is then checked on mul(h^{1/p}, E) for every matrix unit E
    at once: the residuals are the column norms of T.matrix() S - S_c S,
    where S and S_c are the `_sandwich_matrix` of x -> mul(h^{1/p}, x) and
    of x -> mul(c, x).  The recovery is refused (NotModuleMap, witness the
    first unit with the largest residual) if that residual exceeds the
    tolerance.
    """
    w.require_faithful("multiplier recovery")
    hp = w.power(T.p.reciprocal())
    hp_inv = w.power(-T.p.reciprocal())
    left, right = sides(T.apply(hp))
    c = left @ hp_inv @ right
    scale = (1.0 + c.fro_norm()) * max(1.0, hp.fro_norm())
    tolerance = 1e-8 * scale
    S = _sandwich_matrix(*sides(hp))
    residuals = np.linalg.norm(T.matrix() @ S - _sandwich_matrix(*sides(c)) @ S, axis=0)
    k = int(np.argmax(residuals))
    worst = float(residuals[k])
    if worst > tolerance:
        raise NotModuleMap(worst, tolerance,
                           witness=BlockMatrix.unflat(w.profile, np.eye(w.profile.coord_dim)[k]))
    return MultiplierRecovery(multiplier=c, residual=worst, tolerance=tolerance)


def recover_left_multiplier(T: SuperOperator, w: Weight) -> MultiplierRecovery:
    """Recover c with T(x) = c x from a right-module homomorphism.

    c = T(h^{1/p}) h^{-1/p}; the right-module property is then checked on
    h^{1/p} a for every matrix unit a and the recovery refused
    (NotModuleMap) if the residual exceeds the tolerance.
    """
    return _recover_multiplier(T, w, lambda c: (c, BlockMatrix.identity(c.profile)))


def recover_right_multiplier(T: SuperOperator, w: Weight) -> MultiplierRecovery:
    """Recover c with T(x) = x c from a left-module homomorphism."""
    return _recover_multiplier(T, w, lambda c: (BlockMatrix.identity(c.profile), c))


def left_multiplication(profile: BlockProfile, c: BlockMatrix, p, q) -> SuperOperator:
    if c.profile != profile:
        raise ProfileMismatch("the multiplier does not live on the operator's profile")
    return SuperOperator.from_matrix(profile, profile, p, q,
                                     _sandwich_matrix(c, BlockMatrix.identity(profile)))


# ---------------------------------------------------------------------------
# Characteristic-function classifier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    """Verdict of the classifier.

    `max_projection_residual` holds the worst residual of the Jordan laws
    over the pairs of source matrix units (`jordan_defect`), on accepts and
    rejects alike; its last digits depend on that check's row chunk size
    and on the BLAS build.  `basis_pairs_checked` counts those pairs,
    N(N+1)/2 for N source matrix units; 0 when not recorded.  A reject's
    `witness` is (projection e, image, residual): e is a projection of the
    source algebra whose image is farthest from a projection
    (`_projection_witness`), and the residual is
    max(||f - f*||_2, ||f^2 - f||_2) / max(1, ||f||_2) for that image f.
    """

    accepted: bool
    morphism: JordanMorphismSpec | None
    witness: tuple | None
    max_projection_residual: float
    basis_pairs_checked: int = 0

    @property
    def verdict(self) -> str:
        return "ACCEPT" if self.accepted else "REJECT"


def _projection_witness(J0: np.ndarray, profile1: BlockProfile, profile2: BlockProfile,
                        u: int, v: int) -> tuple:
    """(projection e, J0 e, residual) from the pair (u, v) of source matrix units.

    E_u and E_v are combinations of the Hermitian basis elements E_ii,
    E_ij + E_ji and i(E_ij - E_ji).  If J(E_ji) != J(E_ij)* (then u == v),
    J(c) is not Hermitian for one part c of E_u; if the anticommutator law
    fails on (E_u, E_v), it fails on a pair (a, b) of their parts, and by
    polarisation J(c)^2 != J(c^2) for one c in {a, b, a + b}.  Of these c the
    one with the largest defect is kept.  If J sent each of c's spectral
    projections, and each sum of two of them, to a projection, those images
    would be mutually orthogonal projections, so J(c) would be Hermitian
    with J(c)^2 = J(c^2).  The witness is the single or pair sum whose image
    is farthest from a projection.
    """
    adj, eye = profile1.transpose_index, np.eye(profile1.coord_dim)

    def parts(k):
        e, f = eye[k], eye[adj[k]]
        return [e] if adj[k] == k else [e + f, 1j * (e - f)]

    def defects(F, G):
        """Per column: max(||f - f*||_2, ||f^2 - g||_2) for images f in F, targets g in G."""
        stacks = block_stacks(profile2, F)
        return np.maximum(
            np.linalg.norm(flat_columns([f - f.conj().swapaxes(1, 2) for f in stacks]), axis=0),
            np.linalg.norm(flat_columns([f @ f for f in stacks]) - G, axis=0))

    a, b = parts(u), parts(v)
    C = np.column_stack(a + b + [x + y for x in a for y in b])
    squares = flat_columns([x @ x for x in block_stacks(profile1, C)])
    c = BlockMatrix.unflat(profile1, C[:, np.argmax(defects(J0 @ C, J0 @ squares))])
    lams, vecs = eigh_groups(profile1, c.hermitized().flat())
    values = np.sort(np.concatenate([lam.ravel() for lam in lams]))
    levels = values[np.concatenate([[True], np.diff(values) > 1e-9])]
    spectral = [from_eig_groups(profile1, vecs, [(np.abs(lam - level) <= 1e-9).astype(float)
                                                 for lam in lams]).flat() for level in levels]
    E = np.column_stack(spectral + [x + y for i, x in enumerate(spectral)
                                    for y in spectral[i + 1 :]])
    F = J0 @ E
    residuals = defects(F, F) / np.maximum(1.0, np.linalg.norm(F, axis=0))
    k = int(np.argmax(residuals))
    return (BlockMatrix.unflat(profile1, E[:, k]), BlockMatrix.unflat(profile2, F[:, k]),
            float(residuals[k]))


def _pivot_columns(P: np.ndarray) -> np.ndarray:
    """Columns of a (numerical) projection P that span its range, fixed by P alone.

    The rank is the rounded trace (rank 0: an (m, 0) array).  Pivoted
    Cholesky picks that many columns of P, each time the first index within
    1e-9 of the largest remaining diagonal.  Each step is a function of P,
    so a rounding-level change of P moves the columns at rounding level
    only; eigenvectors would carry phases, and a basis of the degenerate
    eigenspace, chosen by the rounding noise.
    """
    rank = int(round(P.trace().real))   # the trace of P's Hermitian part H, exactly
    if not rank:
        return np.zeros((len(P), 0), dtype=complex)
    H = (P + P.conj().T) / 2
    R, picked = H, []
    for _ in range(rank):
        diag = R.diagonal().real
        j = int((diag >= diag.max() - 1e-9).argmax())
        picked.append(j)
        if len(picked) < rank:   # nothing reads R after the last pick
            R = R - R[:, j, None] * R[j] / diag[j]
    return H[:, picked]


def _reconstruct_tiles(J0: np.ndarray, profile1: BlockProfile, profile2: BlockProfile,
                       tol: float):
    """Factor a verified Jordan map into tiles plus per-destination unitaries.

    J0 is the map's matrix: column k holds the image of the k-th matrix
    unit.  For source block s (size n) and destination block d (size m),
    F = J0[rows of d, columns of s].T.reshape(n, n, m, m) holds J(E_ij) in
    block d as F[i, j]; an (s, d) pair with ||F|| <= tol is skipped.  For
    i != j the multiplicative (H) part of J(E_ij) is J(E_ii) J(E_ij) and the
    antimultiplicative (A) part is J(E_ij) J(E_ii).  The H extractor is the
    projection X X* onto the first frame columns of the H copies, X the H
    part of J(E_12), and its maps are the H parts of J(E_i1); the A
    extractor is Y* Y, Y the A part of J(E_12), and its maps are the A
    parts of J(E_1l).  A 1x1 source is the H case with extractor J(E_11)
    and no maps.  Each `_pivot_columns` column x of an extractor gives one
    tile, with columns x and the maps applied to x (one stacked product
    over all x).  Block d's tile columns are stacked and orthonormalised
    once, W = `polar(stack)`; when they do not fill the block, its unitary
    is W followed by `polar(_pivot_columns(1 - W W*))`: unitary to rounding
    also for a J0 a hair off a Jordan map, and for an exact one
    (block-diagonal Gram) each tile's frame is that of its own extractor.
    It depends on J0 only, not on the rounding inside an eigensolver or a QR.
    """
    def polar(X):  # X (X*X)^{-1/2}, the orthonormal frame nearest to X (Fan & Hoffman 1955)
        lam, v = np.linalg.eigh(X.conj().T @ X)
        return X @ (v / np.sqrt(lam)) @ v.conj().T

    src_at = list(accumulate([n * n for n in profile1.dims], initial=0))
    dst_at = list(accumulate([m * m for m in profile2.dims], initial=0))
    tiles, block_unitaries = [], []
    for d, m in enumerate(profile2.dims):
        columns, offset = [], 0
        for s, n in enumerate(profile1.dims):
            F = J0[dst_at[d] : dst_at[d + 1], src_at[s] : src_at[s + 1]].T.reshape(n, n, m, m)
            if np.linalg.norm(F) <= tol:
                continue
            if n == 1:
                parts = [("H", F[0, 0], F[0, 1:])]   # F[0, 1:] is empty: no maps
            else:
                X, Y = F[0, 0] @ F[0, 1], F[0, 1] @ F[0, 0]
                parts = [("H", X @ X.conj().T, F[range(1, n), range(1, n)] @ F[1:, 0]),
                         ("A", Y.conj().T @ Y, F[0, 1:] @ F[0, 0])]
            for kind, extractor, maps in parts:
                P = _pivot_columns(extractor)
                for _ in range(P.shape[1]):
                    tiles.append(Tile(src=s, dst=d, offset=offset, kind=kind))
                    offset += n
                # tile k's columns: x = P[:, k], then each map applied to x
                stack = np.concatenate([P[None], maps @ P])   # (n, m, tiles)
                columns.append(stack.transpose(1, 2, 0).reshape(m, -1))
        W = polar(np.column_stack(columns)) if offset else np.zeros((m, 0), dtype=complex)
        if offset < m:   # the tile columns leave part of the block uncovered
            W = np.column_stack([W, polar(_pivot_columns(np.eye(m) - W @ W.conj().T))])
        block_unitaries.append(W)
    return JordanMorphismSpec(profile1, profile2, tiles, block_unitaries)


def classify_characteristic_preserving(S: SuperOperator, w1: Weight, w2: Weight,
                                       seed: int = 0) -> ClassifyResult:
    """Decide whether S is the composition operator of some Jordan *-morphism.

    A composition operator sends embedded projections to embedded
    projections; in finite dimension that holds exactly when the candidate
    J0(a) = unembed(w2, S(embed(w1, a))), at S's own exponents, is a Jordan
    *-morphism.  That is decided exactly on the pairs of source matrix
    units (`jordan_defect`), with no sampling.  J0 is one closed-form
    product, sandwich(post) S.matrix() sandwich(pre) with pre = h^{1/(2p)}
    and post = k^{-1/(2q)} (`_sandwich_matrix`); no map is called.  A
    survivor is factored back into a tile morphism (`_reconstruct_tiles`,
    valid for every survivor), whose `matrix()` must reproduce J0 on every
    matrix unit.

    Every call on valid inputs ends in ACCEPT, or in REJECT with a
    projection witness from the worst pair (`_projection_witness`; after a
    reconstruction gap that pair is within tolerance and the witness is
    still a projection).  The tolerance is CLASSIFY_TOL.  `seed` is not
    used.  Weights off S's profiles (ProfileMismatch) or not faithful are refused.
    """
    if S.domain_profile != w1.profile or S.codomain_profile != w2.profile:
        raise ProfileMismatch("the weights do not match the operator's profiles")
    w1.require_faithful("classifier (domain weight)")
    w2.require_faithful("classifier (codomain weight)")
    pre = w1.power(S.p.float_reciprocal() / 2)
    post = w2.power(-S.q.float_reciprocal() / 2)
    J0 = _sandwich_matrix(post, post) @ S.matrix() @ _sandwich_matrix(pre, pre)
    worst, (u, v) = jordan_defect(J0, w1.profile, w2.profile)
    n = w1.profile.coord_dim
    result = dict(max_projection_residual=worst, basis_pairs_checked=n * (n + 1) // 2)
    if worst <= CLASSIFY_TOL:
        spec = _reconstruct_tiles(J0, w1.profile, w2.profile, CLASSIFY_TOL)
        # the reconstruction must reproduce the candidate exactly on a basis
        gaps = np.linalg.norm(spec.matrix() - J0, axis=0)
        if np.all(gaps <= 1e-8 * np.maximum(1.0, np.linalg.norm(J0, axis=0))):
            return ClassifyResult(accepted=True, morphism=spec, witness=None, **result)
    return ClassifyResult(accepted=False, morphism=None,
                          witness=_projection_witness(J0, w1.profile, w2.profile, u, v),
                          **result)


# ---------------------------------------------------------------------------
# Inclusion of a dominated subalgebra carrier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionInclusion:
    operator: SuperOperator
    constant: float  # smallest C with phi2 o inclusion <= C phi_B
    bound: float     # C^{1/p}


def contraction_inclusion(wB: Weight, w2: Weight, inclusion: JordanMorphismSpec,
                          p) -> ContractionInclusion:
    """The map embed_p(wB, a) -> embed_p(w2, inclusion(a)) with its domination data.

    The map is the composition operator of the inclusion at (p, p).

    Requires phi2 o inclusion <= C phi_B for a finite C: C is the top
    eigenvalue of rho_B^{-1/2} k rho_B^{-1/2}, k the pushforward density of
    phi2 (so phi2(inclusion(x)) = tr(k x)), and the operator inequality
    C rho_B - k >= 0 is then checked exactly, with one eigh per block size,
    down to -1e-9 max(1, ||C rho_B||); DominationFails reports the smallest
    eigenvalue otherwise.  The map is bounded with norm controlled by C^{1/p}
    (up to a dimension-level constant).
    """
    p = Exponent(p)
    wB.require_faithful("inclusion domain weight")
    w2.require_faithful("inclusion codomain weight")
    if inclusion.profile1 != wB.profile or inclusion.profile2 != w2.profile:
        raise ProfileMismatch("inclusion profiles do not match the weights")
    pushed = pushforward_density(inclusion, w2)
    half_inv = wB.power(-0.5)
    m = half_inv @ pushed.rho @ half_inv
    constant = schatten_norm(m, "inf")
    if not np.isfinite(constant):
        raise DominationFails("no finite domination constant")
    dominating = wB.rho * constant
    lams, _ = eigh_groups(wB.profile, (dominating - pushed.rho).hermitized().flat())
    low = min(float(lam[:, 0].min()) for lam in lams)
    if low < -1e-9 * max(1.0, schatten_norm(dominating, "inf")):
        raise DominationFails(f"C rho_B - k has eigenvalue {low:.6e} < 0")
    bound = constant ** p.float_reciprocal()
    return ContractionInclusion(operator=build_composition(inclusion, wB, w2, p, p),
                                constant=constant, bound=bound)


# ---------------------------------------------------------------------------
# The splitting inequality for commuting density summands.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplittingReport:
    min_gap_eigenvalue: float
    ok: bool


def splitting_inequality_check(hJ: Weight, hz: Weight, h1z: Weight, q) -> SplittingReport:
    """Verify the operator inequality (hz + h1z)^{1/q} <= hz^{1/q} + h1z^{1/q}.

    Valid for commuting summands; checked as the smallest eigenvalue of the
    gap hz^{1/q} + h1z^{1/q} - hJ^{1/q} being >= -1e-9.
    """
    q = Exponent(q)
    if not weights_commute(hz, h1z):
        raise NotCommuting("the density summands do not commute")
    gap_sum = (hJ.rho - hz.rho - h1z.rho).fro_norm()
    if gap_sum > 1e-9 * max(1.0, hJ.rho.fro_norm()):
        raise NotSummable(f"hJ != hz + h1z (residual {gap_sum:.3e})")
    inv_q = q.float_reciprocal()
    gap = hz.power(inv_q) + h1z.power(inv_q) - hJ.power(inv_q)
    lams, _ = eigh_groups(gap.profile, gap.hermitized().flat())
    min_eig = min(float(lam[:, 0].min()) for lam in lams)
    return SplittingReport(min_gap_eigenvalue=min_eig, ok=min_eig >= -1e-9)
