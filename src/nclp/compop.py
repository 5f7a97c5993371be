"""Composition operators between weighted L^p carriers.

Builds the operator C_J : x -> embed(w2, J(unembed(w1, x))), bounds
L^p -> L^q operator norms (an exact singular-value oracle at p = q = 2;
for completely positive maps, closed forms at p = inf and q = 1 and a
certified cone iteration in between; alternating duality alignment, a lower
bound only, for every other map), solves the bounded change-of-weights
problem (exact norm, attaining witness), recovers one-sided multipliers
from module homomorphisms, and classifies which raw operators are
composition operators, deciding exactly (on the pairs of matrix units)
whether they preserve embedded projections.

An operator is its matrix on flat block coordinates (`SuperOperator`).
The library builds every matrix in closed form, from `_sandwich_matrix`
(x -> L x R), the tile matrix of a morphism and matrix products; only a
user's callable is materialised, once, where it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DominationFails,
    ExponentOrder,
    NoConvergence,
    NotCommuting,
    NotModuleMap,
    NotSummable,
    ProfileMismatch,
    RatioMismatch,
)
from .exponents import Exponent, coerce, ratio, require_order
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
    _from_spectrum,
    _lp_norm,
    _spectral_power,
    _transpose_permutation,
    block_stacks,
    flat_columns,
    hermitian_eig,
    kron,
    schatten_norm,
)
from .vnops import Weight, weights_commute

_ONE = Exponent(1)
_TWO = Exponent(2)

# The bounds of an exact norm agree within NORM_RTOL; the cone iteration runs
# until its bounds do.
NORM_RTOL = 1e-12
# Relative rounding allowed in the cone's computed top eigenvalue lambda.  The
# upper bound raises (1 + _CONE_ROUNDING) lambda to the power (p-1)/q, so the
# allowance grows with that power, as the rounding does; a fixed relative
# inflation of the bound would not cover it once (p-1)/q is large.
_CONE_ROUNDING = 64 * np.finfo(float).eps
# A Choi matrix passes as positive semidefinite down to an eigenvalue of
# -_CHOI_TOL times the Frobenius norm of the operator's matrix: room for the
# rounding of its closed-form products.
_CHOI_TOL = 1e-12


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
    """

    __slots__ = ("domain_profile", "codomain_profile", "p", "q", "_matrix")

    def __init__(self, domain_profile: BlockProfile, codomain_profile: BlockProfile,
                 p, q, fn):
        mat, profile = materialise(fn, domain_profile)
        if profile != codomain_profile:
            raise ProfileMismatch(
                f"images lie on {profile.dims}, the codomain profile is {codomain_profile.dims}"
            )
        self._set(domain_profile, codomain_profile, p, q, mat)
        if linearity_defect(fn, self._matrix, domain_profile, 5_040) > 1e-10:
            raise ProfileMismatch("the map disagrees with its matrix on a probe: it is not linear")

    @classmethod
    def from_matrix(cls, domain_profile, codomain_profile, p, q, mat) -> "SuperOperator":
        op = cls.__new__(cls)
        op._set(domain_profile, codomain_profile, p, q, mat)
        return op

    def _set(self, domain_profile, codomain_profile, p, q, mat):
        mat = np.array(mat, dtype=complex)
        expected = (codomain_profile.coord_dim, domain_profile.coord_dim)
        if mat.shape != expected:
            raise ProfileMismatch(f"matrix shape {mat.shape}, expected {expected}")
        mat.setflags(write=False)
        object.__setattr__(self, "domain_profile", domain_profile)
        object.__setattr__(self, "codomain_profile", codomain_profile)
        object.__setattr__(self, "p", coerce(p))
        object.__setattr__(self, "q", coerce(q))
        object.__setattr__(self, "_matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SuperOperator is immutable")

    def apply(self, x: BlockMatrix) -> BlockMatrix:
        if x.profile != self.domain_profile:
            raise ProfileMismatch("input does not match the domain profile")
        return BlockMatrix.unflat(self.codomain_profile, self._matrix @ x.flat())

    def matrix(self) -> np.ndarray:
        """The read-only matrix on flat block coordinates."""
        return self._matrix

    def trace_dual(self) -> "SuperOperator":
        """Banach adjoint for the bilinear trace pairing tr(g T(x)).

        Maps L^{q*} to L^{p*}.  With Pi the permutation of flat coordinates
        that transposes every block, tr(g y) = g.flat() . Pi y.flat(), so the
        matrix is Pi_dom M^T Pi_cod.
        """
        dom = _transpose_permutation(self.domain_profile)
        cod = _transpose_permutation(self.codomain_profile)
        return SuperOperator.from_matrix(
            self.codomain_profile, self.domain_profile,
            self.q.conjugate(), self.p.conjugate(), self._matrix.T[dom][:, cod],
        )

    def compose(self, inner: "SuperOperator") -> "SuperOperator":
        """self after inner: the matrix product."""
        if inner.codomain_profile != self.domain_profile:
            raise ProfileMismatch("composition profiles do not chain")
        return SuperOperator.from_matrix(inner.domain_profile, self.codomain_profile,
                                         inner.p, self.q, self._matrix @ inner.matrix())

    def __repr__(self):
        return (
            f"SuperOperator(L^{self.p}{self.domain_profile.dims} -> "
            f"L^{self.q}{self.codomain_profile.dims})"
        )


@dataclass(frozen=True)
class NormEstimate:
    """Bounds on an operator norm, labelled by `status`.

    `upper_bound` is a proved upper bound, math.inf when there is none.  A
    norm is `exact` when the bounds agree within NORM_RTOL (the (2,2)
    oracle, the closed forms and the change of weights, each with a
    witness, and a cone iteration whose gap closed), `interval` when they
    do not, and `lower-only` with no upper bound (the alternating
    maximiser).

    The maximiser's `iterations` is summed over the restarts, so it equals
    restarts * max_iter exactly when every restart hit the cap, and
    `capped` counts the restarts still running after max_iter steps.  The
    cone iteration reports its steps as `iterations`, 0 restarts, and
    `capped` 1 when its gap did not close.  Exact closed forms report 0
    for all three.
    """

    lower_bound: float
    iterations: int
    restarts: int
    seed: int
    capped: int = 0
    upper_bound: float = math.inf

    @property
    def status(self) -> str:
        if math.isinf(self.upper_bound):
            return "lower-only"
        if self.upper_bound <= self.lower_bound * (1.0 + NORM_RTOL):
            return "exact"
        return "interval"

    @property
    def certified(self) -> bool:
        return self.status == "exact"


def identity_operator(profile: BlockProfile, p, q=None) -> SuperOperator:
    q = p if q is None else q
    return SuperOperator.from_matrix(profile, profile, p, q, np.eye(profile.coord_dim))


def _sandwich_matrix(left: BlockMatrix, right: BlockMatrix) -> np.ndarray:
    """Matrix of x -> left x right on flat block coordinates: blockdiag(kron(L_i, R_i^T))."""
    profile = left.profile
    mat = np.zeros((profile.coord_dim, profile.coord_dim), dtype=complex)
    at = 0
    for d, lb, rb in zip(profile.dims, left.blocks, right.blocks):
        mat[at : at + d * d, at : at + d * d] = kron(lb, rb.T)
        at += d * d
    return mat


def build_composition(J: JordanMorphismSpec, w1: Weight, w2: Weight, p, q) -> SuperOperator:
    """The composition operator embed_q(w2) o J o unembed_p(w1).

    Exact at finite dimension because the symmetric embedding is bijective
    for a faithful weight.  Requires q <= p; the reversed regime is refused.
    The operator is built from its matrix, a product of closed forms:
    x -> post x post and x -> pre x pre are `_sandwich_matrix` for
    post = k^{1/(2q)} and pre = h^{-1/(2p)}, and J is `J.matrix()`; no
    closure is called.
    """
    p, q = coerce(p), coerce(q)
    require_order(p, q)
    w1.require_faithful("composition operator (domain weight)")
    w2.require_faithful("composition operator (codomain weight)")
    if w1.profile != J.profile1 or w2.profile != J.profile2:
        raise ProfileMismatch("weights do not match the morphism profiles")
    # h^0 = identity for faithful weights, so the p or q = inf cases need no branch
    pre = w1.power(-p.reciprocal() / 2)
    post = w2.power(q.reciprocal() / 2)
    mat = _sandwich_matrix(post, post) @ J.matrix() @ _sandwich_matrix(pre, pre)
    return SuperOperator.from_matrix(J.profile1, J.profile2, p, q, mat)


# ---------------------------------------------------------------------------
# Operator norm estimation.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _size_groups(profile: BlockProfile) -> tuple:
    """(d, m, rows) for each distinct block size d of the profile, smallest first.

    m is the number of blocks of size d and rows the read-only (m, d*d)
    array of their flat coordinates.  Computed once per profile.
    """
    starts = np.cumsum([0] + [d * d for d in profile.dims[:-1]])
    groups = []
    for d in sorted(set(profile.dims)):
        rows = np.stack([at + np.arange(d * d) for at, n in zip(starts, profile.dims) if n == d])
        rows.setflags(write=False)
        groups.append((d, rows.shape[0], rows))
    return tuple(groups)


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
    for d, m, rows in _size_groups(profile):
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


def _random_start(profile: BlockProfile, stream) -> np.ndarray:
    """Flat coordinates of a complex Gaussian element drawn from one seed stream."""
    rng = np.random.default_rng(stream)
    return np.concatenate([
        (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))).ravel()
        for d in profile
    ])


def _is_completely_positive(mat: np.ndarray, dom: BlockProfile, cod: BlockProfile) -> bool:
    """Whether the map with matrix `mat` is completely positive, tested exactly.

    For a source block s of size n and a destination block t of size m, with
    B = mat[rows of t, cols of s], the Choi matrix sum_ij E_ij (x) C(E_ij) is
    B.reshape(m, m, n, n).transpose(2, 0, 3, 1).reshape(n*m, n*m), and C is
    completely positive iff every one of them is positive semidefinite.  The
    Choi matrices are stacked per (n, m); each stack passes its Hermiticity
    defect and one Cholesky factorisation of Choi + tol I, tol = _CHOI_TOL
    times the Frobenius norm of mat, or C fails.  So the test is exact for
    eigenvalues above -tol and needs no eigensolver.  The zero map passes.
    """
    scale = float(np.linalg.norm(mat))
    if scale == 0.0:
        return True
    tol = _CHOI_TOL * scale
    for n, ks, src in _size_groups(dom):
        for m, kt, dst in _size_groups(cod):
            pairs = mat[dst[:, None, :, None], src[None, :, None, :]].reshape(kt * ks, m, m, n, n)
            choi = pairs.transpose(0, 3, 1, 4, 2).reshape(kt * ks, n * m, n * m)
            if np.linalg.norm(choi - choi.conj().swapaxes(1, 2)) > tol:
                return False
            try:
                np.linalg.cholesky(choi + tol * np.eye(n * m))
            except np.linalg.LinAlgError:
                return False
    return True


def _completely_positive_matrix(C: SuperOperator) -> np.ndarray | None:
    """The matrix of C if C is completely positive, else that of C o transpose if it is, else None.

    Transposition is a Schatten isometry, so C o transpose has C's norms;
    this covers the composition operators of A-only morphisms.
    """
    mat, dom, cod = C.matrix(), C.domain_profile, C.codomain_profile
    if _is_completely_positive(mat, dom, cod):
        return mat
    flipped = mat[:, _transpose_permutation(dom)]
    return flipped if _is_completely_positive(flipped, dom, cod) else None


def _eigh_groups(profile: BlockProfile, flat: np.ndarray) -> list:
    """(eigenvalues, eigenvectors) per size group of a Hermitian element, ascending.

    One eigh call per block size on the stack of its blocks; a 1x1 block is
    its own eigenvalue.
    """
    out = []
    for d, k, rows in _size_groups(profile):
        blocks = flat[rows].reshape(k, d, d)
        out.append((blocks[..., 0].real, np.ones((k, 1, 1))) if d == 1
                   else np.linalg.eigh(blocks))
    return out


def _from_eig_groups(profile: BlockProfile, vecs: list, values: list) -> np.ndarray:
    """Flat coordinates of sum V diag(values) V* per size group."""
    flat = np.empty(profile.coord_dim, dtype=complex)
    for (d, k, rows), V, f in zip(_size_groups(profile), vecs, values):
        flat[rows] = ((V * f[:, None, :]) @ V.conj().swapaxes(1, 2)).reshape(k, d * d)
    return flat


def _positive_endpoint(mat: np.ndarray, dom: BlockProfile, cod: BlockProfile,
                       p: Exponent, q: Exponent) -> float:
    """The exact norm of a completely positive map at p = inf or at q = 1.

    p = inf: ||C|| = ||C(1)||_q, attained at 1 (the sup-norm remark; it
    holds for every 2-positive map).  q = 1: ||C|| = ||C#(1)||_{p*}, with
    C# = mat^H, attained at C#(1)^{p*-1} normalised, because tr C(x) =
    tr(x C#(1)) for x >= 0 and the norm is attained on positive elements.
    """
    if p.is_inf:
        return schatten_norm(BlockMatrix.unflat(cod, mat @ BlockMatrix.identity(dom).flat()), q)
    dual_unit = mat.conj().T @ BlockMatrix.identity(cod).flat()
    return schatten_norm(BlockMatrix.unflat(dom, dual_unit), p.conjugate())


def _cone_norm(mat: np.ndarray, dom: BlockProfile, cod: BlockProfile,
               p: Exponent, q: Exponent, max_iter: int):
    """(lower, upper, steps, closed) for a completely positive map, 1 < q <= 2 <= p < inf.

    The step is x <- F(x) / ||F(x)||_p with F(x) = [C#((Cx)^{q-1})]^{1/(p-1)},
    order-preserving on the positive cone and homogeneous of degree
    d = (q-1)/(p-1) < 1.  It starts from x = e, the support of C#(1): every
    positive maximiser lives under e, and x stays invertible on e, so x, F(x)
    and x^{-1/2} are all taken on e (the top rank(e) eigenvalues of each
    block).  Each step gives the lower value ||Cx||_q / ||x||_p and the upper
    bound (lambda ||x||_p^{1-d})^{(p-1)/q}, lambda the top eigenvalue of
    x^{-1/2} F(x) x^{-1/2}: a positive maximiser x* satisfies F(x*) =
    ||C||^{q/(p-1)} x*, and comparing x* with its least multiple of x above
    it bounds ||C||.  lambda is inflated by _CONE_ROUNDING before the power.
    The iteration stops once the smallest upper bound is within NORM_RTOL
    of the largest lower value (`closed`); after max_iter steps; or when
    F(x) loses rank on e in floating point (ill-conditioned maps), so that
    the next x^{-1/2} would not exist.  The last two leave the gap open.

    One eigh per block size and spectral step: (Cx)^{q-1} (none at q = 2),
    F(x), whose eigensystem is the next x's, and lambda.
    """
    mat_h = mat.conj().T
    pf, qf = float(p), float(q)
    d = float((q.fraction - 1) / (p.fraction - 1))
    unit = _eigh_groups(dom, mat_h @ BlockMatrix.identity(cod).flat())
    top = max(float(np.max(lam)) for lam, _ in unit)
    if top <= 0.0:                      # C#(1) = 0, so C = 0
        return 0.0, 0.0, 0, True
    on = [lam > SUPPORT_CUTOFF * top for lam, _ in unit]
    vecs, xi = [V for _, V in unit], [mask.astype(float) for mask in on]
    x_norm = float(sum(int(np.sum(mask)) for mask in on)) ** (1.0 / pf)
    lower, upper = 0.0, math.inf
    for step in range(1, max_iter + 1):
        y = mat @ _from_eig_groups(dom, vecs, xi)
        if q == _TWO:
            z, y_norm = y, float(np.linalg.norm(y))
        else:
            spectra = _eigh_groups(cod, y)
            lams = [np.maximum(lam, 0.0) for lam, _ in spectra]
            y_norm = float(_lp_norm(np.concatenate([lam.ravel() for lam in lams]), q))
            z = _from_eig_groups(cod, [V for _, V in spectra], [lam ** (qf - 1.0) for lam in lams])
        lower = max(lower, y_norm / x_norm)
        spectra = _eigh_groups(dom, mat_h @ z)
        phi = [np.where(mask, np.maximum(lam, 0.0), 0.0) ** (1.0 / (pf - 1.0))
               for (lam, _), mask in zip(spectra, on)]
        # x^{-1/2} F x^{-1/2} = T T* in the eigenbasis of x, T = xi^{-1/2} V* W phi^{1/2}
        lam_top = 0.0
        for V, f, g, mask, (_, W) in zip(vecs, xi, phi, on, spectra):
            inv_root = np.where(mask, 1.0 / np.sqrt(np.where(mask, f, 1.0)), 0.0)
            T = (V.conj().swapaxes(1, 2) @ W) * np.sqrt(g)[:, None, :] * inv_root[:, :, None]
            lam_top = max(lam_top, float(np.max(np.linalg.eigvalsh(T @ T.conj().swapaxes(1, 2)))))
        upper = min(upper, ((1.0 + _CONE_ROUNDING) * lam_top * x_norm ** (1.0 - d))
                    ** ((pf - 1.0) / qf))
        if upper <= lower * (1.0 + NORM_RTOL):
            return lower, upper, step, True
        phi_top = max(float(np.max(g)) for g in phi)
        if any(np.any(mask & (g <= SUPPORT_CUTOFF * phi_top)) for g, mask in zip(phi, on)):
            return lower, upper, step, False
        f_norm = float(_lp_norm(np.concatenate([g.ravel() for g in phi]), p))
        vecs, xi, x_norm = [W for _, W in spectra], [g / f_norm for g in phi], 1.0
    return lower, upper, max_iter, False


def operator_norm(C: SuperOperator, restarts: int = 16, max_iter: int = 200,
                  seed: int = 0, method: str = "auto") -> NormEstimate:
    """Estimate the L^p -> L^q norm of C.

    "auto" takes, in order:
    - p = q = 2: the norm is the largest singular value of the matrix
      (exact);
    - p = inf, q = 1, or 1 < q <= 2 <= p, when C or C o transpose is
      completely positive (`_is_completely_positive` on the matrix):
      transposition is a Schatten isometry, and such a map attains its norm
      on positive elements (Audenaert, LAA 430, 2009).  p = inf and q = 1
      are closed forms (`_positive_endpoint`, exact); otherwise the cone
      iteration (`_cone_norm`) gives a lower value and a proved upper
      bound, exact once they meet and an interval if they have not met
      after max_iter steps;
    - every other map: the alternating maximiser, a lower bound only.
    "exact" is the (2,2) oracle alone and "alternating" the maximiser
    alone.  `restarts` and `seed` serve the maximiser only.

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
    if method not in ("auto", "exact", "alternating"):
        raise ValueError(f"unknown method {method!r}")
    if restarts < 1 or max_iter < 1:
        raise ValueError(
            f"need restarts >= 1 and max_iter >= 1, got {restarts} and {max_iter}"
        )
    p, q = C.p, C.q
    exact_ok = p == _TWO and q == _TWO
    if method == "exact" and not exact_ok:
        raise ExponentOrder("the exact oracle needs p = q = 2")
    if exact_ok and method != "alternating":
        top = float(np.linalg.svd(C.matrix(), compute_uv=False)[0])
        return NormEstimate(lower_bound=top, iterations=0, restarts=0, seed=seed,
                            upper_bound=top)
    dom, cod = C.domain_profile, C.codomain_profile
    endpoint = p.is_inf or q == _ONE
    if method == "auto" and (endpoint or _ONE < q <= _TWO <= p):
        positive = _completely_positive_matrix(C)
        if positive is not None and endpoint:
            value = _positive_endpoint(positive, dom, cod, p, q)
            return NormEstimate(lower_bound=value, iterations=0, restarts=0, seed=seed,
                                upper_bound=value)
        if positive is not None:
            lower, upper, steps, closed = _cone_norm(positive, dom, cod, p, q, max_iter)
            return NormEstimate(lower_bound=lower, iterations=steps, restarts=0, seed=seed,
                                capped=int(not closed), upper_bound=upper)
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
    return NormEstimate(lower_bound=float(np.max(current)), iterations=total_iters,
                        restarts=restarts, seed=seed, capped=int(active.size))


# ---------------------------------------------------------------------------
# Bounded change of weights.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChangeOfWeights:
    """Connecting element, exact norm, the witness attaining it and the induced map.

    `operator`, the map x -> d x d*, is built on first read, so a caller
    that reads only the bound never builds its coord_dim^2 matrix.
    """

    d: BlockMatrix
    bound: float
    norm_estimate: NormEstimate
    witness: BlockMatrix
    triple: ExponentTriple

    @cached_property
    def operator(self) -> SuperOperator:
        profile = self.d.profile
        return SuperOperator.from_matrix(profile, profile, self.triple.p, self.triple.q,
                                         _sandwich_matrix(self.d, self.d.adjoint()))


def change_of_weights(w: Weight, w0: Weight, p, q) -> ChangeOfWeights:
    """Solve the change-of-weights problem from w (density h) to w0 (density k).

    The connecting element d = k^{1/(2q)} h^{-1/(2p)} satisfies
    |d h^{1/(2p)}|^2 = k^{1/q} exactly, and the induced map
    x -> d x d* (embed_p(w, a) -> embed_q(w0, eae), e the support of w0)
    has norm ||  |d|^2 ||_r = ||d||_{2r}^2 for the Holder complement r,
    attained at x = (d*d/t)^{r/p}, t the top eigenvalue (support convention:
    the support projection at p = inf), or at r = inf on one top eigenvector
    of d*d.  NoConvergence if the witness falls 1e-9 relative below the
    bound or 1e-6 above it.
    """
    p, q = coerce(p), coerce(q)
    require_order(p, q)
    w.require_faithful("change of weights")
    if w.profile != w0.profile:
        raise ProfileMismatch("weights live on different profiles")
    triple = ExponentTriple.from_pq(p, q)
    half_out = w0.power(q.reciprocal() / 2)   # k^{1/(2q)}; support proj at q = inf
    half_in = w.power(-p.reciprocal() / 2)    # h^{-1/(2p)}; identity at p = inf
    d = half_out @ half_in
    dd = d.adjoint() @ d
    bound = schatten_norm(dd, triple.r)
    lams, V = hermitian_eig(dd)
    if triple.r.is_inf:
        values = [np.zeros_like(lam) for lam in lams]
        values[int(np.argmax([lam[-1] for lam in lams]))][-1] = 1.0
        witness = _from_spectrum(w.profile, values, V.blocks)
    else:
        # the witness is homogeneous of degree 0, so the spectrum is divided
        # by its top first: (d*d)^{r/p} overflows when p is just above q
        top = max(float(lam[-1]) for lam in lams)
        witness = _spectral_power(w.profile, [lam / top for lam in lams] if top > 0 else lams,
                                  V.blocks, float(triple.r.fraction * p.reciprocal()))
    pushed = d @ witness @ d.adjoint()
    value = schatten_norm(pushed, q) / schatten_norm(witness, p) if bound else 0.0
    if value > bound + 1e-6 or value < bound * (1.0 - 1e-9):
        raise NoConvergence(f"witness attains {value:.15g}, the bound is {bound:.15g}")
    est = NormEstimate(lower_bound=value, iterations=0, restarts=0, seed=0, upper_bound=bound)
    return ChangeOfWeights(d=d, bound=bound, norm_estimate=est, witness=witness, triple=triple)


def change_of_weights_bound_if_onto(J: JordanMorphismSpec, w1: Weight, w2: Weight,
                                    p, q) -> float | None:
    """Change-of-weights bound for C_J when it provably dominates the norm, else None.

    J must be a blockwise *-iso/antiiso onto the codomain (one tile per source
    block, every block covered on both sides); then C_J is the change of weights
    from w1 to the pushforward of w2 followed by an isometry.
    """
    if sorted(t.src for t in J.tiles) != list(range(J.profile1.block_count)):
        return None
    if (J.unit_image() - BlockMatrix.identity(J.profile2)).fro_norm() > 1e-9:
        return None
    k = pushforward_density(J, w2)
    return change_of_weights(w1, k, p, q).bound if k.is_faithful else None


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
    r = coerce(r)
    entries = []
    for p, q in sample_pairs:
        p, q = coerce(p), coerce(q)
        if ratio(p, q) != r:
            raise RatioMismatch(f"pair ({p}, {q}) does not realise ratio {r}")
        cw = change_of_weights(w, w0, p, q)
        entries.append(ScaleEntry(
            p=p, q=q, bound=cw.bound,
            measured=cw.norm_estimate.lower_bound,
            ok=cw.norm_estimate.lower_bound <= cw.bound + 1e-6,
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
    rejects alike.  `basis_pairs_checked` counts those pairs, N(N+1)/2 for
    N source matrix units; 0 when not recorded.  A reject's `witness` is
    (projection e, image, residual): e is a projection of the source algebra
    whose image is farthest from a projection (`_projection_witness`), and
    the residual is max(||f - f*||_2, ||f^2 - f||_2) / max(1, ||f||_2) for
    that image f.
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
    adj, eye = _transpose_permutation(profile1), np.eye(profile1.coord_dim)

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
    eigs = [np.linalg.eigh(blk) for blk in c.hermitized().blocks]
    values = np.sort(np.concatenate([lam for lam, _ in eigs]))
    levels = values[np.concatenate([[True], np.diff(values) > 1e-9])]
    spectral = [flat_columns([((vec * (np.abs(lam - level) <= 1e-9)) @ vec.conj().T)[None]
                              for lam, vec in eigs])[:, 0] for level in levels]
    E = np.column_stack(spectral + [x + y for i, x in enumerate(spectral)
                                    for y in spectral[i + 1 :]])
    F = J0 @ E
    residuals = defects(F, F) / np.maximum(1.0, np.linalg.norm(F, axis=0))
    k = int(np.argmax(residuals))
    return (BlockMatrix.unflat(profile1, E[:, k]), BlockMatrix.unflat(profile2, F[:, k]),
            float(residuals[k]))


def _projection_frame(P: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a (numerical) projection, fixed by P alone.

    The rank is the rounded trace.  Pivoted Cholesky picks that many
    columns X of P, each time the first index within 1e-9 of the largest
    remaining diagonal, and the frame is X (X*X)^{-1/2}.  Every step is a
    function of P, so a rounding-level change of P moves the frame at
    rounding level only; eigenvectors would carry phases, and a basis of
    the degenerate eigenspace, chosen by the rounding noise.
    """
    H = (P + P.conj().T) / 2
    R, picked = H, []
    for _ in range(int(round(np.trace(H).real))):
        diag = R.diagonal().real
        j = int(np.argmax(diag >= diag.max() - 1e-9))
        picked.append(j)
        R = R - np.outer(R[:, j], R[j]) / diag[j]
    X = H[:, picked]
    lam, v = np.linalg.eigh(X.conj().T @ X)
    return X @ (v / np.sqrt(lam)) @ v.conj().T


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
    and no maps.  Each column w of `_projection_frame` of an extractor gives
    one tile, with frame columns w and the maps applied to w.  The unitary
    of block d is those frames followed by
    `_projection_frame(1 - W W*)`, so it depends on J0 only, not on the
    rounding inside an eigensolver or a QR.
    """
    src_at = np.cumsum([0] + [n * n for n in profile1.dims])
    dst_at = np.cumsum([0] + [m * m for m in profile2.dims])
    tiles, block_unitaries = [], []
    for d, m in enumerate(profile2.dims):
        frames, offset = [], 0
        for s, n in enumerate(profile1.dims):
            F = J0[dst_at[d] : dst_at[d + 1], src_at[s] : src_at[s + 1]].T.reshape(n, n, m, m)
            if np.linalg.norm(F) <= tol:
                continue
            if n == 1:
                parts = [("H", F[0, 0], [])]
            else:
                X, Y = F[0, 0] @ F[0, 1], F[0, 1] @ F[0, 0]
                parts = [("H", X @ X.conj().T, [F[i, i] @ F[i, 0] for i in range(1, n)]),
                         ("A", Y.conj().T @ Y, [F[0, l] @ F[0, 0] for l in range(1, n)])]
            for kind, extractor, maps in parts:
                for w in _projection_frame(extractor).T:
                    tiles.append(Tile(src=s, dst=d, offset=offset, kind=kind))
                    frames.append(np.column_stack([w] + [g @ w for g in maps]))
                    offset += n
        W = np.column_stack(frames) if frames else np.zeros((m, 0), dtype=complex)
        block_unitaries.append(
            np.column_stack([W, _projection_frame(np.eye(m) - W @ W.conj().T)]))
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
    survivor is factored back into an explicit tile morphism
    (`_reconstruct_tiles`, whose frames depend on J0 alone), and its
    closed-form `matrix()` must reproduce J0 on every matrix unit.

    A reject carries a projection witness built from the worst pair
    (`_projection_witness`); on a reconstruction gap that pair's residual is
    within tolerance, and the witness is still a projection.  The tolerance
    1e-7 is looser than the algebra tolerance because two embeddings
    compound their rounding.  `seed` is not used: the verdict does not
    depend on it.  Weights off S's profiles are refused (ProfileMismatch).
    """
    if S.domain_profile != w1.profile or S.codomain_profile != w2.profile:
        raise ProfileMismatch("the weights do not match the operator's profiles")
    w1.require_faithful("classifier (domain weight)")
    w2.require_faithful("classifier (codomain weight)")
    pre = w1.power(S.p.reciprocal() / 2)
    post = w2.power(-S.q.reciprocal() / 2)
    tol = 1e-7
    J0 = _sandwich_matrix(post, post) @ S.matrix() @ _sandwich_matrix(pre, pre)
    worst, (u, v) = jordan_defect(J0, w1.profile, w2.profile)
    n = w1.profile.coord_dim
    result = dict(max_projection_residual=worst, basis_pairs_checked=n * (n + 1) // 2)
    if worst <= tol:
        spec = _reconstruct_tiles(J0, w1.profile, w2.profile, tol)
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
    C rho_B - k >= 0 is then checked exactly, with one eigvalsh per block,
    down to -1e-9 max(1, ||C rho_B||); DominationFails reports the smallest
    eigenvalue otherwise.  The map is bounded with norm controlled by C^{1/p}
    (up to a dimension-level constant).
    """
    p = coerce(p)
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
    low = min(float(np.linalg.eigvalsh(blk)[0])
              for blk in (dominating - pushed.rho).hermitized().blocks)
    if low < -1e-9 * max(1.0, schatten_norm(dominating, "inf")):
        raise DominationFails(f"C rho_B - k has eigenvalue {low:.6e} < 0")
    bound = constant ** float(p.reciprocal())
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
    q = coerce(q)
    if not weights_commute(hz, h1z):
        raise NotCommuting("the density summands do not commute")
    gap_sum = (hJ.rho - hz.rho - h1z.rho).fro_norm()
    if gap_sum > 1e-9 * max(1.0, hJ.rho.fro_norm()):
        raise NotSummable(f"hJ != hz + h1z (residual {gap_sum:.3e})")
    inv_q = float(q.reciprocal())
    gap = hz.power(inv_q) + h1z.power(inv_q) - hJ.power(inv_q)
    min_eig = min(
        float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0]) for blk in gap.blocks
    )
    return SplittingReport(min_gap_eigenvalue=min_eig, ok=min_eig >= -1e-9)
