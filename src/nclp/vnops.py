"""Finite-dimensional von Neumann algebra layer.

Weights are trace-form functionals a -> sum_i tr(rho_i a_i) against a
positive density rho; in finite dimensions the density of the associated
dual weight is identified with rho itself, so all weight arithmetic here is
density arithmetic.  The module covers supports, local absolute continuity,
the modular group t -> h^{it} a h^{-it}, centralizer membership, commuting
weights and *-algebra generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotFaithful, NotPSD, ProfileMismatch
from .matcore import (
    SUPPORT_CUTOFF,
    BlockMatrix,
    BlockProfile,
    block_stacks,
    commutator_norm,
    eigh_groups,
    flat_columns,
    from_eig_groups,
    psd_range,
    spectral_power,
    support_of,
)


@dataclass(frozen=True)
class Projection:
    """A self-adjoint idempotent block matrix."""

    matrix: BlockMatrix

    def __post_init__(self):
        e = self.matrix
        if (e - e.adjoint()).fro_norm() > 1e-8 or (e @ e - e).fro_norm() > 1e-8:
            raise NotPSD("matrix is not a projection within 1e-8")

    def leq(self, other: "Projection", tol: float = 1e-8) -> bool:
        """e <= f, tested as e f e = e."""
        e, f = self.matrix, other.matrix
        return (e @ f @ e - e).fro_norm() <= tol

    def join(self, other: "Projection") -> "Projection":
        """e v f, computed as the support of e + f."""
        return Projection(support_of(self.matrix + other.matrix))


class Weight:
    """Trace-form positive functional phi(a) = sum_i tr(rho_i a_i)."""

    __slots__ = ("profile", "rho", "__dict__")

    def __init__(self, rho: BlockMatrix):
        profile, flat = rho.profile, rho.flat()
        size = float(np.linalg.norm(flat))
        if not size < np.inf and not np.isfinite(flat).all():   # a finite norm can overflow
            raise NotPSD("density has a NaN or infinite entry")
        adj = flat.conj()[profile.transpose_index]
        defect = float(np.linalg.norm(flat - adj))
        if not defect <= 1e-10 * max(1.0, size):
            raise NotPSD(f"density not Hermitian, defect {defect:.3e}")
        rho = BlockMatrix._of_flat(profile, (flat + adj) / 2)  # hermitized()
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "rho", rho)
        self._spectral = eigh_groups(rho.profile, rho.flat())
        self._range = psd_range(self._spectral[0])

    def __setattr__(self, name, value):
        if name != "__dict__" and not name.startswith("_"):
            raise AttributeError("Weight is immutable")
        object.__setattr__(self, name, value)

    @classmethod
    def diagonal(cls, profile: BlockProfile, values) -> "Weight":
        return cls(BlockMatrix.diagonal(profile, values))

    @classmethod
    def tracial(cls, profile: BlockProfile, total: float = 1.0) -> "Weight":
        """The normalised trace scaled to the given total mass."""
        n = profile.total_dim
        return cls(BlockMatrix.identity(profile) * (total / n))

    @property
    def is_faithful(self) -> bool:
        low, top = self._range
        return top > 0.0 and low > SUPPORT_CUTOFF * top

    def require_faithful(self, what: str = "operation"):
        if not self.is_faithful:
            raise NotFaithful(f"{what} requires a faithful weight")

    def value(self, a: BlockMatrix) -> complex:
        if a.profile != self.profile:
            raise ProfileMismatch("element profile differs from weight profile")
        return complex(self.rho.flat() @ a.transpose().flat())

    def total(self) -> float:
        return float(self.rho.trace().real)

    def power(self, t) -> BlockMatrix:
        """rho^t by spectral calculus, support convention for t >= 0."""
        t = float(t)
        if t < 0 and not self.is_faithful:
            raise NotFaithful("negative power of a non-faithful density")
        return spectral_power(self.profile, self._spectral, t, self._range[1])

    def log_density(self) -> BlockMatrix:
        """log rho (faithful weights only), the generator of rho^{it} = exp(it log rho)."""
        self.require_faithful("log rho")
        lams, vecs = self._spectral
        return from_eig_groups(self.profile, vecs, [np.log(lam) for lam in lams])

    def imaginary_power(self, t: float) -> BlockMatrix:
        """The unitary rho^{it} (faithful weights only)."""
        self.require_faithful("rho^{it}")
        lams, vecs = self._spectral
        return from_eig_groups(self.profile, vecs, [np.exp(1j * t * np.log(lam)) for lam in lams])


def support_projection(w: Weight) -> Projection:
    """Spectral projection of the density onto eigenvalues > 1e-12 * ||rho||_inf."""
    return Projection(w.power(0))


def locally_absolutely_continuous(w0: Weight, w1: Weight) -> bool:
    """Finite weight under w1 implies finite weight under w0.

    At finite dimension every weight is finite, and the condition collapses
    to the support containment supp(w0) <= supp(w1).
    """
    if w0.profile != w1.profile:
        raise ProfileMismatch("weights live on different profiles")
    return support_projection(w0).leq(support_projection(w1))


def modular_conjugate(w: Weight, t: float, a: BlockMatrix) -> BlockMatrix:
    """sigma_t(a) = h^{it} a h^{-it} for the density h of w."""
    w.require_faithful("modular conjugation")
    u = w.imaginary_power(t)
    return u @ a @ u.adjoint()


# The modular parameters at which the orbit test of the centralizer samples.
_ORBIT_T_SAMPLES = (0.7, 1.3, 2.9)


def centralizer_tests(w: Weight, d: BlockMatrix):
    """The two operational membership tests for the centralizer of w.

    Returns (commutator_test, orbit_test): whether h and d commute, and
    whether the modular orbit sigma_t(d) stays at d at each t of
    _ORBIT_T_SAMPLES.
    The equivalence of the two is exactly what makes the centralizer the
    fixed-point algebra of the modular group.
    """
    w.require_faithful("centralizer membership")
    h = w.rho
    scale = (1.0 + d.max_abs()) * max(h.max_abs(), 1e-300)
    comm_ok = commutator_norm(h, d) < 1e-9 * scale
    orbit_defect = max(
        (modular_conjugate(w, t, d) - d).fro_norm() for t in _ORBIT_T_SAMPLES
    )
    orbit_ok = orbit_defect < 1e-8 * max(1.0, d.fro_norm())
    return comm_ok, orbit_ok


def in_centralizer(w: Weight, d: BlockMatrix) -> bool:
    """Membership of d in the centralizer of w.

    Cross-checks the commutator test against the modular-orbit test and
    refuses to answer if they disagree (they agree for every valid input;
    disagreement signals numerical breakdown).
    """
    comm_ok, orbit_ok = centralizer_tests(w, d)
    if comm_ok != orbit_ok:
        raise NoConvergence(
            f"centralizer tests disagree (commutator {comm_ok}, orbit {orbit_ok})"
        )
    return comm_ok


def weights_commute(w: Weight, v: Weight) -> bool:
    """Supports commute and the compressed densities commute on the product support."""
    if w.profile != v.profile:
        raise ProfileMismatch("weights live on different profiles")
    e = w.power(0)
    f = v.power(0)
    if commutator_norm(e, f) >= 1e-9:
        return False
    g = e @ f  # projection, since e and f commute
    a = g @ w.rho @ g
    b = g @ v.rho @ g
    scale = max(1.0, a.max_abs() * b.max_abs())
    return commutator_norm(a, b) < 1e-9 * scale


@dataclass(frozen=True, eq=False)
class SubalgebraBasis:
    """A *-subalgebra as a Hilbert-Schmidt orthonormal basis, with its unit.

    `rows` (dimension, coord_dim) holds the basis as orthonormal rows of flat
    coordinates, so the projection onto the span is x -> rows^T conj(rows) x.
    """

    profile: BlockProfile
    rows: np.ndarray
    unit: BlockMatrix

    @property
    def dimension(self) -> int:
        return self.rows.shape[0]

    @property
    def elements(self) -> tuple:
        return tuple(BlockMatrix.unflat(self.profile, row) for row in self.rows)

    def span_residual(self, x: BlockMatrix) -> float:
        """Frobenius distance from x to the span of the basis."""
        v = x.flat()
        return float(np.linalg.norm(v - self.rows.T @ (self.rows.conj() @ v)))


# Rank cut of a spanning set: singular values above this fraction of the largest.
_SPAN_CUTOFF = 1e-9


def _span_rows(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of `vectors`: one SVD and a rank cut."""
    _, s, vh = np.linalg.svd(vectors, full_matrices=False)
    return vh[: int(np.sum(s > _SPAN_CUTOFF * s[0])) if s.size else 0]


def generate_algebra(generators) -> SubalgebraBasis:
    """Orthonormal basis of the smallest *-algebra containing the generators.

    The seed span holds the generators and their adjoints, so every iterate
    is *-closed.  Each round spans the current basis together with all its
    pairwise products, which come from one batched product per block, by
    one SVD with a rank cut (`_span_rows`), and stops when the dimension
    does not grow; it can grow at most coord_dim times.  Zero generators
    give the zero algebra, with unit 0.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    profile = generators[0].profile
    if any(g.profile != profile for g in generators):
        raise ProfileMismatch("generators live on different profiles")
    rows = _span_rows(np.array([v for g in generators for v in (g.flat(), g.adjoint().flat())]))
    while True:
        products = flat_columns([(X[:, None] @ X[None]).reshape(-1, *X.shape[1:])
                                 for X in block_stacks(profile, rows.T)])
        grown = _span_rows(np.concatenate([rows, products.T]))
        if grown.shape[0] == rows.shape[0]:
            return SubalgebraBasis(profile=profile, rows=rows, unit=_algebra_unit(profile, rows))
        rows = grown


def _algebra_unit(profile: BlockProfile, rows: np.ndarray) -> BlockMatrix:
    """The unit of the *-algebra with orthonormal basis rows b_k: the support u of sum b_k b_k*.

    u is a polynomial without constant term in sum b_k b_k*, so it lies in
    the algebra, and its range holds the range of every b_k, so u b = b and
    b u = (u b*)* = b.  The residual of u b_k = b_k is checked all the same.
    """
    stacks = block_stacks(profile, rows.T)
    gram = [np.einsum("kij,klj->il", X, X.conj()) for X in stacks]
    unit = support_of(BlockMatrix(profile, gram))
    defect = flat_columns([u @ X - X for u, X in zip(unit.blocks, stacks)])
    worst = float(np.max(np.linalg.norm(defect, axis=0), initial=0.0))
    if worst > 1e-8:
        raise NoConvergence(f"generated span has no unit (residual {worst:.3e})")
    return unit
