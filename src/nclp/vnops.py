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
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NotFaithful, NotPSD, ProfileMismatch
from .matcore import (
    PSD_TOL,
    SUPPORT_CUTOFF,
    BlockMatrix,
    BlockProfile,
    _from_spectrum,
    _spectral_power,
    commutator_norm,
    hermitian_eig,
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

    @property
    def profile(self) -> BlockProfile:
        return self.matrix.profile

    def complement(self) -> "Projection":
        return Projection(BlockMatrix.identity(self.profile) - self.matrix)

    def leq(self, other: "Projection", tol: float = 1e-8) -> bool:
        """e <= f, tested as e f e = e."""
        e, f = self.matrix, other.matrix
        return (e @ f @ e - e).fro_norm() <= tol

    def join(self, other: "Projection") -> "Projection":
        """e v f, computed as the support of e + f."""
        return Projection(support_of(self.matrix + other.matrix))

    def trace(self) -> float:
        return float(self.matrix.trace().real)


class Weight:
    """Trace-form positive functional phi(a) = sum_i tr(rho_i a_i)."""

    __slots__ = ("profile", "rho", "__dict__")

    def __init__(self, rho: BlockMatrix):
        defect = (rho - rho.adjoint()).fro_norm()
        scale = max(1.0, rho.fro_norm())
        if defect > 1e-10 * scale:
            raise NotPSD(f"density not Hermitian, defect {defect:.3e}")
        rho = rho.hermitized()
        object.__setattr__(self, "profile", rho.profile)
        object.__setattr__(self, "rho", rho)
        if self._min_eig < -PSD_TOL * max(1.0, self._max_eig):
            raise NotPSD(f"density has eigenvalue {self._min_eig:.3e}")

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

    @cached_property
    def _spectral(self):
        lams, V = hermitian_eig(self.rho)
        return lams, V

    @property
    def _max_eig(self) -> float:
        lams, _ = self._spectral
        return max(float(l[-1]) for l in lams)

    @property
    def _min_eig(self) -> float:
        lams, _ = self._spectral
        return min(float(l[0]) for l in lams)

    @property
    def is_faithful(self) -> bool:
        top = self._max_eig
        return top > 0.0 and self._min_eig > SUPPORT_CUTOFF * top

    def require_faithful(self, what: str = "operation"):
        if not self.is_faithful:
            raise NotFaithful(f"{what} requires a faithful weight")

    def value(self, a: BlockMatrix) -> complex:
        if a.profile != self.profile:
            raise ProfileMismatch("element profile differs from weight profile")
        return complex(
            sum(np.trace(r @ b) for r, b in zip(self.rho.blocks, a.blocks))
        )

    def total(self) -> float:
        return float(self.rho.trace().real)

    def power(self, t) -> BlockMatrix:
        """rho^t by spectral calculus, support convention for t >= 0."""
        t = float(t)
        if t < 0 and not self.is_faithful:
            raise NotFaithful("negative power of a non-faithful density")
        lams, V = self._spectral
        return _spectral_power(self.profile, lams, V.blocks, t)

    def imaginary_power(self, t: float) -> BlockMatrix:
        """The unitary rho^{it} (faithful weights only)."""
        self.require_faithful("rho^{it}")
        lams, V = self._spectral
        phases = [np.exp(1j * t * np.log(lam)) for lam in lams]
        return _from_spectrum(self.profile, phases, V.blocks)


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


_DEFAULT_T_SAMPLES = (0.7, 1.3, 2.9)


def centralizer_tests(w: Weight, d: BlockMatrix, t_samples=_DEFAULT_T_SAMPLES):
    """The two operational membership tests for the centralizer of w.

    Returns (commutator_test, orbit_test): whether h and d commute, and
    whether the modular orbit sigma_t(d) stays at d for every sampled t.
    The equivalence of the two is exactly what makes the centralizer the
    fixed-point algebra of the modular group.
    """
    w.require_faithful("centralizer membership")
    h = w.rho
    scale = (1.0 + d.max_abs()) * max(h.max_abs(), 1e-300)
    comm_ok = commutator_norm(h, d) < 1e-9 * scale
    orbit_defect = max(
        (modular_conjugate(w, t, d) - d).fro_norm() for t in t_samples
    )
    orbit_ok = orbit_defect < 1e-8 * max(1.0, d.fro_norm())
    return comm_ok, orbit_ok


def in_centralizer(w: Weight, d: BlockMatrix, t_samples=_DEFAULT_T_SAMPLES) -> bool:
    """Membership of d in the centralizer of w.

    Cross-checks the commutator test against the modular-orbit test and
    refuses to answer if they disagree (they agree for every valid input;
    disagreement signals numerical breakdown).
    """
    comm_ok, orbit_ok = centralizer_tests(w, d, t_samples)
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


@dataclass(frozen=True)
class SubalgebraBasis:
    """Hilbert-Schmidt orthonormal basis of a *-subalgebra, with its unit."""

    profile: BlockProfile
    elements: tuple
    unit: BlockMatrix

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def coords(self, x: BlockMatrix) -> np.ndarray:
        return np.array([b.hs_inner(x) for b in self.elements])

    def span_residual(self, x: BlockMatrix) -> float:
        """Frobenius distance from x to the span of the basis."""
        c = self.coords(x)
        rec = BlockMatrix.zeros(self.profile)
        for coef, b in zip(c, self.elements):
            rec = rec + coef * b
        return (x - rec).fro_norm()

    def contains(self, x: BlockMatrix, tol: float = 1e-8) -> bool:
        return self.span_residual(x) <= tol * max(1.0, x.fro_norm())


def _orthonormalize(rows: np.ndarray, candidates: np.ndarray, tol: float = 1e-9):
    """Grow an orthonormal row basis by Gram-Schmidt with re-orthogonalisation."""
    basis = [r for r in rows]
    for cand in candidates:
        v = cand.copy()
        nrm0 = np.linalg.norm(v)
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for b in basis:
                v = v - np.vdot(b, v) * b
        nrm = np.linalg.norm(v)
        if nrm > tol * max(1.0, nrm0):
            basis.append(v / nrm)
    return np.array(basis) if basis else rows


def generate_algebra(generators) -> SubalgebraBasis:
    """Orthonormal basis of the smallest *-algebra containing the generators.

    Iterates span -> span + span * span until the dimension stabilises; the
    seed span already contains the adjoints, so every iterate is *-closed.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    profile = generators[0].profile
    ambient = profile.coord_dim
    seed = []
    for g in generators:
        if g.profile != profile:
            raise ProfileMismatch("generators live on different profiles")
        seed.append(g.flat())
        seed.append(g.adjoint().flat())
    basis = _orthonormalize(np.zeros((0, ambient), dtype=complex), np.array(seed))
    for _ in range(ambient + 1):
        mats = [BlockMatrix.unflat(profile, row) for row in basis]
        products = []
        for x in mats:
            for y in mats:
                products.append((x @ y).flat())
        grown = _orthonormalize(basis, np.array(products))
        if grown.shape[0] == basis.shape[0]:
            elements = tuple(BlockMatrix.unflat(profile, row) for row in basis)
            unit = _algebra_unit(profile, elements)
            return SubalgebraBasis(profile=profile, elements=elements, unit=unit)
        basis = grown
        if basis.shape[0] > ambient:
            break
    raise NoConvergence("algebra dimension failed to stabilise")


def _algebra_unit(profile: BlockProfile, elements) -> BlockMatrix:
    """The unit of the algebra spanned by an orthonormal basis.

    Solves u b_k = b_k for all k by least squares in basis coordinates and
    checks the residual (a finite-dimensional *-algebra always has a unit).
    """
    dim = len(elements)
    cols = []
    target = []
    for bk in elements:
        target.append(bk.flat())
        cols.append(np.array([(bj @ bk).flat() for bj in elements]))
    # Stack: rows are (j -> b_j b_k) per k; unknown coefficient vector c.
    lhs = np.concatenate([c.T for c in cols], axis=0)
    rhs = np.concatenate(target)
    coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    unit = BlockMatrix.zeros(profile)
    for c, b in zip(coeffs, elements):
        unit = unit + c * b
    worst = max((unit @ b - b).fro_norm() for b in elements)
    if worst > 1e-8 * max(1.0, max(b.fro_norm() for b in elements)):
        raise NoConvergence(f"generated span has no unit (residual {worst:.3e})")
    return unit.hermitized()
