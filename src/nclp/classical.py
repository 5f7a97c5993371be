"""Commutative layer: atomic measure spaces and classical composition operators.

Finite measure spaces with strictly positive atom masses make every
"almost everywhere" identification exact: null sets are excluded at the type
level.  Point transformations between such spaces induce operators on the
weighted sequence spaces l^p(m), and the boundedness criterion, its
five-step factorisation, the epsilon-delta modulus and the consistency with
the diagonal noncommutative picture are all computable exactly.  Every
classical map is diagonal: on the 1x1 blocks of an atomic space it is an
index map plus a scale, held as its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compop import SuperOperator, build_composition
from .errors import NoConvergence, ProfileMismatch, TooLarge
from .exponents import Exponent, holder_complement, ratio, require_order
from .jordan import JordanMorphismSpec, Tile
from .matcore import BlockProfile, _lp_norm
from .vnops import Weight

_ENUM_LIMIT = 20


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Labelled atoms with strictly positive masses (null sets are quotiented away)."""

    atoms: tuple
    mass: tuple

    def __init__(self, atoms, mass):
        atoms = tuple(atoms)
        mass = tuple(float(m) for m in mass)
        if len(atoms) != len(mass):
            raise ProfileMismatch("one mass per atom required")
        if len(set(atoms)) != len(atoms):
            raise ProfileMismatch("atom labels must be distinct")
        if not atoms:
            raise ProfileMismatch("a measure space needs at least one atom")
        if any(m <= 0 for m in mass):
            raise ProfileMismatch("all atom masses must be strictly positive")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "mass", mass)

    def index(self, atom) -> int:
        return self.atoms.index(atom)

    def mass_of(self, atom) -> float:
        return self.mass[self.index(atom)]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def profile(self) -> BlockProfile:
        return BlockProfile([1] * self.size)

    def weight(self) -> Weight:
        """The diagonal density realising integration against the masses."""
        return Weight.diagonal(self.profile(), np.array(self.mass, dtype=float))


@dataclass(frozen=True)
class PointMap:
    """A partial point transformation T : Y subset X2 -> X1."""

    mapping: tuple         # pairs (y, T(y))

    def __init__(self, mapping):
        object.__setattr__(self, "mapping", tuple(dict(mapping).items()))

    def validate(self, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace):
        for y, x in self.mapping:
            if y not in m2.atoms:
                raise ProfileMismatch(f"domain atom {y!r} is not in X2")
            if x not in m1.atoms:
                raise ProfileMismatch(f"target atom {x!r} is not in X1")


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of X2-atoms covering the domain of the point map."""

    blocks: tuple

    @classmethod
    def from_preimages(cls, T: PointMap) -> "Partition":
        by_target = {}
        for y, x in T.mapping:
            by_target.setdefault(x, []).append(y)
        return cls(blocks=tuple(tuple(sorted(v, key=str)) for _, v in sorted(
            by_target.items(), key=lambda kv: str(kv[0])
        )))


def pushforward(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace):
    """(masses of m2 o T^{-1} on the atoms of X1, aligned with m1.atoms; its support atoms)."""
    T.validate(m1, m2)
    out = np.zeros(m1.size)
    for y, x in T.mapping:
        out[m1.index(x)] += m2.mass_of(y)
    support = tuple(a for a, v in zip(m1.atoms, out) if v > 0)
    return out, support


def rn_derivative(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace):
    """d(m2 o T^{-1}) / d m1, defined on every atom of X1 (zero off the support)."""
    pushed, _ = pushforward(T, m1, m2)
    return pushed / np.array(m1.mass)


@dataclass(frozen=True)
class CriterionResult:
    r: Exponent
    norm_f: float
    bound: float
    measured: float        # the Lagrange witness's value, the exact norm


def criterion(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
              p, q) -> CriterionResult:
    """The boundedness criterion for the induced operator l^p(m1) -> l^q(m2), with its witness.

    r = p/(p-q), the conjugate of p/q: infinite when p = q, and 1 at
    p = inf with q finite.  The operator is bounded iff the derivative of
    m2 o T^{-1} lies in L^r(m1), and then its norm is at most norm_f^{1/q}
    where norm_f is that L^r norm; the bound is attained (`exact_diagonal_norm`),
    and the witness's value is checked against the direct map (`build_classical`).
    """
    return build_classical(T, m1, m2, p, q).criterion


def exact_diagonal_norm(pushed: np.ndarray, m1: FiniteMeasureSpace, p: Exponent, q: Exponent
                        ) -> CriterionResult:
    """The criterion and the exact norm of the classical operator whose pushforward is `pushed`.

    With f = pushed / m1, the Lagrange profile g = f^{1/(p-q)} on the support
    of f (for p = q, the indicator of the largest f) attains the norm: its
    value ||g o T||_q / ||g||_p, `measured`, is the bound ||f||_r^{1/q} (0 when
    f is 0, also at q = inf).  g and ||f||_r are taken from f / max f (the value
    is homogeneous of degree 0 in g), so p just above q cannot overflow them.
    Raises NoConvergence if the value exceeds the bound by more than 1e-9 relative.
    """
    masses = np.array(m1.mass)
    f = pushed / masses
    r = ratio(p, q).conjugate()
    top = float(np.max(f))
    pos = np.where(f > 0)[0]
    if pos.size == 0:
        return CriterionResult(r=r, norm_f=top, bound=0.0, measured=0.0)
    pf, qf, rf = float(p), float(q), float(r)
    norm_f = top if r.is_inf else top * float(np.sum(masses * (f / top) ** rf)) ** (1.0 / rf)
    bound = norm_f ** (1.0 / qf)
    g = np.zeros_like(f)
    if p == q:
        g[max(pos, key=lambda i: f[i])] = 1.0
    else:
        # 1/(p-q) from the exact rationals: p just above q may have float(p) == float(q)
        lagrange = 0.0 if p.is_inf else float(1 / (p.fraction - q.fraction))
        g[pos] = (f[pos] / top) ** lagrange
    num = float(np.sum(masses * f * g ** qf)) ** (1.0 / qf)
    den = float(np.sum(masses * g ** pf)) ** (1.0 / pf)   # > 0: g is 1 at the largest f
    measured = num / den
    if measured > bound * (1.0 + 1e-9):
        raise NoConvergence(f"measured norm {measured:.12f} exceeds criterion bound {bound:.12f}")
    return CriterionResult(r=r, norm_f=norm_f, bound=bound, measured=measured)


def _index_map(dom: int, cod: int, p, q, rows, cols, scale) -> SuperOperator:
    """The map from dom atoms to cod atoms with out[rows[k]] = scale[k] * x[cols[k]], as its matrix.

    Every block of an atomic space is 1x1, so flat coordinates are the
    diagonal values and each classical map is an index map plus a scale.
    """
    mat = np.zeros((cod, dom))
    mat[np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)] = scale
    return SuperOperator.from_matrix(BlockProfile([1] * dom), BlockProfile([1] * cod), p, q, mat)


def _max_column_norm(mat: np.ndarray) -> float:
    """Largest norm of the image of a basis element: the max column norm of a matrix."""
    return float(np.max(np.linalg.norm(mat, axis=0), initial=0.0))


@dataclass(frozen=True, eq=False)
class ClassicalOperator:
    """f -> f o T (zero off the domain), `direct`, with its pushforward and its criterion.

    On embedded coordinates x = f m1^{1/p}, `direct` sends atom T(y) to atom y
    with scale m2(y)^{1/q} / m1(T(y))^{1/p}; `criterion.measured` is its norm.
    """

    T: PointMap
    m1: FiniteMeasureSpace
    m2: FiniteMeasureSpace
    p: Exponent
    q: Exponent
    pushed: np.ndarray
    support: tuple
    criterion: CriterionResult
    direct: SuperOperator


def build_classical(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
                    p, q) -> ClassicalOperator:
    """The classical composition operator, with its criterion checked twice.

    The witness's value is checked against the bound (`exact_diagonal_norm`),
    then against the norm of the direct matrix M in closed form: each row of M
    has at most one entry, so ||Mx||_q^q = sum_j |x_j|^q c_j^q with c_j the
    q-norm of column j, and by Holder ||M|| = ||c||_rho, 1/rho = 1/q - 1/p.
    The two must agree within 1e-9 relative, or NoConvergence is raised.
    """
    p, q = Exponent(p), Exponent(q)
    require_order(p, q)
    pushed, support = pushforward(T, m1, m2)
    rows = [m2.index(y) for y, _ in T.mapping]
    cols = [m1.index(x) for _, x in T.mapping]
    w1 = np.array(m1.mass) ** p.float_reciprocal()
    w2 = np.array(m2.mass) ** q.float_reciprocal()
    crit = exact_diagonal_norm(pushed, m1, p, q)
    direct = _index_map(m1.size, m2.size, p, q, rows, cols, w2[rows] * (1.0 / w1[cols]))
    columns = float(_lp_norm(_lp_norm(np.abs(direct.matrix()).T, q), holder_complement(p, q)))
    if not (1.0 - 1e-9) * columns <= crit.measured <= (1.0 + 1e-9) * columns:
        raise NoConvergence(f"witness value {crit.measured:.12g} disagrees with the "
                            f"column norm form {columns:.12g}")
    return ClassicalOperator(T=T, m1=m1, m2=m2, p=p, q=q, pushed=pushed, support=support,
                             criterion=crit, direct=direct)


@dataclass(frozen=True)
class PipelineResult:
    """The five factors of a classical composition operator and their checks."""

    restriction: SuperOperator        # (I)   restrict to the support Z
    change: SuperOperator             # (II)  change weights m1|Z -> m2 o T^{-1}
    isometry: SuperOperator           # (III) f -> f o T onto the pullback algebra
    refinement: SuperOperator         # (IV)  include coarse functions in l^q(Y)
    extension: SuperOperator          # (V)   extend by zero to all of X2
    partition: Partition
    composite_residual: float
    isometry_residual: float


def five_step_pipeline(C: ClassicalOperator) -> PipelineResult:
    """Factor the composition operator through its five canonical stages.

    Each stage is an index map plus a scale (`_index_map`) built from index
    arrays read off the partition, so the composite is one matrix product.
    `composite_residual`, the largest column norm of its difference with the
    direct matrix, is checked (by `nclp classical`) within 1e-10 of that
    matrix's largest column norm.  Stage III, M, has one entry per row, so ||Mx||_q^q =
    sum_j |x_j|^q c_j^q with c_j the q-norm of column j (max_j |x_j| c_j at
    q = inf): `isometry_residual` is max_j |c_j - 1|, exact and unsampled.
    """
    T, m1, m2, p, q, support = C.T, C.m1, C.m2, C.p, C.q, C.support
    part = Partition.from_preimages(T)
    if not support:
        # empty domain: the operator is zero and factors through the zero
        # space, so every stage degenerates to it
        zero = C.direct
        return PipelineResult(restriction=zero, change=zero, isometry=zero, refinement=zero,
                              extension=zero, partition=part, composite_residual=0.0,
                              isometry_residual=0.0)
    image = dict(T.mapping)
    # blocks of the pullback algebra, in bijection with the support atoms
    block_of = {y: b for b, blk in enumerate(part.blocks) for y in blk}
    block_mass = np.array([sum(m2.mass_of(y) for y in blk) for blk in part.blocks])
    y_idx = [j for j, y in enumerate(m2.atoms) if y in block_of]   # Y = the domain, in X2 order
    z_idx = [m1.index(a) for a in support]
    inv_p, inv_q = p.float_reciprocal(), q.float_reciprocal()
    n, ny = len(support), len(y_idx)

    restriction = _index_map(m1.size, n, p, p, range(n), z_idx, 1.0)
    # (II): the change of weights x -> k^{1/2q} h^{-1/2p} x h^{-1/2p} k^{1/2q}
    change = _index_map(n, n, p, q, range(n), range(n),
                        C.pushed[z_idx] ** inv_q / np.array(m1.mass)[z_idx] ** inv_p)
    # (III): relabel support atoms as partition blocks; the masses agree exactly
    perm = [support.index(image[blk[0]]) for blk in part.blocks]
    isometry = _index_map(n, n, q, q, range(n), perm, 1.0)
    # (IV): expand block values to the atoms of Y
    member = [block_of[m2.atoms[j]] for j in y_idx]
    refinement = _index_map(n, ny, q, q, range(ny), member,
                            (np.array(m2.mass)[y_idx] / block_mass[member]) ** inv_q)
    # (V): extend by zero off the domain
    extension = _index_map(ny, m2.size, q, q, y_idx, range(ny), 1.0)

    composite = extension.compose(refinement).compose(isometry).compose(change).compose(restriction)
    # every block is 1x1, so the Schatten q-norm is the l^q norm of the absolute values
    columns = _lp_norm(np.abs(isometry.matrix()).T, q)
    return PipelineResult(
        restriction=restriction, change=change, isometry=isometry,
        refinement=refinement, extension=extension, partition=part,
        composite_residual=_max_column_norm(composite.matrix() - C.direct.matrix()),
        isometry_residual=float(np.max(np.abs(columns - 1.0))),
    )


def eps_delta_modulus(phi0, phi1, eps: float) -> float:
    """The largest usable delta in the epsilon-delta continuity statement.

    delta* = min { phi1(E) : phi0(E) >= eps } over non-empty atom subsets E;
    every delta < delta* works, and delta* = +inf when no subset reaches eps.
    Exact enumeration, limited to 20 atoms: the 2^n subset sums are built by
    doubling, each in ascending atom order; a NaN phi1(E) is passed over.
    """
    phi0 = [float(v) for v in phi0]
    phi1 = [float(v) for v in phi1]
    if len(phi0) != len(phi1):
        raise ProfileMismatch("weight vectors differ in length")
    n = len(phi0)
    if n > _ENUM_LIMIT:
        raise TooLarge(f"{n} atoms exceed the enumeration limit {_ENUM_LIMIT}")
    sums = np.zeros((2, 1))
    for pair in zip(phi0, phi1):
        sums = np.concatenate([sums, sums + np.array(pair)[:, None]], axis=1)
    v0, v1 = sums[:, 1:]   # the empty subset does not count
    return float(np.fmin.reduce(v1[v0 >= eps], initial=np.inf))


def point_map_morphism(T: PointMap, m1: FiniteMeasureSpace,
                       m2: FiniteMeasureSpace) -> JordanMorphismSpec:
    """The point map as a diagonal-algebra morphism f -> f o T (H tiles)."""
    T.validate(m1, m2)
    tiles = [
        Tile(src=m1.index(x), dst=m2.index(y), offset=0, kind="H")
        for y, x in T.mapping
    ]
    return JordanMorphismSpec(m1.profile(), m2.profile(), tiles)


@dataclass(frozen=True)
class ConsistencyReport:
    max_residual: float
    ok: bool


def diagonal_consistency(C: ClassicalOperator) -> ConsistencyReport:
    """Cross-validate the classical operator against the diagonal noncommutative one.

    Encodes the spaces as diagonal-block algebras with the masses as
    densities and T as an H-tile morphism; the two constructions must agree
    on a basis within 1e-9 relative: the largest column norm of the
    difference of their matrices against the largest column norm of the
    classical one.
    """
    spec = point_map_morphism(C.T, C.m1, C.m2)
    c_nc = build_composition(spec, C.m1.weight(), C.m2.weight(), C.p, C.q)
    direct = C.direct.matrix()
    worst = _max_column_norm(c_nc.matrix() - direct)
    return ConsistencyReport(max_residual=worst, ok=worst <= 1e-9 * _max_column_norm(direct))
