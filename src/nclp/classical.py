"""Commutative layer: atomic measure spaces and classical composition operators.

Finite measure spaces with strictly positive atom masses make every
"almost everywhere" identification exact: null sets are excluded at the type
level.  Point transformations between such spaces induce operators on the
weighted sequence spaces l^p(m), and the boundedness criterion, its
five-step factorisation, the epsilon-delta modulus and the consistency with
the diagonal noncommutative picture are all computable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compop import SuperOperator, build_composition, change_of_weights, operator_norm
from .errors import ExponentOrder, NoConvergence, ProfileMismatch, TooLarge
from .exponents import Exponent, INF, coerce, require_order
from .jordan import JordanMorphismSpec, Tile
from .matcore import BlockMatrix, BlockProfile, schatten_norm
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
    def total_mass(self) -> float:
        return float(sum(self.mass))

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

    domain: tuple          # atoms of X2 on which T is defined
    mapping: tuple         # pairs (y, T(y))

    def __init__(self, mapping):
        pairs = tuple((y, x) for y, x in dict(mapping).items())
        object.__setattr__(self, "mapping", pairs)
        object.__setattr__(self, "domain", tuple(y for y, _ in pairs))

    def image_of(self, y):
        for yy, x in self.mapping:
            if yy == y:
                return x
        raise KeyError(y)

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
    """The measure m2 o T^{-1} on the atoms of X1, plus its support.

    Returns (per-atom masses aligned with m1.atoms, support atom tuple).
    """
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


def criterion(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
              p, q) -> CriterionResult:
    """The boundedness criterion for the induced operator l^p(m1) -> l^q(m2).

    r = p/(p-q) (infinite when p = q); the operator is bounded iff the
    derivative of m2 o T^{-1} lies in L^r(m1), and then its norm is at most
    norm_f^{1/q} where norm_f is that L^r norm.
    """
    p, q = coerce(p), coerce(q)
    require_order(p, q)
    if p.is_inf:
        raise ExponentOrder("the criterion covers finite p only")
    f = rn_derivative(T, m1, m2)
    masses = np.array(m1.mass)
    if p == q:
        r = INF
        norm_f = float(np.max(f))
    else:
        r = Exponent(p.fraction / (p.fraction - q.fraction))
        rf = float(r)
        norm_f = float(np.sum(masses * f ** rf) ** (1.0 / rf))
    bound = norm_f ** (1.0 / float(q))
    return CriterionResult(r=r, norm_f=norm_f, bound=bound)


def _diag_values(x: BlockMatrix) -> np.ndarray:
    return np.array([blk[0, 0] for blk in x.blocks])


def _classical_action(T, m1, m2, p, q):
    """Embedded-coordinate action of f -> f o T between weighted sequence spaces."""
    p, q = coerce(p), coerce(q)
    inv_p = float(p.reciprocal())
    inv_q = float(q.reciprocal())
    w1 = np.array(m1.mass) ** inv_p
    w2 = np.array(m2.mass) ** inv_q
    idx = {y: m1.index(x) for y, x in T.mapping}

    def action(x: BlockMatrix) -> BlockMatrix:
        f = _diag_values(x) / w1
        out = np.zeros(m2.size, dtype=complex)
        for j, y in enumerate(m2.atoms):
            if y in idx:
                out[j] = w2[j] * f[idx[y]]
        return BlockMatrix.diagonal(m2.profile(), out)

    return action


def exact_diagonal_norm(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
                        p, q) -> float:
    """Exact l^p(m1) -> l^q(m2) norm of the composition operator, from its witness.

    The Lagrange profile g = f^{1/(p-q)} on the support of the derivative f
    (for p = q, the indicator of the largest f) attains the norm, and its
    value ||g o T||_q / ||g||_p is the criterion bound ||f||_r^{1/q}.
    """
    p, q = coerce(p), coerce(q)
    require_order(p, q)
    f = rn_derivative(T, m1, m2)
    masses = np.array(m1.mass)
    pos = np.where(f > 0)[0]
    if pos.size == 0:
        return 0.0
    pf, qf = float(p), float(q)
    g = np.zeros_like(f)
    if p == q:
        g[max(pos, key=lambda i: f[i])] = 1.0
    else:
        g[pos] = f[pos] ** (1.0 / (pf - qf))
    num = float(np.sum(masses * f * g ** qf)) ** (1.0 / qf)
    den = float(np.sum(masses * g ** pf)) ** (1.0 / pf)
    return num / den if den > 0 else 0.0


def build_classical(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
                    p, q, cross_check: bool = True) -> SuperOperator:
    """The composition operator f -> f o T (zero off the domain) as a diagonal map.

    Asserts the measured norm against the criterion bound: the exact norm
    (exact_diagonal_norm) must stay within bound + 1e-9, and the alternating
    maximiser is run as an independent cross-check from below.
    """
    p, q = coerce(p), coerce(q)
    require_order(p, q)
    T.validate(m1, m2)
    op = SuperOperator(
        m1.profile(), m2.profile(), p, q,
        _classical_action(T, m1, m2, p, q),
        check=False,
    )
    if cross_check:
        crit = criterion(T, m1, m2, p, q)
        measured = exact_diagonal_norm(T, m1, m2, p, q)
        if measured > crit.bound + 1e-9:
            raise NoConvergence(
                f"measured norm {measured:.12f} exceeds criterion bound {crit.bound:.12f}"
            )
        est = operator_norm(op, restarts=3, max_iter=60, seed=3)
        if est.lower_bound > measured + 1e-6:
            raise NoConvergence(
                f"alternating maximiser {est.lower_bound:.12f} beats the exact norm"
            )
    return op


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


def five_step_pipeline(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
                       p, q) -> PipelineResult:
    """Factor the composition operator through its five canonical stages.

    The composite of the five maps must coincide with the direct operator on
    a basis (within 1e-10), and the third stage is an exact isometry.
    """
    p, q = coerce(p), coerce(q)
    require_order(p, q)
    T.validate(m1, m2)
    pushed, support = pushforward(T, m1, m2)
    part = Partition.from_preimages(T)
    z_idx = [m1.index(a) for a in support]

    space_z1 = (
        FiniteMeasureSpace(support, [m1.mass[i] for i in z_idx])
        if support else None
    )
    if space_z1 is None:
        # empty domain: the operator factors through the zero space, so every
        # stage degenerates to the zero map into the target
        zero = BlockMatrix.zeros(m2.profile())
        direct = build_classical(T, m1, m2, p, q, cross_check=False)
        trivial = SuperOperator(m1.profile(), m2.profile(), p, q,
                                lambda x: zero, check=False)
        residual = max(
            (direct.apply(BlockMatrix.diagonal(m1.profile(), np.eye(m1.size)[i]))
             ).fro_norm()
            for i in range(m1.size)
        )
        return PipelineResult(
            restriction=trivial, change=trivial, isometry=trivial,
            refinement=trivial, extension=trivial, partition=part,
            composite_residual=residual, isometry_residual=0.0,
        )
    nu = [pushed[i] for i in z_idx]
    space_z_nu = FiniteMeasureSpace(support, nu)
    # blocks of the pullback algebra, in bijection with the support atoms
    block_labels = tuple("|".join(str(y) for y in blk) for blk in part.blocks)
    block_targets = [T.image_of(blk[0]) for blk in part.blocks]
    block_mass = [sum(m2.mass_of(y) for y in blk) for blk in part.blocks]
    space_blocks = FiniteMeasureSpace(block_labels, block_mass)
    y_atoms = tuple(y for y in m2.atoms if y in set(T.domain))
    space_y = FiniteMeasureSpace(y_atoms, [m2.mass_of(y) for y in y_atoms])

    inv_q = float(q.reciprocal())

    def restriction_action(x):
        vals = _diag_values(x)
        return BlockMatrix.diagonal(space_z1.profile(), vals[z_idx])

    restriction = SuperOperator(m1.profile(), space_z1.profile(), p, p,
                                restriction_action, check=False)

    change = change_of_weights(space_z1.weight(), space_z_nu.weight(), p, q).operator

    # (III): relabel support atoms as partition blocks; the masses agree exactly
    perm = [support.index(t) for t in block_targets]

    def isometry_action(x):
        vals = _diag_values(x)
        return BlockMatrix.diagonal(space_blocks.profile(), vals[perm])

    isometry = SuperOperator(space_z_nu.profile(), space_blocks.profile(), q, q,
                             isometry_action, check=False)

    # (IV): expand block values to the atoms of Y
    member_block = {}
    for b, blk in enumerate(part.blocks):
        for y in blk:
            member_block[y] = b
    wq_blocks = np.array(block_mass) ** inv_q
    wq_y = np.array(space_y.mass) ** inv_q

    def refinement_action(x):
        vals = _diag_values(x) / wq_blocks
        out = np.array([wq_y[i] * vals[member_block[y]]
                        for i, y in enumerate(y_atoms)], dtype=complex)
        return BlockMatrix.diagonal(space_y.profile(), out)

    refinement = SuperOperator(space_blocks.profile(), space_y.profile(), q, q,
                               refinement_action, check=False)

    def extension_action(x):
        vals = _diag_values(x)
        out = np.zeros(m2.size, dtype=complex)
        for i, y in enumerate(y_atoms):
            out[m2.index(y)] = vals[i]
        return BlockMatrix.diagonal(m2.profile(), out)

    extension = SuperOperator(space_y.profile(), m2.profile(), q, q,
                              extension_action, check=False)

    composite = extension.compose(refinement).compose(isometry).compose(change).compose(restriction)
    direct = build_classical(T, m1, m2, p, q, cross_check=False)
    comp_res = 0.0
    for i in range(m1.size):
        basis = BlockMatrix.diagonal(m1.profile(), np.eye(m1.size)[i])
        comp_res = max(comp_res, (composite.apply(basis) - direct.apply(basis)).fro_norm())
    iso_res = 0.0
    iso_rng = np.random.default_rng(17)
    probes = [np.eye(space_z_nu.size)[i] for i in range(space_z_nu.size)]
    probes += [iso_rng.standard_normal(space_z_nu.size)
               + 1j * iso_rng.standard_normal(space_z_nu.size) for _ in range(3)]
    for vec in probes:
        x = BlockMatrix.diagonal(space_z_nu.profile(), vec)
        iso_res = max(iso_res, abs(
            schatten_norm(isometry.apply(x), q) - schatten_norm(x, q)
        ))
    return PipelineResult(
        restriction=restriction, change=change, isometry=isometry,
        refinement=refinement, extension=extension, partition=part,
        composite_residual=comp_res, isometry_residual=iso_res,
    )


def eps_delta_modulus(phi0, phi1, eps: float) -> float:
    """The largest usable delta in the epsilon-delta continuity statement.

    delta* = min { phi1(E) : phi0(E) >= eps } over atom subsets E; every
    delta < delta* works, and delta* = +inf when no subset reaches eps.
    Exact enumeration, limited to 20 atoms.
    """
    phi0 = [float(v) for v in phi0]
    phi1 = [float(v) for v in phi1]
    if len(phi0) != len(phi1):
        raise ProfileMismatch("weight vectors differ in length")
    n = len(phi0)
    if n > _ENUM_LIMIT:
        raise TooLarge(f"{n} atoms exceed the enumeration limit {_ENUM_LIMIT}")
    best = np.inf
    for mask in range(1, 1 << n):
        v0 = sum(phi0[i] for i in range(n) if mask >> i & 1)
        if v0 >= eps:
            v1 = sum(phi1[i] for i in range(n) if mask >> i & 1)
            best = min(best, v1)
    return float(best)


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


def diagonal_consistency(T: PointMap, m1: FiniteMeasureSpace, m2: FiniteMeasureSpace,
                         p, q) -> ConsistencyReport:
    """Cross-validate the classical operator against the diagonal noncommutative one.

    Encodes the spaces as diagonal-block algebras with the masses as
    densities and T as an H-tile morphism; the two constructions must agree
    on a basis within 1e-9.
    """
    p, q = coerce(p), coerce(q)
    spec = point_map_morphism(T, m1, m2)
    c_nc = build_composition(spec, m1.weight(), m2.weight(), p, q)
    c_cl = build_classical(T, m1, m2, p, q, cross_check=False)
    worst = 0.0
    for i in range(m1.size):
        basis = BlockMatrix.diagonal(m1.profile(), np.eye(m1.size)[i])
        worst = max(worst, (c_nc.apply(basis) - c_cl.apply(basis)).fro_norm())
    return ConsistencyReport(max_residual=worst, ok=worst < 1e-9)
