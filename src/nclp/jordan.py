"""Normal Jordan *-morphisms in canonical tile form.

Every normal Jordan *-morphism between direct sums of matrix blocks is
unitarily equivalent to a sum of tiles: each tile copies one source block
into a diagonal range of a destination block, either as written
(homomorphic, kind H) or transposed (antihomomorphic, kind A), optionally
conjugated by a unitary.  Storing that witness makes the central projection
z splitting the map into its multiplicative and anti-multiplicative parts
exact instead of numerically mined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidMorphism, NoConvergence, ProfileMismatch
from .matcore import (
    BlockMatrix,
    BlockProfile,
    KrausTerms,
    block_stacks,
    flat_columns,
)
from .sampling import generator, hermitian
from .vnops import Projection, SubalgebraBasis, Weight

# A map passes as a Jordan *-morphism when every `jordan_defect` residual is below this.
JORDAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Tile:
    """One diagonal copy of a source block inside a destination block."""

    src: int
    dst: int
    offset: int
    kind: str  # "H" (as written) or "A" (transposed)
    conj_unitary: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("H", "A"):
            raise ValueError(f"tile kind must be 'H' or 'A', got {self.kind!r}")


def _as_unitary(u, dim, what):
    arr = np.array(u, dtype=complex)
    if arr.shape != (dim, dim):
        raise ProfileMismatch(f"{what} has shape {arr.shape}, expected {(dim, dim)}")
    defect = np.linalg.norm(arr @ arr.conj().T - np.eye(dim))
    if defect > 1e-8 * dim:
        raise InvalidMorphism(f"{what} is not unitary (defect {defect:.3e})")
    arr.setflags(write=False)
    return arr


class JordanMorphismSpec:
    """A normal Jordan *-morphism between block profiles, stored as tiles.

    Each tile has a frame E (`_frame`) and sends x to E x E* (E x^T E* for
    an A tile): one Kraus term (`kraus_terms`).  `matrix()` writes that
    action down in closed form, and `apply` and `unit_image` act through
    it; `hom_projection` sums E E*.

    The constructor refuses tile data that is not a Jordan morphism by one
    Gram test per destination block.  With F = [E_t ...] the block's tile
    frames side by side, G = F*F - 1 and A = (+)_t a_t for a source element
    a (a_t its source block, transposed for an A tile), J(a) = F A F* there,
    J(a*) = J(a)* and
        J(a)J(b) + J(b)J(a) - J(ab + ba) = F A G B F* + F B G A F*.
    On matrix units ||A||, ||B|| <= 1, so every `jordan_defect` residual is
    at most 2 ||F||^2 ||G|| <= 2d(1 + d), d = ||G||_2 from one `eigvalsh`:
    refusing 2d(1 + d) > JORDAN_TOL is never looser than the pair check,
    and G = 0 makes J a Jordan morphism.  A block with no unitary has
    disjoint identity columns as frames (G = 0) and is skipped.
    """

    __slots__ = ("profile1", "profile2", "tiles", "block_unitaries", "_matrix")

    def __init__(self, profile1: BlockProfile, profile2: BlockProfile, tiles,
                 block_unitaries=None):
        norm_tiles = []
        for t in tiles:
            if not 0 <= t.src < profile1.block_count:
                raise ProfileMismatch(f"tile source index {t.src} out of range")
            if not 0 <= t.dst < profile2.block_count:
                raise ProfileMismatch(f"tile destination index {t.dst} out of range")
            size = profile1.dims[t.src]
            if t.offset < 0 or t.offset + size > profile2.dims[t.dst]:
                raise ProfileMismatch(
                    f"tile at offset {t.offset} (size {size}) overflows "
                    f"destination block of size {profile2.dims[t.dst]}"
                )
            u = t.conj_unitary
            u = None if u is None else _as_unitary(u, size, "tile unitary")
            kind = "H" if size == 1 else t.kind  # 1x1 sources: H and A coincide, stored as H
            # a tile already in normal form is kept, not copied
            norm_tiles.append(t if u is None and kind == t.kind else
                              Tile(t.src, t.dst, t.offset, kind, u))
        # tiles on one destination block must occupy disjoint diagonal ranges
        by_dst = {}
        for t in norm_tiles:
            by_dst.setdefault(t.dst, []).append(t)
        for dst, group in by_dst.items():
            spans = sorted((t.offset, t.offset + profile1.dims[t.src]) for t in group)
            for (a0, a1), (b0, _) in zip(spans, spans[1:]):
                if b0 < a1:
                    raise ProfileMismatch(f"tiles overlap on destination block {dst}")
        bus = None
        if block_unitaries is not None:
            if len(block_unitaries) != profile2.block_count:
                raise ProfileMismatch("one block unitary slot per destination block")
            bus = tuple(None if u is None else _as_unitary(u, m, f"block unitary {d}")
                        for d, (u, m) in enumerate(zip(block_unitaries, profile2.dims)))
        object.__setattr__(self, "profile1", profile1)
        object.__setattr__(self, "profile2", profile2)
        object.__setattr__(self, "tiles", tuple(norm_tiles))
        object.__setattr__(self, "block_unitaries", bus)
        object.__setattr__(self, "_matrix", None)
        for dst, group in by_dst.items():
            if (bus is None or bus[dst] is None) and all(t.conj_unitary is None for t in group):
                continue
            F = np.column_stack([self._frame(t) for t in group])
            d = float(np.abs(np.linalg.eigvalsh(F.conj().T @ F - np.eye(F.shape[1]))).max())
            if not 2 * d * (1 + d) <= JORDAN_TOL:  # a NaN frame is refused too
                raise InvalidMorphism(
                    f"tile data does not define a Jordan morphism (block {dst}: {d=:.3e})")

    def __setattr__(self, name, value):
        raise AttributeError("JordanMorphismSpec is immutable")

    # -- action ---------------------------------------------------------

    def kraus_terms(self) -> KrausTerms:
        """J as Kraus terms: one (src, dst, kind, E) per tile, E its frame (`_frame`)."""
        return KrausTerms.of(self.profile1, self.profile2,
                             [(t.src, t.dst, t.kind, self._frame(t)) for t in self.tiles])

    def matrix(self) -> np.ndarray:
        """Read-only matrix of J on flat block coordinates, written from `kraus_terms` (cached)."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", self.kraus_terms().matrix())
            self._matrix.setflags(write=False)
        return self._matrix

    def apply(self, a: BlockMatrix) -> BlockMatrix:
        """J(a) = unflat(matrix() @ a.flat())."""
        if a.profile != self.profile1:
            raise ProfileMismatch("element does not match the source profile")
        return BlockMatrix.unflat(self.profile2, self.matrix() @ a.flat())

    def unit_image(self) -> BlockMatrix:
        """J(1), a projection in the destination algebra."""
        return self.apply(BlockMatrix.identity(self.profile1))

    def _frame(self, t: Tile) -> np.ndarray:
        """The tile's frame W[:, offset:offset+n] U (block unitary W, tile unitary U; 1 if none)."""
        w = None if self.block_unitaries is None else self.block_unitaries[t.dst]
        w = np.eye(self.profile2.dims[t.dst], dtype=complex) if w is None else w
        e = w[:, t.offset : t.offset + self.profile1.dims[t.src]]
        return e if t.conj_unitary is None else e @ t.conj_unitary

    def hom_projection(self) -> BlockMatrix:
        """The central projection z of the image algebra under which J is multiplicative.

        z is the unit image of the H tiles' terms: per destination block, the
        sum of E E* over its H tiles, E = `_frame`.
        """
        hom = [group for group in self.kraus_terms().groups if group[0] == "H"]
        return BlockMatrix._of_flat(self.profile2, KrausTerms(self.profile1, self.profile2,
                                                              hom).unit_image())

    def covered_src_blocks(self, kind=None):
        if kind is None:
            return sorted({t.src for t in self.tiles})
        return sorted({t.src for t in self.tiles if t.kind == kind})

    def __repr__(self):
        return (
            f"JordanMorphismSpec({self.profile1.dims} -> {self.profile2.dims}, "
            f"{len(self.tiles)} tiles)"
        )


def identity_morphism(profile: BlockProfile) -> JordanMorphismSpec:
    tiles = [Tile(src=i, dst=i, offset=0, kind="H") for i in range(profile.block_count)]
    return JordanMorphismSpec(profile, profile, tiles)


def transpose_morphism(profile: BlockProfile) -> JordanMorphismSpec:
    tiles = [Tile(src=i, dst=i, offset=0, kind="A") for i in range(profile.block_count)]
    return JordanMorphismSpec(profile, profile, tiles)


@dataclass(frozen=True)
class JordanVerification:
    """Result of checking a map for the Jordan *-morphism laws.

    `failures` lists (law, residual) for each law over JORDAN_TOL: "jordan"
    (`jordan_defect`) and, for a bare callable, "linearity".
    """

    passed: bool
    max_residual: float
    failures: tuple = ()

    def __bool__(self):
        return self.passed


def materialise(fn, profile: BlockProfile):
    """(matrix, codomain profile) of a map from its images of the matrix units.

    Column k holds the flat coordinates of fn(E_k), E_k the k-th matrix
    unit of `profile` in flat order, so matrix @ x.flat() = fn(x).flat()
    whenever fn is linear.  Costs coord_dim calls of fn; ProfileMismatch
    if the images do not all lie on one profile.
    """
    images = [fn(BlockMatrix.matrix_unit(profile, s, i, j))
              for s, d in enumerate(profile.dims) for i in range(d) for j in range(d)]
    if any(im.profile != images[0].profile for im in images):
        raise ProfileMismatch("the images of the matrix units lie on different profiles")
    return np.array([im.flat() for im in images]).T, images[0].profile


def linearity_defect(fn, M: np.ndarray, profile: BlockProfile, seed: int) -> float:
    """Relative gap between fn and its matrix M on one seeded complex element.

    The element is alpha x + y: Hermitian x and y, then complex alpha, drawn
    from generator(seed).  The gap is ||fn(z) - M z||_2 over
    max(1, ||fn(z)||_2, ||M z||_2).  The matrix of a map is read off the
    real matrix units, so only this probe through the map itself catches a
    conjugate-linear map such as x -> J(conj x).
    """
    rng = generator(seed)
    x, y = hermitian(profile, rng), hermitian(profile, rng)
    z = complex(rng.standard_normal(), rng.standard_normal()) * x + y
    lhs, rhs = fn(z).flat(), M @ z.flat()
    return float(np.linalg.norm(lhs - rhs)
                 / max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs)))


# Source matrix units per row chunk of the pair check, as a budget of complex
# entries: a chunk of c units makes (c m, N m) products on an m x m
# destination block.  4096 entries (64 KiB) stay below glibc's default
# 128 KiB mmap threshold, so the chunks are reused heap memory, not pages
# mapped and faulted in afresh on every call.
_PAIR_BUDGET = 1 << 12


@lru_cache(maxsize=64)
def _unit_products(profile: BlockProfile, rows: int) -> tuple:
    """Read-only index data of `jordan_defect` for row chunks of `rows` source units (cached).

    Returns (adj, chunks): adj[k] is the flat index of E_ji for k that of
    E_ij.  A chunk (c0, c1, fwd, rev) covers the pairs (u, v) with
    c0 <= u < c1 and v >= c0; the pairs with v < c0 were covered, as (v, u),
    by an earlier chunk.  A product of two matrix units is E_ij E_jl = E_il
    inside one block and 0 otherwise, n^3 nonzero products per block of
    size n: fwd holds (u - c0, v - c0, t) for those with E_u E_v = E_t, rev
    holds (u - c0, w - c0, t) for those with E_w E_u = E_t.
    """
    at, prods = 0, []
    for n in profile:
        idx = at + np.arange(n * n).reshape(n, n)
        i, j, l = np.indices((n, n, n)).reshape(3, -1)
        prods.append(np.stack([idx[i, j], idx[j, l], idx[i, l]]))
        at += n * n
    u, v, t = np.concatenate(prods, axis=1)
    chunks = []
    for c0 in range(0, profile.coord_dim, rows):
        c1 = min(c0 + rows, profile.coord_dim)
        fwd = (u >= c0) & (u < c1) & (v >= c0)
        rev = (v >= c0) & (v < c1) & (u >= c0)
        chunks.append((c0, c1, (u[fwd] - c0, v[fwd] - c0, t[fwd]),
                       (v[rev] - c0, u[rev] - c0, t[rev])))
    for arr in [a for *_, fwd, rev in chunks for a in fwd + rev]:
        arr.setflags(write=False)
    return profile.transpose_index, tuple(chunks)


def jordan_defect(M: np.ndarray, profile1: BlockProfile, profile2: BlockProfile):
    """(worst, (u, v)): the exact Jordan *-morphism residual of the map with matrix M.

    A linear J is a Jordan *-morphism if and only if, on every pair of the
    N matrix units E_u, E_v of `profile1`,
        J(E_ji) = J(E_ij)*   and   J(E_u) J(E_v) + J(E_v) J(E_u) = J(E_u E_v + E_v E_u);
    bilinearity carries these to all elements, and in finite dimension they
    say that J sends projections to projections.  Per destination block,
    with X the (N, m, m) stack of the images, the products X[u] X[v] come
    from matrix products of the (N m, m) and (m, N m) arrangements of X, in
    row chunks of at most _PAIR_BUDGET entries over the pairs u <= v
    (`_unit_products`); both terms are laid out as (u, i, v, k), so their
    sum needs no transposed copy.  X[t] is subtracted only at the n^3 pairs
    per source block where a product of units is E_t.  `worst` is the
    largest absolute entry of any defect, and (u, v) the flat indices of
    the units where it sits (u == v for an adjoint defect).
    """
    worst, where = 0.0, (0, 0)
    N = profile1.coord_dim
    for X in block_stacks(profile2, M):
        m = X.shape[-1]
        adj, chunks = _unit_products(profile1, max(1, _PAIR_BUDGET // (N * m * m)))
        gap = np.abs(X[adj] - X.conj().swapaxes(1, 2))
        k = int(np.argmax(gap))
        if gap.flat[k] > worst:
            worst, where = float(gap.flat[k]), (k // (m * m),) * 2
        tall = X.reshape(N * m, m)                       # row block u is X[u]
        wide = X.swapaxes(0, 1).reshape(m, N * m)        # column block v is X[v]
        for c0, c1, fwd, rev in chunks:
            c, rest = c1 - c0, N - c0
            S = (tall[c0 * m : c1 * m] @ wide[:, c0 * m :]).reshape(c, m, rest, m)
            S += (tall[c0 * m :] @ wide[:, c0 * m : c1 * m]).reshape(
                rest, m, c, m).transpose(2, 1, 0, 3)
            for a, b, t in (fwd, rev):
                S[a, :, b, :] -= X[t]
            gap = np.abs(S)
            k = int(np.argmax(gap))
            if gap.flat[k] > worst:
                a, rem = divmod(k, m * rest * m)
                worst, where = float(gap.flat[k]), (c0 + a, c0 + rem // m % rest)
    return worst, where


def verify_jordan(morphism, seed: int = 0,
                  profile: BlockProfile | None = None) -> JordanVerification:
    """Decide the Jordan *-morphism laws exactly on the matrix units (`jordan_defect`).

    `morphism` may be a JordanMorphismSpec, a SuperOperator (anything with
    .matrix(), .domain_profile and .codomain_profile) or a bare callable
    (then `profile` is needed).  A spec or an operator is judged by its
    matrix alone: a spec acts through its matrix, and an operator's
    constructor already refused a map that is not linear.  A bare callable
    is materialised once (`materialise`) and then probed for linearity
    through the map itself on one element drawn from `seed`
    (`linearity_defect`); `seed` is used for nothing else.  Passes when
    every residual is below JORDAN_TOL.
    """
    fn = None
    if isinstance(morphism, JordanMorphismSpec):
        profile, profile2, M = morphism.profile1, morphism.profile2, morphism.matrix()
    elif hasattr(morphism, "matrix") and hasattr(morphism, "domain_profile"):
        profile, profile2 = morphism.domain_profile, morphism.codomain_profile
        M = morphism.matrix()
    else:
        fn = morphism
        if profile is None:
            raise ProfileMismatch("a bare callable needs an explicit source profile")
        M, profile2 = materialise(fn, profile)
    residuals = [("jordan", jordan_defect(M, profile, profile2)[0])]
    if fn is not None:
        residuals.append(("linearity", linearity_defect(fn, M, profile, seed)))
    return JordanVerification(
        passed=all(r < JORDAN_TOL for _, r in residuals),
        max_residual=max(r for _, r in residuals),
        failures=tuple((law, r) for law, r in residuals if r >= JORDAN_TOL),
    )


@dataclass(frozen=True)
class ZDecomposition:
    """Splitting data of a Jordan morphism relative to a destination weight.

    z is the central projection of the image algebra acting multiplicatively;
    e is the central support of the pulled-back weight in the source algebra,
    split as e_z (blocks reached homomorphically) and e_one_minus_z (blocks
    reached antihomomorphically).  The pulled-back weights satisfy
    phi_J = phi_z + phi_{1-z} at the level of densities.
    """

    z: Projection
    e: Projection
    e_z: Projection
    e_one_minus_z: Projection
    weight_total: Weight
    weight_hom: Weight
    weight_anti: Weight


def _central_projection(profile: BlockProfile, blocks_on) -> Projection:
    on = [float(i in blocks_on) for i in range(profile.block_count)]
    return Projection(BlockMatrix.diagonal(profile, np.repeat(on, profile.dims)))


def _pullback_weight(J: JordanMorphismSpec, g: BlockMatrix) -> Weight:
    """Density of a -> tr(g J(a)): J#(g) = sum E* g E over the tiles (transposed for kind A)."""
    flat = J.kraus_terms().adjoint().image(g.flat())
    return Weight(BlockMatrix._of_flat(J.profile1, flat).hermitized())


def pushforward_density(J: JordanMorphismSpec, w2: Weight) -> Weight:
    """The weight k on the source algebra with k(a) = w2(J(a)) for all a.

    Jordan morphisms keep trace-form weights trace-form, so k always exists:
    it is J#(rho2) (`_pullback_weight`), read from the terms, not the matrix.
    """
    w2.require_faithful("pushforward density")
    return _pullback_weight(J, w2.rho)


def decompose(J: JordanMorphismSpec, w2: Weight) -> ZDecomposition:
    """Split J into multiplicative and antimultiplicative parts with their weights.

    Verifies the centrality of z in the image algebra rather than trusting
    the tile bookkeeping.  The images J(E_k) of the matrix units, the
    columns of `J.matrix()`, generate that algebra and are closed under the
    adjoint (J(E_ji) = J(E_ij)*), so z is central in it exactly when it
    commutes with each of them; InvalidMorphism if a commutator exceeds
    1e-9 max(1, ||z||) max(1, ||J(E_k)||).  A morphism with no tiles gives
    e = z = 0 and zero weights.
    """
    w2.require_faithful("decomposition")
    z = J.hom_projection()
    M = J.matrix()
    comm = flat_columns([zb @ X - X @ zb for zb, X in zip(z.blocks, block_stacks(J.profile2, M))])
    scale = max(1.0, z.fro_norm()) * np.maximum(1.0, np.linalg.norm(M, axis=0))
    if np.any(np.linalg.norm(comm, axis=0) > 1e-9 * scale):
        raise InvalidMorphism("hom projection is not central in the image algebra")
    j1 = J.unit_image()
    e = _central_projection(J.profile1, set(J.covered_src_blocks()))
    e_z = _central_projection(J.profile1, set(J.covered_src_blocks("H")))
    e_1z = _central_projection(J.profile1, set(J.covered_src_blocks("A")))
    w_total = _pullback_weight(J, w2.rho)
    w_hom = _pullback_weight(J, w2.rho @ z)
    w_anti = _pullback_weight(J, w2.rho @ (j1 - z))
    gap = (w_total.rho - w_hom.rho - w_anti.rho).fro_norm()
    if gap > 1e-9 * max(1.0, w_total.rho.fro_norm()):
        raise NoConvergence(f"density splitting failed (residual {gap:.3e})")
    join = e_z.join(e_1z)
    if (join.matrix - e.matrix).fro_norm() > 1e-9:
        raise NoConvergence("central support does not match the join of the parts")
    return ZDecomposition(
        z=Projection(z),
        e=e,
        e_z=e_z,
        e_one_minus_z=e_1z,
        weight_total=w_total,
        weight_hom=w_hom,
        weight_anti=w_anti,
    )


def random_morphism(rng, profile1: BlockProfile | None = None,
                    allow_partial: bool = True,
                    allow_mixed: bool = True) -> JordanMorphismSpec:
    """A random tile morphism: mixed H/A kinds, partial supports, multiplicities.

    Destination blocks are packed greedily around the drawn tiles, with a
    little padding so images sit inside strictly larger blocks; random tile
    unitaries and destination unitaries exercise the conjugation freedom.
    """
    from .sampling import unitary

    if profile1 is None:
        profile1 = BlockProfile(rng.integers(1, 4, size=rng.integers(1, 4)))
    plan = []  # (src, kind)
    for s, size in enumerate(profile1.dims):
        max_tiles = 2 if size <= 2 else 1
        low = 0 if allow_partial else 1
        count = int(rng.integers(low, max_tiles + 1))
        for _ in range(count):
            kind = "H"
            if allow_mixed and size > 1 and rng.random() < 0.5:
                kind = "A"
            plan.append((s, kind))
    if not plan:
        plan.append((int(rng.integers(0, profile1.block_count)), "H"))
    order = rng.permutation(len(plan))
    plan = [plan[i] for i in order]
    group_count = 1 if len(plan) == 1 or rng.random() < 0.4 else 2
    groups = [plan[i::group_count] for i in range(group_count)]
    groups = [g for g in groups if g]
    tiles = []
    dst_dims = []
    for d, group in enumerate(groups):
        offset = int(rng.integers(0, 2))
        start_pad = offset
        for s, kind in group:
            size = profile1.dims[s]
            u = unitary(size, rng) if rng.random() < 0.5 else None
            tiles.append(Tile(src=s, dst=d, offset=offset, kind=kind, conj_unitary=u))
            offset += size
        dst_dims.append(offset + int(rng.integers(0, 2)) + (1 if offset == start_pad else 0))
    profile2 = BlockProfile(dst_dims)
    block_unitaries = None
    if rng.random() < 0.5:
        block_unitaries = [
            unitary(d, rng) if rng.random() < 0.7 else None for d in profile2.dims
        ]
    return JordanMorphismSpec(profile1, profile2, tiles, block_unitaries)


def random_onto_morphism(rng, profile1: BlockProfile,
                         anti: bool = False) -> JordanMorphismSpec:
    """A random *-isomorphism (or *-antiisomorphism) onto a permuted profile."""
    from .sampling import unitary

    perm = rng.permutation(profile1.block_count)
    dst_dims = [profile1.dims[s] for s in perm]
    profile2 = BlockProfile(dst_dims)
    kind = "A" if anti else "H"
    tiles = []
    for d, s in enumerate(perm):
        u = unitary(profile1.dims[s], rng)
        tiles.append(Tile(src=int(s), dst=d, offset=0, kind=kind, conj_unitary=u))
    return JordanMorphismSpec(profile1, profile2, tiles)


def is_modular_invariant(B: SubalgebraBasis, w2: Weight) -> bool:
    """Whether the modular group of w2 maps the subalgebra into itself, for every real t.

    sigma_t = exp(itD) for the derivation D(b) = log h b - b log h, h the
    density of w2, so the span of B is invariant under every sigma_t exactly
    when D maps it into itself.  That is checked on the basis: each D(b)
    must lie in the span to 1e-8 max(1, ||D(b)||).
    """
    log_h = w2.log_density()
    moved = flat_columns([L @ X - X @ L
                          for L, X in zip(log_h.blocks, block_stacks(B.profile, B.rows.T))])
    residual = moved - B.rows.T @ (B.rows.conj() @ moved)
    return bool(np.all(np.linalg.norm(residual, axis=0)
                       <= 1e-8 * np.maximum(1.0, np.linalg.norm(moved, axis=0))))
