"""Dense complex block-matrix kernel.

Block-diagonal matrices over a fixed block profile are the universal carrier
for algebra elements, L^p elements, densities and projections.  A
`BlockMatrix` is one read-only flat array of its blocks' entries.  The
spectral calculus everything else is built on is one kernel grouped by block
size (`size_groups`): `eigh_groups` (one numpy.linalg.eigh per block size;
a 1x1 block is its own eigenvalue) and its inverse `from_eig_groups`, with
fractional powers under the support convention 0^t = 0; products, Schatten
norms and polar decomposition (numpy.linalg.svd) also take one call per size.
"""

from __future__ import annotations

import operator
import threading
import weakref
from functools import lru_cache

import numpy as np

from .errors import (
    NotHermitian,
    NotPSD,
    ProfileMismatch,
    SingularNegativePower,
)
from .exponents import Exponent

SUPPORT_CUTOFF = 1e-12
PSD_TOL = 1e-10
# Absolute Hermiticity defect allowed by hermitian_eig, on top of 1e-10 relative.
HERMITIAN_TOL = 1e-8


class BlockProfile:
    """Block sizes n_1..n_k of a direct sum of full matrix algebras, interned.

    `BlockProfile(dims)` returns the one live profile for that tuple, so `==`
    and the hash are identity, and a pickle round-trip returns that object.
    Sizes must be integers >= 1 (ValueError; numpy integers pass, a bool or
    a float does not), checked before the table is read.  The profile holds
    total_dim, coord_dim (sum of n_i^2) and its index data (`_index_data`).
    """

    __slots__ = ("dims", "total_dim", "coord_dim", "size_groups", "transpose_index",
                 "diagonal_index", "block_slots", "__weakref__")

    def __new__(cls, dims):
        dims = tuple(dims)
        try:
            sizes = tuple(map(operator.index, dims))
        except TypeError:
            sizes = ()
        if not sizes or bool in map(type, dims) or min(sizes) < 1:
            raise ValueError(f"a profile needs block sizes that are integers >= 1, got {dims!r}")
        with _INTERN_LOCK:   # one object per tuple, also when threads race here
            profile = _LIVE.get(sizes)
            if profile is None:
                profile = object.__new__(cls)
                values = (sizes, sum(sizes), sum([d * d for d in sizes]), *_index_data(sizes))
                for name, value in zip(cls.__slots__, values):
                    object.__setattr__(profile, name, value)
                _LIVE[sizes] = profile
        return profile

    def __reduce__(self):
        return BlockProfile, (self.dims,)

    def __setattr__(self, name, value):
        raise AttributeError("BlockProfile is immutable")

    def __repr__(self):
        return f"BlockProfile(dims={self.dims})"

    @property
    def block_count(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)


_LIVE = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


@lru_cache(maxsize=64)
def _index_data(dims: tuple) -> tuple:
    """A profile's read-only index data, once per tuple of sizes: `size_groups`,
    (d, m, rows) per distinct size d, smallest first, rows the (m, d*d) flat
    coordinates of its m blocks; `transpose_index`, with x.transpose().flat()
    == x.flat()[transpose_index]; `diagonal_index`, the flat coordinates of
    the diagonal in block order; `block_slots`, each block's (size group, row)."""
    offsets = np.cumsum([0] + [d * d for d in dims])
    blocks = [np.arange(at, at + d * d).reshape(d, d) for at, d in zip(offsets, dims)]
    sizes = sorted(set(dims))
    rows = [np.stack([ix.ravel() for ix in blocks if len(ix) == d]) for d in sizes]
    transpose = np.concatenate([ix.T.ravel() for ix in blocks])
    diagonal = np.concatenate([ix.diagonal() for ix in blocks])
    for arr in [transpose, diagonal, *rows]:
        arr.setflags(write=False)
    slots = tuple((sizes.index(d), dims[:j].count(d)) for j, d in enumerate(dims))
    return tuple(zip(sizes, map(len, rows), rows)), transpose, diagonal, slots


class BlockMatrix:
    """Immutable block-diagonal complex matrix over a BlockProfile, stored as its `flat()` array."""

    __slots__ = ("profile", "_flat")

    def __init__(self, profile: BlockProfile, blocks):
        if len(blocks) != profile.block_count:
            raise ProfileMismatch(f"expected {profile.block_count} blocks, got {len(blocks)}")
        prepared = [np.asarray(blk, dtype=complex) for blk in blocks]
        for dim, arr in zip(profile.dims, prepared):
            if arr.shape != (dim, dim):
                raise ProfileMismatch(f"block of shape {arr.shape} does not match size {dim}")
        self._own(profile, np.concatenate([arr.ravel() for arr in prepared]))

    def _own(self, profile: BlockProfile, flat: np.ndarray):
        flat.setflags(write=False)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "_flat", flat)

    @classmethod
    def _of_flat(cls, profile: BlockProfile, flat: np.ndarray) -> "BlockMatrix":
        """Owns `flat`, a fresh complex array that no one else holds; bypasses __init__."""
        x = cls.__new__(cls)
        x._own(profile, flat)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("BlockMatrix is immutable")

    @property
    def blocks(self) -> tuple:
        """The (d, d) blocks, built on each read as read-only views of the flat storage."""
        return tuple(stack[0] for stack in block_stacks(self.profile, self._flat[:, None]))

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, profile: BlockProfile) -> "BlockMatrix":
        return cls._of_flat(profile, np.zeros(profile.coord_dim, dtype=complex))

    @classmethod
    def identity(cls, profile: BlockProfile) -> "BlockMatrix":
        return cls.diagonal(profile, np.ones(profile.total_dim))

    @classmethod
    def diagonal(cls, profile: BlockProfile, values) -> "BlockMatrix":
        """Diagonal matrix from a flat list of total_dim entries."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (profile.total_dim,):
            raise ProfileMismatch(f"need {profile.total_dim} diagonal entries, got {values.shape}")
        flat = np.zeros(profile.coord_dim, dtype=complex)
        flat[profile.diagonal_index] = values
        return cls._of_flat(profile, flat)

    @classmethod
    def matrix_unit(cls, profile: BlockProfile, block: int, row: int, col: int) -> "BlockMatrix":
        flat = np.zeros(profile.coord_dim, dtype=complex)
        block_stacks(profile, flat[:, None])[block][0, row, col] = 1.0
        return cls._of_flat(profile, flat)

    @classmethod
    def unflat(cls, profile: BlockProfile, vec) -> "BlockMatrix":
        """Inverse of flat(): a copy of concatenated C-order entries."""
        vec = np.array(vec, dtype=complex).ravel()
        if vec.size != profile.coord_dim:
            raise ProfileMismatch(f"need {profile.coord_dim} coordinates, got {vec.size}")
        return cls._of_flat(profile, vec)

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other):
        if self.profile != other.profile:
            raise ProfileMismatch("profiles differ")

    def __add__(self, other):
        self._check_same(other)
        return BlockMatrix._of_flat(self.profile, self._flat + other._flat)

    def __sub__(self, other):
        self._check_same(other)
        return BlockMatrix._of_flat(self.profile, self._flat - other._flat)

    def __neg__(self):
        return BlockMatrix._of_flat(self.profile, -self._flat)

    def __mul__(self, scalar):
        return BlockMatrix._of_flat(self.profile, scalar * self._flat)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """One batched product per block size."""
        self._check_same(other)
        a, b = self._flat, other._flat
        out = np.empty(self.profile.coord_dim, dtype=complex)
        for d, m, rows in self.profile.size_groups:
            out[rows] = (a[rows].reshape(m, d, d) @ b[rows].reshape(m, d, d)).reshape(m, d * d)
        return BlockMatrix._of_flat(self.profile, out)

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix._of_flat(self.profile,
                                    self._flat.conj()[self.profile.transpose_index])

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix._of_flat(self.profile, self._flat[self.profile.transpose_index])

    def hermitized(self) -> "BlockMatrix":
        flat = self._flat
        return BlockMatrix._of_flat(
            self.profile, (flat + flat.conj()[self.profile.transpose_index]) / 2)

    # -- scalars -------------------------------------------------------

    def trace(self) -> complex:
        return complex(np.sum(self._flat[self.profile.diagonal_index]))

    def hs_inner(self, other) -> complex:
        """Hilbert-Schmidt inner product <self, other> = sum tr(self_i* other_i)."""
        self._check_same(other)
        return complex(np.vdot(self._flat, other._flat))

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self._flat))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._flat)))

    def flat(self) -> np.ndarray:
        """The read-only flat coordinates: the blocks' entries concatenated in C order."""
        return self._flat

    def allclose(self, other, tol: float = 1e-10) -> bool:
        return (self - other).fro_norm() <= tol

    def __repr__(self):
        return f"BlockMatrix(profile={self.profile.dims})"


def _per_block(profile: BlockProfile, grouped) -> list:
    """The rows of per-size-group arrays (one row per block of the group), in block order."""
    return [grouped[g][k] for g, k in profile.block_slots]


def eigh_groups(profile: BlockProfile, flat: np.ndarray) -> tuple:
    """(lams, vecs) of a Hermitian element: per size group, eigenvalues (m, d), vectors (m, d, d).

    One numpy.linalg.eigh per block size on the stack of its blocks, which
    reads their lower triangles; eigenvalues ascend along each row.  A 1x1
    block is its own eigenvalue, with eigenvector 1.
    """
    lams, vecs = [], []
    for d, m, rows in profile.size_groups:
        blocks = flat[rows].reshape(m, d, d)
        lam, V = (blocks[..., 0].real, np.ones((m, 1, 1))) if d == 1 else np.linalg.eigh(blocks)
        lams.append(lam)
        vecs.append(V)
    return lams, vecs


def from_eig_groups(profile: BlockProfile, vecs: list, values: list) -> BlockMatrix:
    """V diag(f) V* per size group, the inverse of `eigh_groups`.

    Real values give a Hermitian element, symmetrised against rounding.
    """
    flat = np.empty(profile.coord_dim, dtype=complex)
    for (d, m, rows), V, f in zip(profile.size_groups, vecs, values):
        blk = (V * f[:, None, :]) @ V.conj().swapaxes(1, 2)
        if np.isrealobj(f):
            blk = (blk + blk.conj().swapaxes(1, 2)) / 2
        flat[rows] = blk.reshape(m, d * d)
    return BlockMatrix._of_flat(profile, flat)


def spectral_power(profile: BlockProfile, spectrum: tuple, t: float, top: float) -> BlockMatrix:
    """V Lambda^t V* for a positive semidefinite `spectrum` (`eigh_groups`), with 0^t = 0.

    Eigenvalues at or below SUPPORT_CUTOFF times the largest, `top` (from
    `psd_range`), count as zero, so t = 0 gives the support projection;
    t < 0 needs none of them.
    """
    lams, vecs = spectrum
    cutoff = SUPPORT_CUTOFF * max(top, 0.0)
    ons = [lam > cutoff for lam in lams]
    if t < 0 and not all(on.all() for on in ons):
        raise SingularNegativePower("negative power of a singular positive matrix")
    values = [np.power(lam, t, out=on.astype(float), where=on) for lam, on in zip(lams, ons)]
    return from_eig_groups(profile, vecs, values)


def psd_range(lams: list) -> tuple:
    """(smallest, largest) eigenvalue of a spectrum; NotPSD below -PSD_TOL max(1, largest)."""
    low = min(float(lam[:, 0].min()) for lam in lams)
    top = max(float(lam[:, -1].max()) for lam in lams)
    if low < -PSD_TOL * max(1.0, top):
        raise NotPSD(f"minimum eigenvalue {low:.3e} below PSD tolerance")
    return low, top


def _hermitian_spectrum(H: BlockMatrix) -> tuple:
    """`eigh_groups` of H symmetrised; NotHermitian past HERMITIAN_TOL plus 1e-10 relative."""
    defect = (H - H.adjoint()).fro_norm()
    if defect > HERMITIAN_TOL + 1e-10 * H.fro_norm():
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds tolerance")
    return eigh_groups(H.profile, H.hermitized().flat())


def hermitian_eig(H: BlockMatrix):
    """Per-block eigensystem of a Hermitian block matrix, from `eigh_groups`.

    The Hermiticity test allows HERMITIAN_TOL absolute plus 1e-10 relative
    defect (embeddings compound rounding).  Returns (list of ascending
    eigenvalue arrays, unitary V).
    """
    lams, vecs = _hermitian_spectrum(H)
    return _per_block(H.profile, lams), BlockMatrix(H.profile, _per_block(H.profile, vecs))


def frac_power(P: BlockMatrix, t) -> BlockMatrix:
    """Spectral power P^t of a positive semidefinite block matrix.

    t >= 0 uses the support convention (zero eigenvalues map to zero, so
    P^0 is the support projection); t < 0 requires P positive definite.
    """
    spectrum = _hermitian_spectrum(P)
    return spectral_power(P.profile, spectrum, float(t), psd_range(spectrum[0])[1])


def singular_values(x: BlockMatrix):
    """Per-block ascending singular values, from one numpy.linalg.svd per block size."""
    return _per_block(x.profile, [
        np.linalg.svd(x.flat()[rows].reshape(m, d, d), compute_uv=False)[:, ::-1]
        for d, m, rows in x.profile.size_groups])


def block_stacks(profile: BlockProfile, cols: np.ndarray) -> list:
    """Per-block (k, d, d) stacks of k flat coordinate columns (coord_dim, k).

    The stacks are views where numpy allows; flat_columns is the inverse.
    """
    k = cols.shape[1]
    stacks, at = [], 0
    for d in profile:
        stacks.append(cols[at : at + d * d].T.reshape(k, d, d))
        at += d * d
    return stacks


def flat_columns(stacks) -> np.ndarray:
    """Flat coordinate columns (coord_dim, k) from per-block (k, d, d) stacks."""
    return np.concatenate([s.reshape(s.shape[0], s.shape[1] * s.shape[2]).T for s in stacks])


class KrausTerms:
    """The map x -> sum_k K_k x_(s_k) K_k* (x_(s_k)^T for kind "A") into blocks t_k of `cod`.

    `groups`: (kind, src, dst, K) per (source size n, destination size m,
    kind), the terms' (k, n*n) and (k, m*m) flat block coordinates and (k,
    m, n) stack; a term on a block already in its group opens another, so
    results add by one fancy-indexed sum.  `matrix` writes kron(K, conj K)
    per term (columns (i, j) -> (j, i) for kind A), one product per group.
    """

    __slots__ = ("dom", "cod", "groups")

    def __init__(self, dom: BlockProfile, cod: BlockProfile, groups):
        self.dom, self.cod, self.groups = dom, cod, tuple(groups)

    @classmethod
    def of(cls, dom: BlockProfile, cod: BlockProfile, terms) -> "KrausTerms":
        """Grouped from (source block, destination block, kind, K) terms."""
        by, hits = {}, {}
        for s, t, kind, K in terms:
            j = max(hits.get((0, s), 0), hits.get((1, t), 0))   # earlier terms on s or t
            hits[0, s] = hits[1, t] = j + 1
            by.setdefault((dom.dims[s], cod.dims[t], kind, j), []).append((s, t, K))
        return cls(dom, cod, [(kind, _block_rows(dom, s), _block_rows(cod, t), np.array(K, complex))
                              for (_, _, kind, _), g in by.items() for s, t, K in [zip(*g)]])

    def sandwich(self, left: BlockMatrix, right: BlockMatrix) -> "KrausTerms":
        """The terms of x -> L C(R x R*) L*: K -> L_t K R_s (L_t K conj(R_s) for kind A)."""
        groups = []
        for kind, src, dst, K in self.groups:
            L = left.flat()[dst].reshape(len(K), K.shape[1], -1)
            R = right.flat()[src].reshape(len(K), K.shape[2], -1)
            groups.append((kind, src, dst, L @ K @ (R.conj() if kind == "A" else R)))
        return KrausTerms(self.dom, self.cod, groups)

    def adjoint(self) -> "KrausTerms":
        """The Hilbert-Schmidt adjoint C#: y -> K* y K, and y -> (K* y K)^T = K^T y^T conj(K)."""
        return KrausTerms(self.cod, self.dom, [
            (kind, dst, src, K.swapaxes(1, 2) if kind == "A" else K.conj().swapaxes(1, 2))
            for kind, src, dst, K in self.groups])

    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.cod.coord_dim, self.dom.coord_dim), dtype=complex)
        for kind, src, dst, K in self.groups:
            blk = K[:, :, None, :, None] * K.conj()[:, None, :, None, :]   # (k, m, m, n, n)
            blk = blk.swapaxes(3, 4) if kind == "A" else blk
            mat[dst[:, :, None], src[:, None, :]] += blk.reshape(len(K), dst.shape[1], -1)
        return mat

    def image(self, flat: np.ndarray) -> np.ndarray:
        """Flat coordinates of C(x) from those of x."""
        out = np.zeros(self.cod.coord_dim, dtype=complex)
        for kind, src, dst, K in self.groups:
            x = flat[src].reshape(len(K), K.shape[2], -1)
            x = K @ (x.swapaxes(1, 2) if kind == "A" else x) @ K.conj().swapaxes(1, 2)
            out[dst] += x.reshape(dst.shape)
        return out

    def unit_image(self, adjoint: bool = False) -> np.ndarray:
        """Flat coordinates of C(1) = sum K K*, or of C#(1) = sum K* K (transposed for kind A)."""
        out = np.zeros((self.dom if adjoint else self.cod).coord_dim, dtype=complex)
        for kind, src, dst, K in self.groups:
            x = K.conj().swapaxes(1, 2) @ K if adjoint else K @ K.conj().swapaxes(1, 2)
            at, x = (src, x.swapaxes(1, 2) if kind == "A" else x) if adjoint else (dst, x)
            out[at] += x.reshape(at.shape)
        return out


def _block_rows(profile: BlockProfile, blocks: list) -> np.ndarray:
    """The (k, d*d) flat coordinates of k blocks of one size d."""
    group = profile.block_slots[blocks[0]][0]
    return profile.size_groups[group][2][[profile.block_slots[b][1] for b in blocks]]


def _lp_norm(values: np.ndarray, p):
    """l^p norm of nonnegative values along the last axis.

    The largest value is factored out so large p cannot overflow.
    """
    top = values.max(axis=-1, initial=0.0)
    if p.is_inf:
        return top
    pf = float(p)
    if values.ndim == 1:
        return top * ((values / top) ** pf).sum() ** (1.0 / pf) if top else top
    scale = np.where(top == 0.0, 1.0, top)[..., None]
    return top * ((values / scale) ** pf).sum(axis=-1) ** (1.0 / pf)


def schatten_norm(x: BlockMatrix, p) -> float:
    """Schatten p-norm: the l^p norm of all singular values across blocks, in block order."""
    return float(_lp_norm(np.concatenate(singular_values(x)), Exponent(p)))


def polar(x: BlockMatrix):
    """Polar decomposition x = u |x| with u a partial isometry, u*u = supp|x|.

    From the SVD x = W S V* per block, one numpy.linalg.svd per block size:
    |x| = V S V*, and u = W P V* with P keeping the singular values above
    SUPPORT_CUTOFF times the block's largest.
    """
    u, vecs, svals = np.empty(x.profile.coord_dim, dtype=complex), [], []
    for d, m, rows in x.profile.size_groups:
        w, s, vh = np.linalg.svd(x.flat()[rows].reshape(m, d, d))
        u[rows] = ((w * (s > SUPPORT_CUTOFF * s[:, :1])[:, None, :]) @ vh).reshape(m, d * d)
        vecs.append(vh.conj().swapaxes(1, 2))
        svals.append(s)
    return BlockMatrix._of_flat(x.profile, u), from_eig_groups(x.profile, vecs, svals)


def support_of(P: BlockMatrix) -> BlockMatrix:
    """Support projection of a positive semidefinite block matrix."""
    return frac_power(P, 0)


def commutator_norm(a: BlockMatrix, b: BlockMatrix) -> float:
    """Frobenius norm of ab - ba."""
    return (a @ b - b @ a).fro_norm()
