"""Dense complex block-matrix kernel.

Block-diagonal matrices over a fixed block profile are the universal carrier
for algebra elements, L^p elements, densities and projections.  This module
supplies the spectral calculus everything else is built on: Hermitian
eigendecomposition (numpy.linalg.eigh), fractional powers with the support
convention 0^t = 0, and Schatten norms and polar decomposition from
numpy.linalg.svd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHermitian,
    NotPSD,
    ProfileMismatch,
    SingularNegativePower,
)
from .exponents import coerce as coerce_exponent

SUPPORT_CUTOFF = 1e-12
PSD_TOL = 1e-10
# Absolute Hermiticity defect allowed by hermitian_eig, on top of 1e-10 relative.
HERMITIAN_TOL = 1e-8


@dataclass(frozen=True)
class BlockProfile:
    """Block sizes n_1..n_k of a direct sum of full matrix algebras."""

    dims: tuple

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("profile needs at least one block")
        if any(d < 1 for d in dims):
            raise ValueError(f"block sizes must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def block_count(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def coord_dim(self) -> int:
        """Dimension of the block-diagonal carrier, sum of n_i^2."""
        return sum(d * d for d in self.dims)

    def __iter__(self):
        return iter(self.dims)


class BlockMatrix:
    """Immutable block-diagonal complex matrix over a BlockProfile."""

    __slots__ = ("profile", "blocks")

    def __init__(self, profile: BlockProfile, blocks, copy: bool = True):
        if len(blocks) != profile.block_count:
            raise ProfileMismatch(
                f"expected {profile.block_count} blocks, got {len(blocks)}"
            )
        prepared = []
        for dim, blk in zip(profile.dims, blocks):
            arr = np.array(blk, dtype=complex, copy=copy)
            if arr.shape != (dim, dim):
                raise ProfileMismatch(
                    f"block of shape {arr.shape} does not match size {dim}"
                )
            arr.setflags(write=False)
            prepared.append(arr)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "blocks", tuple(prepared))

    def __setattr__(self, name, value):
        raise AttributeError("BlockMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, profile: BlockProfile) -> "BlockMatrix":
        return cls(profile, [np.zeros((d, d), dtype=complex) for d in profile], copy=False)

    @classmethod
    def identity(cls, profile: BlockProfile) -> "BlockMatrix":
        return cls(profile, [np.eye(d, dtype=complex) for d in profile], copy=False)

    @classmethod
    def diagonal(cls, profile: BlockProfile, values) -> "BlockMatrix":
        """Diagonal matrix from a flat list of total_dim entries."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (profile.total_dim,):
            raise ProfileMismatch(
                f"need {profile.total_dim} diagonal entries, got {values.shape}"
            )
        blocks, at = [], 0
        for d in profile:
            blocks.append(np.diag(values[at : at + d]))
            at += d
        return cls(profile, blocks, copy=False)

    @classmethod
    def matrix_unit(cls, profile: BlockProfile, block: int, row: int, col: int) -> "BlockMatrix":
        blocks = [np.zeros((d, d), dtype=complex) for d in profile]
        blocks[block][row, col] = 1.0
        return cls(profile, blocks, copy=False)

    @classmethod
    def unflat(cls, profile: BlockProfile, vec) -> "BlockMatrix":
        """Inverse of flat(): rebuild blocks from concatenated C-order entries."""
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.size != profile.coord_dim:
            raise ProfileMismatch(
                f"need {profile.coord_dim} coordinates, got {vec.size}"
            )
        blocks, at = [], 0
        for d in profile:
            blocks.append(vec[at : at + d * d].reshape(d, d))
            at += d * d
        return cls(profile, blocks, copy=False)

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other):
        if self.profile != other.profile:
            raise ProfileMismatch("profiles differ")

    def __add__(self, other):
        self._check_same(other)
        return BlockMatrix(
            self.profile, [a + b for a, b in zip(self.blocks, other.blocks)], copy=False
        )

    def __sub__(self, other):
        self._check_same(other)
        return BlockMatrix(
            self.profile, [a - b for a, b in zip(self.blocks, other.blocks)], copy=False
        )

    def __neg__(self):
        return BlockMatrix(self.profile, [-a for a in self.blocks], copy=False)

    def __mul__(self, scalar):
        return BlockMatrix(self.profile, [scalar * a for a in self.blocks], copy=False)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_same(other)
        return BlockMatrix(
            self.profile, [a @ b for a, b in zip(self.blocks, other.blocks)], copy=False
        )

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix(self.profile, [a.conj().T for a in self.blocks], copy=False)

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix(self.profile, [a.T for a in self.blocks], copy=False)

    def hermitized(self) -> "BlockMatrix":
        return BlockMatrix(
            self.profile, [(a + a.conj().T) / 2 for a in self.blocks], copy=False
        )

    # -- scalars -------------------------------------------------------

    def block(self, i) -> np.ndarray:
        return self.blocks[i]

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def hs_inner(self, other) -> complex:
        """Hilbert-Schmidt inner product <self, other> = sum tr(self_i* other_i)."""
        self._check_same(other)
        return complex(
            sum(np.vdot(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def fro_norm(self) -> float:
        return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in self.blocks)))

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(a)) if a.size else 0.0 for a in self.blocks))

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.blocks])

    def allclose(self, other, tol: float = 1e-10) -> bool:
        return (self - other).fro_norm() <= tol

    def __repr__(self):
        return f"BlockMatrix(profile={self.profile.dims})"


def hermitian_eig(H: BlockMatrix):
    """Per-block eigensystem of a Hermitian block matrix.

    The Hermiticity test allows HERMITIAN_TOL absolute plus 1e-10 relative defect
    (embeddings compound rounding); the input is symmetrised before
    numpy.linalg.eigh.  Returns (list of ascending eigenvalue arrays, unitary V).
    """
    defect = (H - H.adjoint()).fro_norm()
    if defect > HERMITIAN_TOL + 1e-10 * H.fro_norm():
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds tolerance")
    eigenvalues = []
    vectors = []
    for blk in H.hermitized().blocks:
        lam, v = np.linalg.eigh(blk)
        eigenvalues.append(lam)
        vectors.append(v)
    return eigenvalues, BlockMatrix(H.profile, vectors, copy=False)


def _from_spectrum(profile: BlockProfile, values, vectors) -> BlockMatrix:
    """V diag(f) V* block by block, from per-block values f and unitaries V.

    Real values give a Hermitian matrix, symmetrised against rounding.
    """
    blocks = []
    for f, v in zip(values, vectors):
        blk = (v * f) @ v.conj().T
        if np.isrealobj(f):
            blk = (blk + blk.conj().T) / 2
        blocks.append(blk)
    return BlockMatrix(profile, blocks, copy=False)


def _spectral_power(profile: BlockProfile, lams, vectors, t: float) -> BlockMatrix:
    """V Lambda^t V* for a positive semidefinite spectrum, with 0^t = 0.

    Eigenvalues at or below SUPPORT_CUTOFF times the largest count as zero,
    so t = 0 gives the support projection; t < 0 needs none of them.
    """
    cutoff = SUPPORT_CUTOFF * max(max(float(l[-1]) for l in lams), 0.0)
    if t < 0 and any(np.any(l <= cutoff) for l in lams):
        raise SingularNegativePower("negative power of a singular positive matrix")
    values = []
    for lam in lams:
        out = np.zeros_like(lam)
        on = lam > cutoff
        out[on] = 1.0 if t == 0 else lam[on] ** t
        values.append(out)
    return _from_spectrum(profile, values, vectors)


def frac_power(P: BlockMatrix, t) -> BlockMatrix:
    """Spectral power P^t of a positive semidefinite block matrix.

    t >= 0 uses the support convention (zero eigenvalues map to zero, so
    P^0 is the support projection); t < 0 requires P positive definite.
    """
    lams, V = hermitian_eig(P)
    top = max(float(l[-1]) for l in lams)
    floor = -PSD_TOL * max(1.0, top)
    if any(float(l[0]) < floor for l in lams):
        worst = min(float(l[0]) for l in lams)
        raise NotPSD(f"minimum eigenvalue {worst:.3e} below PSD tolerance")
    return _spectral_power(P.profile, lams, V.blocks, float(t))


def singular_values(x: BlockMatrix):
    """Per-block ascending singular values, from numpy.linalg.svd."""
    return [np.linalg.svd(blk, compute_uv=False)[::-1] for blk in x.blocks]


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays as one broadcast product, without np.kron's generic set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _transpose_permutation(profile: BlockProfile) -> np.ndarray:
    """Indices with x.transpose().flat() == x.flat()[perm]."""
    starts = np.cumsum([0] + [d * d for d in profile.dims[:-1]])
    return np.concatenate([at + np.arange(d * d).reshape(d, d).T.ravel()
                           for at, d in zip(starts, profile.dims)])


def _lp_norm(values: np.ndarray, p):
    """l^p norm of nonnegative values along the last axis.

    The largest value is factored out so large p cannot overflow.
    """
    top = np.max(values, axis=-1, initial=0.0)
    if p.is_inf:
        return top
    pf = float(p)
    scale = np.where(top == 0.0, 1.0, top)[..., None]
    return top * np.sum((values / scale) ** pf, axis=-1) ** (1.0 / pf)


def schatten_norm(x: BlockMatrix, p) -> float:
    """Schatten p-norm: the l^p norm of all singular values across blocks."""
    return float(_lp_norm(np.concatenate(singular_values(x)), coerce_exponent(p)))


def polar(x: BlockMatrix):
    """Polar decomposition x = u |x| with u a partial isometry, u*u = supp|x|.

    From the SVD x = W S V* per block: |x| = V S V*, and u = W P V* with P
    keeping the singular values above SUPPORT_CUTOFF times the block's largest.
    """
    svds = [np.linalg.svd(blk) for blk in x.blocks]
    u_blocks = [(w * (s > SUPPORT_CUTOFF * s[0])) @ vh for w, s, vh in svds]
    absx = _from_spectrum(x.profile, [s for _, s, _ in svds],
                          [vh.conj().T for _, _, vh in svds])
    return BlockMatrix(x.profile, u_blocks, copy=False), absx


def support_of(P: BlockMatrix) -> BlockMatrix:
    """Support projection of a positive semidefinite block matrix."""
    return frac_power(P, 0)


def commutator_norm(a: BlockMatrix, b: BlockMatrix) -> float:
    """Frobenius norm of ab - ba."""
    return (a @ b - b @ a).fro_norm()
