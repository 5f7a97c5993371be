"""Seeded random generators for block matrices, weights and tile morphisms.

Used by `random_morphism`, by the one linearity probe of a materialised map,
and by the test suite and demos; the Jordan laws and the classifier are
decided exactly and draw nothing.  `projection` has no caller in the
library: it stays while perfbench's layer trace binds it by name.
Everything is driven by an explicit numpy Generator so identical seeds give
identical draws.
"""

from __future__ import annotations

import numpy as np

from .matcore import BlockMatrix, BlockProfile, flat_columns


def generator(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def element(profile: BlockProfile, rng: np.random.Generator, scale: float = 1.0) -> BlockMatrix:
    """Complex Gaussian block matrix."""
    return BlockMatrix(profile, [scale * _ginibre(d, rng) for d in profile], copy=False)


def hermitian(profile: BlockProfile, rng: np.random.Generator, scale: float = 1.0) -> BlockMatrix:
    blocks = []
    for d in profile:
        g = _ginibre(d, rng)
        blocks.append(scale * (g + g.conj().T) / 2)
    return BlockMatrix(profile, blocks, copy=False)


def psd(profile: BlockProfile, rng: np.random.Generator, eps: float = 0.0) -> BlockMatrix:
    """Random positive semidefinite matrix g g* (+ eps on the diagonal)."""
    blocks = []
    for d in profile:
        g = _ginibre(d, rng) / np.sqrt(2.0 * d)
        blocks.append(g @ g.conj().T + eps * np.eye(d))
    return BlockMatrix(profile, blocks, copy=False)


def unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(_ginibre(n, rng))
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def _hermitian_stack(normals: np.ndarray, d: int) -> np.ndarray:
    """(k, d, d) stack of (g + g*)/2, g = re + i im from k rows of 2 d^2 normals (re, then im)."""
    k = normals.shape[0]
    g = normals[:, : d * d].reshape(k, d, d) + 1j * normals[:, d * d :].reshape(k, d, d)
    return (g + g.conj().swapaxes(1, 2)) / 2


def projection(profile: BlockProfile, rng: np.random.Generator, count: int) -> np.ndarray:
    """Random spectral projections of random Hermitian elements, as flat columns.

    Returns the (coord_dim, count) flat block coordinates of `count` probes.
    Probe by probe and block by block, the generator gives the 2 d^2
    normals of a Ginibre matrix g (one standard_normal call, real parts
    and then imaginary parts) and then one uniform u; the block keeps the
    eigenvectors of h = (g + g*)/2 whose eigenvalues lie above
    lam_min + u (lam_max - lam_min), or, for a 1x1 block, the whole block
    when u < 0.5 (no eigensolve needed).  All draws come first, in that
    order, then one batched eigh per block of size 2 or more, so the
    columns equal `count` draws of one probe each, and successive calls on
    one generator continue the same stream.
    """
    dims = profile.dims
    zs = [np.empty((count, 2 * d * d)) for d in dims]
    us = np.empty((len(dims), count))
    for k in range(count):
        for b, z in enumerate(zs):
            rng.standard_normal(out=z[k])
            us[b, k] = rng.random()
    stacks = []
    for d, z, u in zip(dims, zs, us):
        if d == 1:
            stacks.append((u < 0.5).astype(complex).reshape(count, 1, 1))
            continue
        lam, v = np.linalg.eigh(_hermitian_stack(z, d))
        keep = lam > lam[:, :1] + (lam[:, -1:] - lam[:, :1]) * u[:, None]
        p = (v * keep[:, None, :].astype(float)) @ v.conj().swapaxes(1, 2)
        stacks.append((p + p.conj().swapaxes(1, 2)) / 2)
    return flat_columns(stacks)
