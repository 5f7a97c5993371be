"""Seeded random generators for block matrices, weights and tile morphisms.

Used by the verification routines (random probes) and by the test suite and
demos.  Everything is driven by an explicit numpy Generator so identical
seeds give identical draws.
"""

from __future__ import annotations

import numpy as np

from .matcore import BlockMatrix, BlockProfile


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


def block_unitary(profile: BlockProfile, rng: np.random.Generator) -> BlockMatrix:
    return BlockMatrix(profile, [unitary(d, rng) for d in profile], copy=False)


def projection(profile: BlockProfile, rng: np.random.Generator) -> BlockMatrix:
    """Random spectral projection of a random Hermitian element."""
    blocks = []
    for d in profile:
        g = _ginibre(d, rng)
        h = (g + g.conj().T) / 2
        lam, v = np.linalg.eigh(h)
        if d == 1:
            keep = np.array([rng.random() < 0.5])
        else:
            theta = rng.uniform(lam[0], lam[-1])
            keep = lam > theta
        p = (v * keep.astype(float)) @ v.conj().T
        blocks.append((p + p.conj().T) / 2)
    return BlockMatrix(profile, blocks, copy=False)
