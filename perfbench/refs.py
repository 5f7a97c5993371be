"""Independent references for the benchmark's checks, computed with numpy only.

Nothing here imports nclp: every reference is rebuilt from the raw inputs
(density blocks, tile data, atom masses) so that a defect in the library
cannot also hide in the value it is checked against.
"""

from __future__ import annotations

import math

import numpy as np

WITNESS_RTOL = 1e-9


def exponent_value(text: str) -> float:
    """"2", "3/2", "1.5" or "inf" as a float (math.inf for inf)."""
    if text == "inf":
        return math.inf
    num, _, den = text.partition("/")
    return float(num) / float(den) if den else float(num)


def _power(h: np.ndarray, t: float) -> np.ndarray:
    """h^t for a positive definite Hermitian block."""
    lam, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * lam ** t) @ v.conj().T


def _schatten(blocks, s: float) -> float:
    svals = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
    if math.isinf(s):
        return float(svals.max())
    return float(np.sum(svals ** s) ** (1.0 / s))


def connecting_element(h_blocks, k_blocks, p: float, q: float):
    """d = k^{1/(2q)} h^{-1/(2p)}, blockwise, for faithful densities h and k."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    return [_power(k, inv_q / 2) @ _power(h, -inv_p / 2)
            for h, k in zip(h_blocks, k_blocks)]


def change_of_weights_norm(h_blocks, k_blocks, p: float, q: float) -> float:
    """Norm of x -> d x d* from L^p to L^q, for q < p.

    Hoelder gives ||d x d*||_q <= ||d||_{2r}^2 ||x||_p with 1/r = 1/q - 1/p,
    and x = |d|^{2r/p} attains it.  The value is returned only when that
    witness reproduces it to WITNESS_RTOL; otherwise ValueError.
    """
    if not q < p:
        raise ValueError("the witness reference needs q < p")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    r = 1.0 / (1.0 / q - inv_p)
    d = connecting_element(h_blocks, k_blocks, p, q)
    value = _schatten(d, 2 * r) ** 2
    witness = []
    for blk in d:
        lam, v = np.linalg.eigh(blk.conj().T @ blk)       # |d|^2
        witness.append((v * np.maximum(lam, 0.0) ** (r * inv_p)) @ v.conj().T)
    image = [blk @ x @ blk.conj().T for blk, x in zip(d, witness)]
    attained = _schatten(image, q) / _schatten(witness, p)
    if abs(attained - value) > WITNESS_RTOL * value:
        raise ValueError(f"witness gives {attained!r}, Hoelder bound {value!r}")
    return value


def two_two_norm(h_blocks, k_blocks) -> float:
    """Top singular value of the materialised matrix of x -> d x d* at (2, 2).

    On row-major block coordinates the map is kron(d, conj(d)) per block.
    """
    d = connecting_element(h_blocks, k_blocks, 2.0, 2.0)
    return max(float(np.linalg.svd(np.kron(b, b.conj()), compute_uv=False)[0]) for b in d)


def classical_bound(masses1, pushed, p: float, q: float) -> float:
    """||f||_r^{1/q} for the Radon-Nikodym derivative f = d(m2 o T^-1)/d m1, r = p/(p-q), q < p."""
    m1 = np.asarray(masses1, dtype=float)
    f = np.asarray(pushed, dtype=float) / m1
    r = p / (p - q)
    return float(np.sum(m1 * f ** r) ** (1.0 / r)) ** (1.0 / q)


def morphism_unit_images(dims1, dims2, tiles, block_unitaries):
    """J(E^s_ij) for every matrix unit of the source, from raw tile data.

    tiles: (src, dst, offset, kind, unitary or None); block_unitaries: one
    unitary or None per destination block, or None.  Returns a dict
    (s, i, j) -> list of destination blocks.
    """
    images = {}
    for s, n in enumerate(dims1):
        for i in range(n):
            for j in range(n):
                a = [np.zeros((m, m), dtype=complex) for m in dims1]
                a[s][i, j] = 1.0
                images[(s, i, j)] = apply_tiles(a, dims2, tiles, block_unitaries)
    return images


def apply_tiles(blocks, dims2, tiles, block_unitaries):
    """J(a) for a block list a, from raw tile data (see morphism_unit_images)."""
    out = [np.zeros((m, m), dtype=complex) for m in dims2]
    for src, dst, offset, kind, u in tiles:
        sub = blocks[src].T if kind == "A" else blocks[src]
        if u is not None:
            sub = u @ sub @ u.conj().T
        n = sub.shape[0]
        out[dst][offset:offset + n, offset:offset + n] += sub
    if block_unitaries is not None:
        out = [blk if w is None else w @ blk @ w.conj().T
               for blk, w in zip(out, block_unitaries)]
    return out


def composition_matrix(dims1, dims2, tiles, block_unitaries, h1, h2, p: float,
                       q: float, compress: bool = False) -> np.ndarray:
    """Matrix of x -> h2^{1/2q} J(h1^{-1/2p} x h1^{-1/2p}) h2^{1/2q} on block coordinates.

    With compress=True the argument of J is first replaced by its diagonal
    (the conditional expectation onto the diagonal subalgebra).
    """
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    pre = [_power(h, -inv_p / 2) for h in h1]
    post = [_power(h, inv_q / 2) for h in h2]
    cols = []
    for s, n in enumerate(dims1):
        for i in range(n):
            for j in range(n):
                a = [np.zeros((m, m), dtype=complex) for m in dims1]
                a[s][i, j] = 1.0
                a = [l @ x @ l for l, x in zip(pre, a)]
                if compress:
                    a = [np.diag(np.diagonal(x)) for x in a]
                image = apply_tiles(a, dims2, tiles, block_unitaries)
                cols.append(np.concatenate([(r @ y @ r).ravel() for r, y in zip(post, image)]))
    return np.array(cols).T
