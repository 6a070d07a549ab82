"""Deterministic batched random streams and fast vectorized normals.

Monte Carlo estimators in this package draw paths in fixed-size batches.
Each batch owns an independent generator keyed by (seed, stream tag, batch
index) through SeedSequence, and `map_batches` runs the batches, serially
or on a thread pool, and hands back their results in batch order for the
caller to reduce, so every estimate is a pure function of (seed, n_paths)
no matter how batches are scheduled across threads.

Normals come from a vectorized Box-Muller transform over float32 uniforms
rather than Generator.standard_normal: the ziggurat path is several times
slower per value in this numpy build, and the transform's float32 tail
truncation (|z| <= 5.8 sigma, missing mass ~1e-8) is orders of magnitude
below any tolerance used here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1


def batch_rng(seed: int, tag: int, batch_index: int) -> np.random.Generator:
    """Independent generator for one (seed, stream, batch) triple."""
    ss = np.random.SeedSequence([seed & _MASK64, tag, batch_index])
    return np.random.Generator(np.random.SFC64(ss))


def map_batches(job, n_batches: int, threads: int) -> list:
    """[job(0), ..., job(n_batches - 1)], in batch order, computed on a
    pool of `threads` threads when that and the batch count exceed one."""
    if threads > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(job, range(n_batches)))
    return [job(b) for b in range(n_batches)]


def fill_normals(rng: np.random.Generator, out_flat: np.ndarray,
                 u: np.ndarray, v: np.ndarray, scale: float = 1.0) -> None:
    """Fill a flat float32 array of even length 2k with N(0, scale^2)
    samples; u and v are float32 scratch arrays of length k."""
    k = u.size
    za = out_flat[:k]
    zb = out_flat[k:]
    rng.random(out=u, dtype=np.float32)
    rng.random(out=v, dtype=np.float32)
    np.subtract(1.0, u, out=u)  # (0, 1]: log never sees zero
    np.log(u, out=u)
    u *= np.float32(-2.0 * scale * scale)
    np.sqrt(u, out=u)
    v *= np.float32(2.0 * math.pi)
    np.cos(v, out=za)
    za *= u
    np.sin(v, out=zb)
    zb *= u


class NormalChunks:
    """Reusable Box-Muller buffer producing (k, n, m)-shaped float32 normal
    increments, reallocated only when the requested shape grows."""

    def __init__(self):
        self._flat = np.empty(0, dtype=np.float32)
        self._u = np.empty(0, dtype=np.float32)
        self._v = np.empty(0, dtype=np.float32)

    def draw(self, rng: np.random.Generator, k: int, n: int, m: int,
             scale: float) -> np.ndarray:
        total = k * n * m
        size = total + (total & 1)
        if self._flat.size < size:
            self._flat = np.empty(size, dtype=np.float32)
            self._u = np.empty(size // 2, dtype=np.float32)
            self._v = np.empty(size // 2, dtype=np.float32)
        flat = self._flat[:size]
        half = size // 2
        fill_normals(rng, flat, self._u[:half], self._v[:half], scale)
        return flat[:total].reshape(k, n, m)
