"""Run-length expansions for CSR (compressed sparse row) layouts, pure
NumPy: the vectorized ``arange`` per item behind every pair expansion
in the engine (cells under a box, edges of a polygon, a key run's
partners), and the chunking that bounds such an expansion's memory.
"""

from __future__ import annotations

import numpy as np


def concat_ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every c in counts, vectorized:
    [2,0,3] -> [0,1, 0,1,2]."""
    counts = np.asarray(counts, np.int64)
    total = int(counts.sum())
    if not total:
        return np.empty(0, np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


def csr_expand(off: np.ndarray, q: np.ndarray):
    """(pair, item) for every item ``off[q[i]]:off[q[i]+1]`` of every
    pair ``i``, pairs ascending."""
    counts = off[q + 1] - off[q]
    return np.repeat(np.arange(len(q)), counts), np.repeat(off[q], counts) + concat_ranges(counts)


PAIR_CHUNK = 2_000_000


def pair_chunks(counts: np.ndarray):
    """(lo, hi) slices of ``counts`` that each sum to about ``PAIR_CHUNK``
    (a single count above it is a slice of its own), so a pair
    expansion of ``counts[lo:hi]`` stays bounded in memory."""
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    cuts = np.searchsorted(cum, np.arange(PAIR_CHUNK, total, PAIR_CHUNK), side="right")
    return zip(np.r_[0, cuts], np.r_[cuts, len(counts)])
