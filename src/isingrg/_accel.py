"""Hot kernel: the exact torus partition sum.

``partition_brute`` has one route, an exact integer count of spin
configurations by bond energy (pure numpy; no JIT needed).
``_partition_brute_numpy`` enumerates every configuration and stays as the
reference.  ``HAS_NUMBA`` only reports whether numba is installed; it
selects nothing.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache

import numpy as np

HAS_NUMBA = importlib.util.find_spec("numba") is not None

_MAX_BRUTE_SPINS = 24


def _partition_brute_numpy(k_horiz: float, k_vert: float, n_cols: int, n_rows: int) -> float:
    """Sum exp(k_horiz*<within-row bonds> + k_vert*<between-row bonds>) over
    all spin configurations of the periodic n_cols x n_rows torus.

    Reference route: enumerates every configuration's bits and sums floats.
    """
    n = n_cols * n_rows
    if n > _MAX_BRUTE_SPINS:
        raise ValueError("brute-force partition limited to 24 spins")
    configs = np.arange(1 << n, dtype=np.int64)
    total = 0.0
    # batch to bound memory: 2^20 configs x n bits of int8
    step = 1 << 20
    for lo in range(0, 1 << n, step):
        c = configs[lo:lo + step]
        bits = (c[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
        s = (2 * bits - 1).astype(np.int8).reshape(-1, n_rows, n_cols)
        vert = np.einsum("brc,brc->b", s, np.roll(s, -1, axis=1), dtype=np.float64)
        horiz = np.einsum("brc,brc->b", s, np.roll(s, -1, axis=2), dtype=np.float64)
        total += float(np.exp(k_horiz * horiz + k_vert * vert).sum())
    return total


@lru_cache(maxsize=64)  # the 24-spin guard leaves 44 shapes
def _bond_counts(width: int, length: int) -> np.ndarray:
    """Exact counts ``g[h, v]`` of the ``2^(width*length)`` configurations
    of the periodic torus with ``length`` rows of ``width`` spins.

    ``h`` is the number of satisfied (equal-spin) bonds within rows and ``v``
    the number between neighbouring rows; each direction has ``width*length``
    bonds, counted as ``np.roll`` counts them (a ring of two spins has two
    bonds between them, a ring of one a bond to itself).  The rows are
    enumerated one at a time with state (first row, current row), so every
    configuration is counted once, in int64, without forming a transfer
    matrix.
    """
    n = width * length
    rows = np.arange(1 << width)
    bits = (rows[:, None] >> np.arange(width)) & 1
    h_row = (bits == np.roll(bits, -1, axis=1)).sum(axis=1)
    v_pair = (bits[:, None, :] == bits[None, :, :]).sum(axis=2)
    # counts[first row, current row, h, v]
    counts = np.zeros((rows.size, rows.size, n + 1, n + 1), dtype=np.int64)
    counts[rows, rows, h_row, 0] = 1
    for _ in range(length - 1):
        nxt = np.zeros_like(counts)
        for c in rows:
            h = h_row[c]
            for e in np.unique(v_pair[:, c]):
                inflow = counts[:, v_pair[:, c] == e].sum(axis=1)
                nxt[:, c, h:, e:] += inflow[:, :n + 1 - h, :n + 1 - e]
        counts = nxt
    # close the torus: bonds between the last row and the first
    g = np.zeros((n + 1, n + 1), dtype=np.int64)
    for a in rows:
        for e in np.unique(v_pair[:, a]):
            g[:, e:] += counts[a, v_pair[:, a] == e, :, :n + 1 - e].sum(axis=0)
    if int(g.sum()) != 1 << n:
        raise RuntimeError(f"bond counts of the {width}x{length} torus sum to "
                           f"{int(g.sum())}, not 2^{n}")
    g.flags.writeable = False
    return g


def partition_brute(k_horiz: float, k_vert: float, n_cols: int, n_rows: int) -> float:
    """Exact torus partition sum from the integer bond-energy counts.

    ``k_horiz`` couples neighbors within a row (column j to j+1, periodic),
    ``k_vert`` couples the same column across neighboring rows.  The counts
    are taken along the narrower side and cached per shape, so the sum
    ``exp(K_h E_h) g exp(K_v E_v)`` is the only step that depends on the
    couplings.
    """
    n = n_cols * n_rows
    if n > _MAX_BRUTE_SPINS:
        raise ValueError("brute-force partition limited to 24 spins")
    if n_cols <= n_rows:
        g, k_within, k_between = _bond_counts(n_cols, n_rows), k_horiz, k_vert
    else:  # rows of the count are the torus columns
        g, k_within, k_between = _bond_counts(n_rows, n_cols), k_vert, k_horiz
    energy = 2.0 * np.arange(n + 1) - n
    return float(np.exp(k_within * energy) @ g @ np.exp(k_between * energy))
