"""The counted partition sum against an enumerating reference, on shapes
where the count route transposes the torus or np.roll doubles bonds."""

import numpy as np
import pytest

from isingrg import _accel


def _partition_enumerated(k_horiz, k_vert, n_cols, n_rows):
    """Sum exp(k_horiz*<within-row bonds> + k_vert*<between-row bonds>) over
    all spin configurations of the periodic n_cols x n_rows torus, by
    enumerating every configuration's bits and summing floats."""
    n = n_cols * n_rows
    total = 0.0
    # batch to bound memory: 2^20 configs x n bits of int8
    step = 1 << 20
    for lo in range(0, 1 << n, step):
        c = np.arange(lo, min(lo + step, 1 << n), dtype=np.int64)
        bits = (c[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
        s = (2 * bits - 1).astype(np.int8).reshape(-1, n_rows, n_cols)
        vert = np.einsum("brc,brc->b", s, np.roll(s, -1, axis=1), dtype=np.float64)
        horiz = np.einsum("brc,brc->b", s, np.roll(s, -1, axis=2), dtype=np.float64)
        total += float(np.exp(k_horiz * horiz + k_vert * vert).sum())
    return total


@pytest.mark.parametrize("kh, kv, nc, nr", [
    # more columns than rows: the count runs along the columns, so the
    # within-row and between-row couplings trade places
    (0.2, 0.9, 5, 3),
    (1.0, 0.3, 4, 3),
    (0.7, 0.15, 6, 2),
    # width 2 and height 2: each ring holds the same bond twice
    (0.3, 0.8, 2, 5),
    (0.9, 0.25, 2, 7),
    (0.6, 0.1, 7, 2),
    (0.35, 1.2, 2, 2),
    # fewer columns than rows: the count runs along the rows as given
    (1.0, 0.3, 3, 4),
])
def test_counted_partition_matches_enumeration(kh, kv, nc, nr):
    live = _accel.partition_brute(kh, kv, nc, nr)
    ref = _partition_enumerated(kh, kv, nc, nr)
    assert live == pytest.approx(ref, rel=1e-12)


def test_bond_counts_cover_every_configuration():
    for width in range(1, 5):
        for length in range(width, 24 // width + 1):
            g = _accel._bond_counts(width, length)
            assert int(g.sum()) == 2 ** (width * length)


def test_partition_size_guard():
    with pytest.raises(ValueError, match="24 spins"):
        _accel.partition_brute(0.1, 0.1, 5, 5)
