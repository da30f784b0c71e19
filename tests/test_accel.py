"""The live torus partition sum must agree with its enumerating reference."""

import pytest

from isingrg import _accel


def test_partition_paths_agree():
    # Whatever path is live, the pure-numpy reference must match it.
    for (kh, kv, nc, nr) in [(0.1, 0.1, 2, 2), (0.4407, 0.4407, 4, 3),
                             (1.0, 0.3, 3, 4)]:
        live = _accel.partition_brute(kh, kv, nc, nr)
        ref = _accel._partition_brute_numpy(kh, kv, nc, nr)
        assert live == pytest.approx(ref, rel=1e-12)


def test_partition_size_guard():
    with pytest.raises(ValueError):
        _accel.partition_brute(0.1, 0.1, 5, 5)
