"""Filter-bank construction: derived taps against published closed forms,
mirror relations, and scaling-function transform identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingrg.wavelet import (
    Filter,
    cascade_product,
    export_csv,
    high_pass,
    m0,
    make_daubechies_filter,
    s_hat,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# derived taps vs independent closed forms


def test_haar_taps_closed_form(haar):
    np.testing.assert_allclose(haar.taps, [1 / SQRT2, 1 / SQRT2], rtol=0, atol=1e-16)


def test_four_tap_closed_form(d4):
    # Independent oracle: the four-tap member has the exact algebraic taps
    # (1±√3)/(4√2) and (3±√3)/(4√2).
    expected = np.array(
        [(1 + SQRT3), (3 + SQRT3), (3 - SQRT3), (1 - SQRT3)]) / (4 * SQRT2)
    np.testing.assert_allclose(d4.taps, expected, rtol=0, atol=5e-16)


def test_eight_tap_matches_published_table(d8):
    # Commonly quoted table values; those literals satisfy the defining
    # equations only to ~1e-12 (the derived taps satisfy them to 1e-15),
    # so the comparison is at table accuracy.
    published = [0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
                 -0.02798376941698385, -0.18703481171888114,
                 0.030841381835986965, 0.032883011666982945,
                 -0.010597401784997278]
    np.testing.assert_allclose(d8.taps, published, rtol=0, atol=5e-12)


def test_eight_tap_frozen_derived_values(d8):
    # Frozen from the 50-digit spectral factorization (regression pin).
    assert float(d8.taps[0]) == pytest.approx(0.2303778133088965, abs=1e-15)
    assert float(d8.taps[-1]) == pytest.approx(-0.010597401785069032, abs=1e-15)


@pytest.mark.parametrize("p", range(1, 11))
def test_tap_sum_and_norm(p):
    f = make_daubechies_filter(p)
    assert len(f) == 2 * p
    assert float(np.sum(f.taps)) == pytest.approx(SQRT2, abs=1e-13)
    assert float(np.dot(f.taps, f.taps)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("p", range(1, 11))
def test_orthonormal_even_shifts(p):
    f = make_daubechies_filter(p)
    for s in range(1, p):
        overlap = float(np.dot(f.taps[2 * s:], f.taps[:-2 * s]))
        assert abs(overlap) < 1e-13


@pytest.mark.parametrize("p", range(1, 11))
def test_vanishing_moments(p):
    # m0 has a zero of order p at theta = pi: sum (-1)^n n^q h_n = 0, q < p.
    f = make_daubechies_filter(p)
    n = np.arange(2 * p)
    signs = (-1.0) ** n
    for q in range(p):
        moment = float(np.sum(signs * n ** q * f.taps))
        scale = max(1.0, float(np.sum(n ** q * np.abs(f.taps))))
        assert abs(moment) / scale < 1e-11


def test_make_filter_validation():
    for bad in (0, 11, -3, 2.5, "db2"):
        with pytest.raises(ValueError):
            make_daubechies_filter(bad)


def test_filter_tap_count_validation():
    with pytest.raises(ValueError):
        Filter(name="broken", order=2, taps=np.ones(3))


# ---------------------------------------------------------------------------
# symbols and mirror filter


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), p=st.integers(1, 10))
def test_quadrature_mirror_identity(theta, p):
    f = make_daubechies_filter(p)
    val = abs(m0(f, theta)) ** 2 + abs(m0(f, theta + math.pi)) ** 2
    assert val == pytest.approx(1.0, abs=1e-13)


def test_m0_endpoints(d8):
    assert complex(m0(d8, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert abs(complex(m0(d8, math.pi))) < 1e-14


def test_high_pass_mirror_relation(d4):
    g = high_pass(d4)
    h = d4.taps
    two_p = h.size
    assert g.support_offset == 2
    for i, n in enumerate(range(2, two_p + 2)):
        assert g.taps[i] == pytest.approx(((-1.0) ** n) * h[two_p + 1 - n],
                                          abs=0.0)


def test_high_pass_orthogonality(d8):
    # <g, h shifted by even offsets> = 0 and |g| = 1: the two-channel bank
    # is orthonormal.
    g = high_pass(d8)
    h = d8.taps
    full_g = np.zeros(h.size + 2)
    full_g[2:] = g.taps
    full_h = np.zeros(h.size + 2)
    full_h[:h.size] = h
    assert float(np.dot(full_g, full_g)) == pytest.approx(1.0, abs=1e-13)
    for s in range(-4, 5):
        rolled = np.roll(full_h, 2 * s)
        if s < 0:
            rolled[2 * s:] = 0.0
        elif s > 0:
            rolled[:2 * s] = 0.0
        assert abs(float(np.dot(full_g, rolled))) < 1e-13


# ---------------------------------------------------------------------------
# scaling-function transform


def test_haar_transform_is_sinc(haar):
    # Independent closed form: prod cos(k 2^{-n-1}) e^{-ik 2^{-n-1}}
    # telescopes to e^{-ik/2} sin(k/2)/(k/2).
    k = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 6.0, 12.0, 25.0])
    expected = np.exp(-0.5j * k) * np.sin(k / 2) / (k / 2)
    np.testing.assert_allclose(s_hat(haar, k), expected, rtol=0, atol=1e-8)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_transform_at_zero(p):
    f = make_daubechies_filter(p)
    assert complex(s_hat(f, 0.0)) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(k=st.floats(-80.0, 80.0))
def test_two_scale_recursion(k, d8):
    # s_hat(2k) = m0(k) s_hat(k) up to truncation error.
    lhs = complex(s_hat(d8, 2 * k))
    rhs = complex(m0(d8, k)) * complex(s_hat(d8, k))
    assert lhs == pytest.approx(rhs, abs=2e-8)


def test_truncation_stability(d8):
    # Against a cascade 10 levels deeper than the documented cut.
    k = np.array([0.3, 1.7, 8.0, 40.0, 200.0])
    base = s_hat(d8, k)
    deep = cascade_product(d8, k, 40)
    np.testing.assert_allclose(base, deep, rtol=0, atol=1e-8)


def test_shift_orthonormality_of_transform(d8):
    # sum_r |s_hat(theta + 2 pi r)|^2 = 1 (integer-shift orthonormality).
    theta = np.array([0.3, 1.0, 2.2, 3.0])
    total = np.zeros_like(theta)
    for r in range(-80, 81):
        total += np.abs(s_hat(d8, theta + 2 * math.pi * r)) ** 2
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-6)


def test_taps_are_a_read_only_copy(d4):
    with pytest.raises(ValueError):
        d4.taps[0] = 0.0
    mine = np.array(d4.taps)
    filt = Filter(name="mine", order=2, taps=mine)
    assert mine.flags.writeable
    mine[0] = 0.0
    assert filt.taps[0] == d4.taps[0]


# ---------------------------------------------------------------------------
# CSV export


def test_export_csv_round_trip(tmp_path, d4):
    path = tmp_path / "taps.csv"
    export_csv(d4, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "n,h_n,g_n"
    assert len(rows) == 1 + 2 * d4.order + 2
    g = high_pass(d4)
    parsed = [row.split(",") for row in rows[1:]]
    for n, h_str, g_str in parsed:
        n = int(n)
        hv = d4.taps[n] if n < d4.taps.size else 0.0
        off = n - g.support_offset
        gv = g.taps[off] if 0 <= off < g.taps.size else 0.0
        assert float(h_str) == float(hv)
        assert float(g_str) == float(gv)
