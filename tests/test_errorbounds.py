"""Certified error machinery: comparison-factor suprema, windowed Sobolev
norms, the assembled bound, dynamical pairings, and the sweep reports."""

import csv
import json
import math

import numpy as np
import pytest

from isingrg import _invariants, cli
from isingrg.errorbounds import (
    BoundReport,
    InadmissibleFilterError,
    OscillationResolutionError,
    bound_report,
    bound_sweep,
    certified_components,
    covariance_deviation,
    dynamical_pairing,
    empirical_error,
    sobolev_norm,
    sup_constants,
)
from isingrg import errorbounds, rgflow
from isingrg._quadrature import symmetric_nodes
from isingrg.kernels import SelfDualVector, SiteVector
from isingrg.rgflow import (MOMENTUM_WINDOW, QuasiFreeState, _lag_matrix, _window_abs_s_hat,
                            momentum_cutoff)
from isingrg.wavelet import Filter, make_daubechies_filter, s_hat


V_DIFF0 = SelfDualVector.position_diff(0)
V_SUM1 = SelfDualVector.position_sum(1)
V_SUM0 = SelfDualVector.position_sum(0)


# ---------------------------------------------------------------------------
# comparison-factor suprema


def test_window_constant():
    assert MOMENTUM_WINDOW == (2.0 ** 9) * math.pi


def test_covariance_deviation_closed_form():
    th = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(covariance_deviation(th), 2.0 * np.abs(np.sin(th / 4.0)),
                       atol=1e-15)


def test_sup_constants_static_pair_exact():
    r = sup_constants(0.25, 0)
    assert r.values[0] == pytest.approx(0.5, abs=1e-6)
    assert r.values[1] == pytest.approx(0.5, abs=1e-6)
    assert r.claimed[:2] == (0.5, 0.5)
    # suprema sit in the small-argument limit
    assert max(r.locations) < 1e-6


@pytest.mark.parametrize("tt", [0.25, 0.5, 1.0])
def test_sup_constants_dynamic_pair_quarter_of_claimed_squared(tt):
    # measured suprema of the two propagator-difference ratios are the
    # small-argument limits c^2/24 and c/24 (c = 2 tt 2^m); the claimed
    # closed forms are exactly 16x larger (still valid upper bounds)
    r = sup_constants(tt, 0)
    c = 2.0 * tt
    assert r.values[2] == pytest.approx(c * c / 24.0, rel=1e-5)
    assert r.values[3] == pytest.approx(c / 24.0, rel=1e-5)
    assert r.claimed[2] / r.values[2] == pytest.approx(16.0, rel=1e-5)
    assert r.claimed[3] / r.values[3] == pytest.approx(16.0, rel=1e-5)


def test_sup_constants_scale_exponent():
    r = sup_constants(0.5, 3)
    c = 2.0 * 0.5 * 8.0
    assert r.values[2] == pytest.approx(c * c / 24.0, rel=1e-5)
    assert r.claimed[2] == pytest.approx((4.0 ** 3) * (8.0 / 3.0) * 0.25)
    assert r.claimed[3] == pytest.approx((2.0 ** 3) * (4.0 / 3.0) * 0.5)
    devs = r.deviations()
    assert devs[0] < 1e-6 and devs[1] < 1e-6
    assert devs[2] > 1.0  # honest gap between measured and claimed


# ---------------------------------------------------------------------------
# windowed Sobolev norms


def test_sobolev_frozen_values(d8):
    frozen = {1: 3.9874735403e1, 2: 2.9435539259e4,
              3: 3.2851304587e7, 4: 4.0209389281e10}
    for order, want in frozen.items():
        got = sobolev_norm(V_SUM0, d8, 0.5, order)
        assert got == pytest.approx(want, rel=1e-9)


def test_sobolev_grid_doubling_stable(d8):
    # the same norm on doubled panels (finest pi/128, width pi/4, order 16)
    base = sobolev_norm(V_SUM0, d8, 0.5, 2)
    k, w = symmetric_nodes(MOMENTUM_WINDOW, math.pi / 128.0, 16,
                           max_width=math.pi / 4.0)
    amp = np.sum(np.abs(V_SUM0.weight(k)) ** 2, axis=-1)
    fine = math.sqrt(np.dot(w, (1.0 + k * k) ** 2 * np.abs(s_hat(d8, k)) * amp))
    assert abs(fine - base) / base < 1e-6


def test_sobolev_monotone_in_order(d8):
    vals = [sobolev_norm(V_DIFF0, d8, 0.5, j) for j in (1, 2, 3, 4)]
    assert vals[0] < vals[1] < vals[2] < vals[3]


def test_sobolev_inadmissible_filters(haar, d8):
    # two-tap filter: |s^| ~ 1/k, weighted density has no octave decay
    with pytest.raises(InadmissibleFilterError, match="inadmissible"):
        sobolev_norm(V_SUM0, haar, 0.5, 1)
    # eight-tap filter at a weight too small to decay on the window
    with pytest.raises(InadmissibleFilterError):
        sobolev_norm(V_SUM0, d8, 0.2, 1)


def test_sobolev_validation(d8):
    with pytest.raises(ValueError):
        sobolev_norm(V_SUM0, d8, 0.5, 5)
    with pytest.raises(ValueError):
        sobolev_norm(V_SUM0, d8, 0.0, 1)
    with pytest.raises(ValueError):
        sobolev_norm(V_SUM0, d8, 1.0, 1)


def test_equal_filters_share_sobolev_caches():
    # the norms read one |s^| window sample per filter value
    first, second = make_daubechies_filter(3), make_daubechies_filter(3)
    assert first is not second and first == second
    sobolev_norm(V_SUM0, first, 0.55, 3)
    misses = _window_abs_s_hat.cache_info().misses
    assert sobolev_norm(V_SUM0, second, 0.55, 3) == sobolev_norm(V_SUM0, first, 0.55, 3)
    assert _window_abs_s_hat.cache_info().misses == misses
    assert _window_abs_s_hat(second) is _window_abs_s_hat(first)
    assert _window_abs_s_hat.cache_info().maxsize is not None
    assert not _window_abs_s_hat(first).flags.writeable


def test_one_s_hat_sample_per_filter(d8, monkeypatch):
    # the cutoff search, the admissibility check and all eight norms of a
    # bound read one sample: fresh vectors and a fresh gamma add no s_hat call
    calls = []

    def counted(filt, k):
        calls.append(filt)
        return s_hat(filt, k)
    monkeypatch.setattr(rgflow, "s_hat", counted)
    monkeypatch.setattr(errorbounds, "s_hat", counted)
    momentum_cutoff.cache_clear()
    _window_abs_s_hat.cache_clear()
    momentum_cutoff(d8)
    certified_components(2, 0.3, 1.0, SelfDualVector.position_sum(3),
                         SelfDualVector.position_diff(2), d8, 0.43)
    assert calls == [d8]


# ---------------------------------------------------------------------------
# assembled certified bound


def test_components_sum_to_bound(d8):
    comps = certified_components(3, 0.5, 1.0, V_DIFF0, V_SUM1, d8)
    assert all(c > 0.0 for c in comps)
    rep = bound_report(3, 0.5, 1.0, V_DIFF0, V_SUM1, d8)
    assert rep.components == comps
    assert rep.certified_bound == sum(comps)


def test_gamma_validation(d8):
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            certified_components(2, 0.0, 1.0, V_DIFF0, V_SUM1, d8, bad)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_swap_symmetry_exact_at_dyadic_gamma(gamma, d8):
    # swapping (v1, gamma) <-> (v2, 1 - gamma) with t0 -> -t0 leaves every
    # component's rounding unchanged
    a = sum(certified_components(3, 0.5, 1.0, V_DIFF0, V_SUM1, d8, gamma))
    b = sum(certified_components(3, -0.5, 1.0, V_SUM1, V_DIFF0, d8, 1.0 - gamma))
    assert a == b  # bit-for-bit


def test_swap_symmetry_close_at_generic_gamma(d8):
    # 1 - (1 - 0.3) is a different float, so only near-equality holds
    a = sum(certified_components(3, 0.5, 1.0, V_DIFF0, V_SUM1, d8, 0.3))
    b = sum(certified_components(3, -0.5, 1.0, V_SUM1, V_DIFF0, d8, 0.7))
    assert a == pytest.approx(b, rel=1e-12)


def test_static_bound_ratio_in_quarter_half(d8):
    # with t0 = 0 only the order-1/2 terms survive; the order-2 term
    # dominates at these windowed norms, putting the m -> m+1 ratio just
    # above 1/4 (it would approach 1/2 only once 2^m exceeds the norm ratio)
    for m in (2, 4, 6):
        ratio = sum(certified_components(m + 1, 0.0, 1.0, V_DIFF0, V_SUM1, d8)) / \
            sum(certified_components(m, 0.0, 1.0, V_DIFF0, V_SUM1, d8))
        assert 0.25 < ratio < 0.5
        assert ratio == pytest.approx(0.25, abs=1e-3)


def test_bound_finite_at_scaled_horizon(d8):
    # times growing like the unscaled window, t0 = 2^m T: the order-4
    # term's 2^(-2m) prefactor cancels the growth and the bound plateaus
    vals = [sum(certified_components(m, 0.5 * 2 ** m, 1.0, V_DIFF0, V_SUM1, d8))
            for m in (2, 4, 6, 8)]
    for v in vals:
        assert v == pytest.approx(2.42604e20, rel=1e-3)


# ---------------------------------------------------------------------------
# dynamical pairings and the empirical error


def test_pairing_side_validation(d8):
    with pytest.raises(ValueError):
        dynamical_pairing("bogus", 2, 0.0, 1.0, V_DIFF0, V_SUM1, d8)
    # both sides take the symbol of a positive, finite velocity t: at t <= 0
    # the limit symbol -i t k would name another state than the lattice side
    for side in ("renormalized", "limit"):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t must be positive"):
                dynamical_pairing(side, 2, 0.5, t, V_DIFF0, V_SUM1, d8)


def test_static_limit_pairing_cross_route(d8):
    # t0 = 0 pairing against the oracle correlators.self_dual_two_point,
    # the correlator module's independent quadrature
    from isingrg.correlators import self_dual_two_point
    dyn = dynamical_pairing("limit", 0, 0.0, 1.0, V_DIFF0, V_SUM1, d8)
    stat = self_dual_two_point(QuasiFreeState.critical_limit(d8),
                               V_DIFF0, V_SUM1)
    assert stat.real == pytest.approx(0.5684013490414332, abs=1e-9)
    assert abs(dyn - stat) < 5e-10


def test_static_renormalized_pairing_cross_route(d8):
    # oracle: correlators.self_dual_two_point, as above
    from isingrg.correlators import self_dual_two_point
    from isingrg.kernels import Couplings
    dyn = dynamical_pairing("renormalized", 8, 0.0, 1.0, V_DIFF0, V_SUM1, d8)
    st = QuasiFreeState.renormalized(Couplings.critical(), d8, 8)
    stat = self_dual_two_point(st, V_DIFF0, V_SUM1)
    assert abs(dyn - stat) < 1e-8


def test_empirical_error_frozen_anchor(d8):
    got = empirical_error(8, 0.5, 1.0, V_DIFF0, V_SUM1, d8)
    assert got == pytest.approx(1.659027e-3, rel=1e-4)


def test_empirical_error_halving_rate(d8):
    e5 = empirical_error(5, 0.5, 1.0, V_DIFF0, V_SUM1, d8)
    e7 = empirical_error(7, 0.5, 1.0, V_DIFF0, V_SUM1, d8)
    slope = 0.5 * math.log2(e7 / e5)
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_empirical_error_static_tail(d8):
    vals = {m: empirical_error(m, 0.0, 1.0, V_SUM0, V_SUM0, d8)
            for m in (4, 6, 8, 9, 10)}
    assert vals[4] == pytest.approx(3.033020e-6, rel=1e-4)
    assert vals[8] == pytest.approx(1.431467e-10, rel=1e-3)
    assert vals[4] > vals[6] > vals[8]
    # once the lattice window reaches the shared cap both sides use
    # identical nodes and the difference is exactly zero
    assert vals[9] == 0.0
    assert vals[10] == 0.0


def test_oscillation_resolution_error(d8):
    # taps scaled by 1.01 give an |s^|^2 that the window level does not
    # resolve: the doubling check must catch the moved quadrature and raise
    corrupt = Filter(name="d8-corrupt", order=d8.order, taps=np.asarray(d8.taps) * 1.01)
    with pytest.raises(OscillationResolutionError, match="panel doubling"):
        empirical_error(2, 0.0, 1.0, V_DIFF0, V_SUM1, corrupt)


def test_pairing_input_validation(d8):
    # every pairing entry point rejects a time naming no grid
    calls = (
        lambda t0: dynamical_pairing("limit", 2, t0, 1.0, V_DIFF0, V_SUM1, d8),
        lambda t0: empirical_error(2, t0, 1.0, V_DIFF0, V_SUM1, d8),
        lambda t0: bound_report(2, t0, 1.0, V_DIFF0, V_SUM1, d8),
    )
    for call in calls:
        for t0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t0 must be finite"):
                call(t0)


@pytest.mark.parametrize("m", [-1, 2.5, 17, 40, 10 ** 400, True, math.nan])
def test_depth_checked_not_truncated(m, d8):
    # a negative, fractional, boolean or past-MAX_DEPTH depth names no
    # renormalized state, on either pairing side, in every bound, in the
    # calibration and in the sup-constants' phase scale
    calls = (
        lambda: rgflow.calibrated_couplings(1.0, 0.5, 2.0, m),
        lambda: sup_constants(0.5, m),
        lambda: certified_components(m, 0.5, 1.0, V_DIFF0, V_SUM1, d8),
        lambda: dynamical_pairing("renormalized", m, 0.5, 1.0, V_DIFF0, V_SUM1, d8),
        lambda: dynamical_pairing("limit", m, 0.5, 1.0, V_DIFF0, V_SUM1, d8),
        lambda: empirical_error(m, 0.5, 1.0, V_DIFF0, V_SUM1, d8),
        lambda: bound_report(m, 0.5, 1.0, V_DIFF0, V_SUM1, d8),
        lambda: bound_sweep((m,), (0.5,), 1.0, V_DIFF0, V_SUM1, d8),
    )
    for call in calls:
        with pytest.raises(ValueError, match="m must be"):
            call()


@pytest.mark.parametrize("tt", [math.nan, math.inf, -math.inf])
def test_sup_constants_need_finite_time(tt):
    with pytest.raises(ValueError, match="t0_times_t must be finite"):
        sup_constants(tt, 0)


_P_PLUS = np.array([[1.0, 1.0], [1.0, 1.0]]) / 2.0
_P_MINUS = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 2.0


def _site_weights(v):
    """``{j: (xi_j, eta_j)}`` of a doubled-space vector."""
    out = {}
    for slot, part in enumerate((v.xi, v.eta)):
        for j, x in zip(part.sites.tolist(), part.values):
            out.setdefault(j, np.zeros(2, dtype=complex))[slot] += x
    return out


@pytest.mark.parametrize("p", [1, 4])
def test_limit_dynamics_translates_static_table(p):
    # at integer c = 2 t0 t the limit pairing is the static critical-limit
    # table shifted by +c on P+ = (I + sigma_x)/2 and by -c on P-:
    # sum_{j,l} conj(w1_j)^T [P(j-l+c) P+ + P(j-l-c) P-] conj(w2_l); the two
    # sides share no nodes (window levels against the table's octave panels)
    filt = make_daubechies_filter(p)
    state = QuasiFreeState.critical_limit(filt)
    rng = np.random.default_rng(p)

    def random_vector():
        part = lambda: SiteVector(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)))
        return SelfDualVector(part(), part())

    for v1, v2 in ((V_DIFF0, V_SUM1), (random_vector(), random_vector())):
        for c in (-1, 0, 1, 2):
            want = sum(np.conj(w1) @ (_lag_matrix(state, j - l + c) @ _P_PLUS
                                      + _lag_matrix(state, j - l - c) @ _P_MINUS)
                       @ np.conj(w2)
                       for j, w1 in _site_weights(v1).items()
                       for l, w2 in _site_weights(v2).items())
            got = dynamical_pairing("limit", 0, c / 2.0, 1.0, v1, v2, filt)
            assert abs(got - want) <= 1e-13, (c, got, want)


def _level_grid(filt, level, kmax=MOMENTUM_WINDOW):
    """Positive nodes, weights and |s^| of a window level, blocks joined."""
    return tuple(np.concatenate(x) for x in
                 zip(*rgflow._window_level_blocks(filt, level, kmax)))


def test_level_zero_pairing_grid_is_window_sample(d8):
    k, w, a = _level_grid(d8, 0)
    kw, ww = rgflow._window_nodes()
    half = kw.size // 2
    assert np.array_equal(k, kw[half:]) and np.array_equal(-k[::-1], kw[:half])
    assert np.array_equal(w, ww[half:]) and np.array_equal(w[::-1], ww[:half])
    assert np.array_equal(a, _window_abs_s_hat(d8)[half:])


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_renormalized_pairing_grid_is_window_prefix(d8, level):
    # every 2^m pi is a panel edge, so the depth-m side reads exactly the
    # nodes, weights and |s^| of the limit side below 2^m pi
    k, w, a = _level_grid(d8, level)
    for m in (0, 3, 8):
        n = int(np.searchsorted(k, (2.0 ** m) * math.pi))
        km, wm, am = _level_grid(d8, level, (2.0 ** m) * math.pi)
        assert km.size == n and km[-1] < (2.0 ** m) * math.pi < k[n]
        assert np.array_equal(km, k[:n]) and np.array_equal(wm, w[:n])
        assert np.array_equal(am, a[:n])


def test_pairing_sample_cached_per_filter_and_level(d8, monkeypatch):
    # t0 = 0.3 and 0.2 both take window levels 1 and 2: the second error,
    # with other vectors and depth, samples no s_hat; blocks stay bounded
    calls = []

    def counted(filt, k):
        calls.append(k.size)
        return s_hat(filt, k)
    monkeypatch.setattr(rgflow, "s_hat", counted)
    rgflow._refined_abs_s_hat.cache_clear()
    cold = empirical_error(5, 0.3, 1.0, V_DIFF0, V_SUM1, d8)
    assert calls and max(calls) <= 1 << 14
    del calls[:]
    empirical_error(3, 0.2, 1.0, V_SUM0, SelfDualVector.position_diff(2), d8)
    assert calls == []
    assert empirical_error(5, 0.3, 1.0, V_DIFF0, V_SUM1, d8) == cold
    info = rgflow._refined_abs_s_hat.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert not rgflow._refined_abs_s_hat(d8, 2, 0).flags.writeable


# ---------------------------------------------------------------------------
# reports, sweep, CSV


@pytest.fixture(scope="module")
def small_sweep(d8):
    return bound_sweep([2, 4], [0.0, 0.5], 1.0, V_DIFF0, V_SUM1, d8)


def test_bound_reports_satisfied(small_sweep):
    assert len(small_sweep) == 4
    for r in small_sweep:
        assert r.satisfied
        assert r.certified_bound == pytest.approx(sum(r.components), rel=1e-15)
        assert r.empirical_error < r.certified_bound


def test_bound_sweep_order(small_sweep):
    assert [(r.m, r.t0) for r in small_sweep] == \
        [(2, 0.0), (2, 0.5), (4, 0.0), (4, 0.5)]


def test_bound_report_single_matches_sweep(small_sweep, d8):
    solo = bound_report(2, 0.5, 1.0, V_DIFF0, V_SUM1, d8)
    ref = small_sweep[1]
    assert solo.certified_bound == ref.certified_bound
    assert solo.empirical_error == pytest.approx(ref.empirical_error, rel=1e-12)


def test_report_satisfied_flag_logic():
    rep = BoundReport(m=1, t0=0.0, empirical_error=2.0, certified_bound=1.0,
                      components=(1.0, 0.0, 0.0, 0.0))
    assert not rep.satisfied
    edge = BoundReport(m=1, t0=0.0, empirical_error=1.0 + 0.5e-8,
                       certified_bound=1.0, components=(1.0, 0.0, 0.0, 0.0))
    assert edge.satisfied  # within the shared quadrature tolerance


def test_verify_writes_bound_sweep_table(tmp_path, monkeypatch, small_sweep,
                                         d8):
    # verify sweeps the small grid; the module's sweep of that grid stands in
    # for it, so the test reads the file against known reports
    grids = []

    def sweep(*grid):
        grids.append(grid)
        return small_sweep

    monkeypatch.setattr(_invariants, "bound_sweep", sweep)
    monkeypatch.setenv("ISINGRG_OUTDIR", str(tmp_path))
    assert cli.main(["verify", "--suite", "errorbounds", "--out", "rep.json"]) == 0
    assert grids == [((2, 4), (0.0, 0.5), 1.0, V_DIFF0, V_SUM1, d8)]
    lines = (tmp_path / "bound_sweep_small.csv").read_text().splitlines()
    assert lines[0].startswith("# isingrg ")
    config = json.loads(lines[1].removeprefix("# config: "))
    assert config == json.loads((tmp_path / "rep.json").read_text())["config"]
    rows = list(csv.reader(lines[2:]))
    assert rows[0] == ["m", "t0", "empirical", "bound", "term_order1",
                       "term_order2", "term_order3", "term_order4"]
    assert len(rows) == 1 + len(small_sweep)
    for row, rep in zip(rows[1:], small_sweep):
        assert int(row[0]) == rep.m
        assert float(row[1]) == rep.t0
        assert float(row[2]) == rep.empirical_error  # repr round-trips
        assert float(row[3]) == rep.certified_bound
        assert tuple(float(x) for x in row[4:]) == rep.components
