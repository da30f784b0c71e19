"""Renormalization flow: closed-form anchors, limits,
classification, and calibrated massive/thermal convergence."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from isingrg.correlators import self_dual_two_point, toeplitz_correlation
from isingrg.kernels import Couplings, SelfDualVector, SiteVector
from isingrg.rgflow import (
    DISORDER_KERNEL,
    ORDER_KERNEL,
    QuasiFreeState,
    _fft_window,
    _lag_matrix,
    _lag_octave,
    _lattice_lags,
    calibrated_couplings,
    classify_flow,
    limit_two_point,
    massive_thermal_two_point,
    momentum_cutoff,
    renormalized_two_point,
)
from isingrg._quadrature import panel_nodes
from isingrg.wavelet import Filter, make_daubechies_filter, s_hat

DELTA0 = SiteVector.delta(0)
DELTA1 = SiteVector.delta(1)


# ---------------------------------------------------------------------------
# bare state anchors (independent closed forms)


def test_bare_density_closed_form(d8):
    # Critical ground state: <a_0 a*_0> = (1/2pi) Int (1-|sin(theta/2)|)/2
    #                                   = 1/2 - 1/pi.
    val = renormalized_two_point(Couplings.critical(), d8, 0, DELTA0, DELTA0,
                                 "a_adag")
    assert val.real == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-12)
    assert abs(val.imag) < 1e-14


def test_bare_pairing_closed_form(d8):
    # Critical ground state anomalous pair: <a*_0 a*_1> = -2/(3 pi),
    # verified against a dense 14-site ground-state computation.
    c = Couplings.critical()
    cc = renormalized_two_point(c, d8, 0, DELTA0, DELTA1, "adag_adag")
    assert cc.real == pytest.approx(-2.0 / (3.0 * math.pi), abs=1e-12)
    assert abs(cc.imag) < 1e-14
    # antisymmetry of the pair function and the operator-adjoint identity
    flip = renormalized_two_point(c, d8, 0, DELTA1, DELTA0, "adag_adag")
    assert complex(flip) == pytest.approx(complex(-cc), abs=1e-12)
    aa = renormalized_two_point(c, d8, 0, DELTA0, DELTA1, "a_a")
    assert complex(aa) == pytest.approx(complex(np.conj(flip)), abs=1e-12)


def test_car_norm_identity(haar, d4, d8):
    # <a(v) a*(v)> + <a*(v) a(v)> = ||v||^2 for every state along the flow.
    # On the m-times renormalized state this is the isometry of the iterated
    # coarse-graining, ||R^m v||^2 = ||v||^2.
    c = Couplings(1.0, 0.7, beta=2.0)
    rng = np.random.default_rng(3)
    xi = SiteVector(tuple(rng.normal(size=4) + 1j * rng.normal(size=4)), -1)
    for filt in (haar, d4, d8):
        for m in (0, 3, 8, 16):
            for v in (DELTA0, xi):
                s = (renormalized_two_point(c, filt, m, v, v, "a_adag")
                     + renormalized_two_point(c, filt, m, v, v, "adag_a"))
                assert complex(s) == pytest.approx(v.norm_sq(), abs=1e-9), \
                    (filt.order, m)


def test_lattice_equals_depth_zero(d4):
    # the depth-0 state keeps no filter: it is the lattice state, and the
    # two share one lag-table cache entry
    c = Couplings(1.0, 0.4, beta=1.1)
    depth0 = QuasiFreeState.renormalized(c, d4, 0)
    assert depth0 == QuasiFreeState.lattice(c)
    assert hash(depth0) == hash(QuasiFreeState.lattice(c))


def test_input_validation(d4):
    c = Couplings.critical()
    with pytest.raises(ValueError):
        renormalized_two_point(c, d4, -1, DELTA0, DELTA0)
    with pytest.raises(ValueError):
        renormalized_two_point(c, d4, 1, DELTA0, DELTA0, kind="a_b")
    # beta0 < 0 would be an inverted population; beta0 = 0 and t <= 0 are
    # rejected as they are for Couplings
    for beta0, t in ((-2.0, 1.0), (0.0, 1.0), (2.0, 0.0), (2.0, -1.0)):
        with pytest.raises(ValueError):
            massive_thermal_two_point(d4, DELTA0, DELTA0, "a_adag", mu0=1.0,
                                      beta0=beta0, t=t)


# ---------------------------------------------------------------------------
# one route: every two-point function reads its state's lag table

_FIELDS = {"a": SelfDualVector.from_annihilator,
           "adag": lambda v: SelfDualVector.from_creator(v.conj())}


def test_two_point_kinds_match_general_pairing(d4, d8):
    # flow-workload-like vectors inside sites [-2, 2] against the oracle
    # correlators.self_dual_two_point, the direct quadrature of the
    # doubled-space pairing, a(v) = Psi(from_annihilator(v)) and
    # a*(v) = Psi(from_creator(conj v))
    rng = np.random.default_rng(11)
    v1 = SiteVector(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)), -2)
    v2 = SiteVector(tuple(rng.normal(size=3) + 1j * rng.normal(size=3)), -1)
    c = Couplings(1.0, 0.8, beta=3.0)
    cases = [(QuasiFreeState.renormalized(c, d4, m),
              partial(renormalized_two_point, c, d4, m)) for m in (0, 3, 12)]
    cases += [(QuasiFreeState.critical_limit(d8), partial(limit_two_point, d8)),
              (QuasiFreeState.massive_thermal(d8, 0.5, 2.0),
               partial(massive_thermal_two_point, d8, mu0=0.5, beta0=2.0))]
    for state, two_point in cases:
        for kind in ("a_adag", "adag_adag", "a_a", "adag_a"):
            op1, op2 = kind.split("_")
            oracle = self_dual_two_point(state, _FIELDS[op1](v1), _FIELDS[op2](v2))
            assert abs(two_point(v1, v2, kind) - oracle) <= 1e-13, \
                (state.kind, state.m, kind)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_transition_tables_match_quadrature_oracle(p):
    # T^m K against the oracle correlators.self_dual_two_point, the direct
    # quadrature of the doubled-space pairing over the 2^m pi window, which
    # shares no code with T
    filt = make_daubechies_filter(p)
    rng = np.random.default_rng(5)
    v1 = SiteVector(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)), -1)
    v2 = SiteVector(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)), 0)
    for c in (Couplings.critical(), Couplings(1.0, 0.7, 0.6), Couplings(1.0, 1.3, 8.0)):
        for m in (0, 3, 8, 12):
            state = QuasiFreeState.renormalized(c, filt, m)
            for kind in ("a_adag", "adag_adag", "a_a", "adag_a"):
                op1, op2 = kind.split("_")
                oracle = self_dual_two_point(state, _FIELDS[op1](v1), _FIELDS[op2](v2))
                value = renormalized_two_point(c, filt, m, v1, v2, kind)
                assert abs(value - oracle) <= 1e-12, (c, m, kind)


def test_lattice_lags_independent_of_block_boundaries():
    # the first T step reads the lattice lags in blocks: a block starting
    # inside the tail's FFT window but past the tail, or spanning several
    # 2^15-lag windows, reads the same values as one request
    for c, cuts in ((Couplings(1.0, 0.7, 0.6), (-16, 0, 15, 16, 20)),
                    (Couplings(1.0, 1.0 - 1e-3), (-40000, -16385, -16384, 0, 36850))):
        lags = _lattice_lags(c)
        whole = lags(-50000, 50000)
        assert np.count_nonzero(whole[:100]) == 0  # beyond the 1e-16 tail
        bounds = [-50000, *cuts, 50001]
        parts = [lags(a, b - 1) for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole)


def test_fft_windows_built_once_per_state():
    # a near-critical state caps its FFT at 2^22 points; every octave and
    # depth of it reads the same cached read-only windows of 2^15 lags.  A
    # d4 (q = 3) separation-2 table at depth m reads |n| <= 2^m (2 + q) - q.
    c = Couplings(1.0, 1.0 - 1e-7)
    d4, half = make_daubechies_filter(2), (1 << 15) // 2
    for m in (8, 12):
        _lag_octave.cache_clear()
        _fft_window.cache_clear()
        toeplitz_correlation(QuasiFreeState.renormalized(c, d4, m), 2)
        reach = 2 ** m * (2 + 3) - 3
        assert _fft_window.cache_info().misses == 2 * ((reach + half) // (2 * half)) + 1
    assert _fft_window.cache_info().maxsize == 8
    assert not _fft_window(c, 0).flags.writeable


def _ground_lag_reference(t1, t3, n):
    """``g(n) = (1/pi) Int_0^pi [cos(n th) Re p - sin(n th) Im p] d th`` of the
    ground state, ``p = z/|z|``, by ``scipy.integrate.quad`` with breakpoints
    at ``eps 2^k`` (``eps = |t1 - t3|``) and the cancellation-free forms
    ``|z|^2 = eps^2 + 4 t1 t3 sin^2(th/2)``, ``Re z = (t1 - t3) + 2 t3 sin^2(th/2)``."""
    eps = abs(t1 - t3)

    def f(th):
        s2 = math.sin(th / 2.0) ** 2
        absz = math.sqrt(eps * eps + 4.0 * t1 * t3 * s2)
        re, im = ((t1 - t3) + 2.0 * t3 * s2) / absz, -t3 * math.sin(th) / absz
        return math.cos(n * th) * re - math.sin(n * th) * im

    points = [eps * 2.0 ** k for k in range(-4, 64) if eps * 2.0 ** k < math.pi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = quad(f, 0.0, math.pi, points=points, limit=5000, epsabs=1e-17,
                   epsrel=1e-14)[0]
    return val / math.pi


@pytest.mark.parametrize("gap, tol", [(1e-3, 1e-12), (1e-5, 1e-12), (1e-7, 5.6e-8)])
def test_near_critical_lattice_lags(gap, tol):
    # the m = 0 off-diagonal table of ground states near criticality: the
    # lattice lag P_10(n) = -i g(n).  At 1 - 1e-7 the peak of width 1e-7 at
    # theta = 0 is narrower than a cell of the capped FFT grid.
    state = QuasiFreeState.lattice(Couplings(1.0, 1.0 - gap))
    for n in (0, 1, 3):
        value = 1j * _lag_matrix(state, n)[1, 0]
        assert abs(value - _ground_lag_reference(1.0, 1.0 - gap, n)) <= tol, n


# ---------------------------------------------------------------------------
# momentum cutoff


def test_cutoff_met_for_d8(d8):
    rep = momentum_cutoff(d8)
    assert rep.met
    assert rep.tail <= rep.target
    assert rep.cutoff <= (2.0 ** 9) * math.pi
    masses = np.array(rep.octave_masses)
    assert (masses[3:] < masses[2]).all()


def test_cutoff_unmet_for_haar(haar):
    # |s^|^2 ~ k^-2 for the two-tap filter: octave masses decay only
    # geometrically with ratio 1/2, so the 1e-10 target is unreachable
    # within the capped window and the report must say so.
    rep = momentum_cutoff(haar)
    assert not rep.met
    assert rep.tail > rep.target
    ratios = np.array(rep.octave_masses[1:]) / np.array(rep.octave_masses[:-1])
    np.testing.assert_allclose(ratios[-4:], 0.5, atol=0.05)


def _extrapolated_tail(filt, j):
    """Reference tail beyond ``2^j pi``: octave masses of ``|s^|^2/pi`` out
    to ``2^12 pi`` (order-12 panels about ``pi/2`` wide), the rest
    extrapolated from the last two octaves as a geometric series."""
    masses = []
    for i in range(j, 12):
        lo, hi = (2.0 ** i) * np.pi, (2.0 ** (i + 1)) * np.pi
        x, w = panel_nodes(np.linspace(lo, hi, max(8, 2 ** (i + 1)) + 1), 12)
        masses.append(float(np.dot(w, np.abs(s_hat(filt, x)) ** 2 / np.pi)))
    r = masses[-1] / masses[-2]
    return sum(masses) + masses[-1] * r / (1.0 - r)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_cutoff_tail_matches_octave_extrapolation(p):
    # the tail 1 - (inside mass) of the orthonormality identity agrees with
    # summing the octaves beyond the cutoff
    filt = make_daubechies_filter(p)
    rep = momentum_cutoff(filt)
    j = round(math.log2(rep.cutoff / np.pi))
    assert rep.tail == pytest.approx(_extrapolated_tail(filt, j), rel=0.01)
    assert len(rep.octave_masses) == 9
    # scaled taps break sum_n |s^(k + 2 pi n)|^2 = 1, so no tail is claimed
    rep = momentum_cutoff(Filter(name="scaled", order=p, taps=filt.taps * 1.01))
    assert rep.met is False and rep.tail == math.inf
    assert rep.cutoff == (2.0 ** 9) * math.pi


def test_cutoff_cache_bounded_and_shared(d8):
    # equal filters share one bounded cache entry
    assert momentum_cutoff.cache_info().maxsize is not None
    assert momentum_cutoff(make_daubechies_filter(4)) is momentum_cutoff(d8)


# ---------------------------------------------------------------------------
# scaling-limit states


def test_limit_density_is_half(d8):
    # (1/2pi) Int |s^|^2 = 1 (orthonormal translates), so the limit
    # occupation of delta_0 is exactly 1/2 up to the domain tail.
    val = limit_two_point(d8, DELTA0, DELTA0, "a_adag")
    assert val.real == pytest.approx(0.5, abs=1e-6)
    assert abs(val.imag) < 1e-12


def test_limit_pairing_antisymmetry(d8):
    cc = limit_two_point(d8, DELTA0, DELTA1, "adag_adag")
    cc_swap = limit_two_point(d8, DELTA1, DELTA0, "adag_adag")
    assert complex(cc) == pytest.approx(complex(-cc_swap), abs=1e-10)


def test_massive_reduces_to_critical(d8):
    lim = limit_two_point(d8, DELTA0, DELTA1, "a_adag")
    massless = massive_thermal_two_point(d8, DELTA0, DELTA1, "a_adag",
                                         mu0=0.0, beta0=math.inf)
    assert complex(massless) == pytest.approx(complex(lim), abs=1e-12)


def _chiral_two_point(filt, v1, v2, s1, s2):
    """``<psi_s1(v1) psi_s2(v2)>`` of the chiral fields ``psi_s(xi) =
    e^{i s pi/4} a(xi) + e^{-i s pi/4} a*(conj xi)`` in the critical limit,
    expanded into its four scalar two-point functions."""
    q = np.pi / 4.0
    return (np.exp(1j * (s1 + s2) * q) * limit_two_point(filt, v1, v2, "a_a")
            + np.exp(1j * (s1 - s2) * q) * limit_two_point(filt, v1, v2.conj(), "a_adag")
            + np.exp(1j * (s2 - s1) * q) * limit_two_point(filt, v1.conj(), v2, "adag_a")
            + np.exp(-1j * (s1 + s2) * q)
            * limit_two_point(filt, v1.conj(), v2.conj(), "adag_adag"))


def test_majorana_mixed_chirality_vanishes(d8):
    # the cross terms of opposite chiralities cancel against the
    # orthonormality of the scaling-function translates
    v = SiteVector.delta(2)
    for s1, s2 in ((1, -1), (-1, 1)):
        assert abs(_chiral_two_point(d8, DELTA0, v, s1, s2)) < 1e-8


# ---------------------------------------------------------------------------
# convergence along the flow


def test_critical_flow_converges(d4):
    c = Couplings.critical()
    lim = limit_two_point(d4, DELTA0, DELTA0, "a_adag")
    errs = [abs(renormalized_two_point(c, d4, m, DELTA0, DELTA0, "a_adag") - lim)
            for m in (4, 6, 8)]
    assert errs[0] > errs[1] > errs[2]
    # halving per step: log2 ratio near -1 per unit m (m spans 4 units)
    slope = math.log2(errs[2] / errs[0]) / 4.0
    assert slope == pytest.approx(-1.0, abs=0.3)


def test_one_depth_check(d4):
    c = Couplings.critical()
    for m in (-1, 2.5, math.nan):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            QuasiFreeState.renormalized(c, d4, m)


# ---------------------------------------------------------------------------
# classification and calibration


def test_classification_labels():
    assert classify_flow(Couplings(1.0, 0.5)).label == "disorder"
    assert classify_flow(Couplings(0.5, 1.0)).label == "order"
    assert classify_flow(Couplings(1.0, 1.0)).label == "critical"


def test_classification_distance_decreases():
    for coup in (Couplings(1.0, 0.5), Couplings(0.5, 1.0)):
        rep = classify_flow(coup)
        d = [rep.distances[m] for m in sorted(rep.distances)]
        assert d[0] > d[1] > d[2]
        assert d[-1] < 1e-4


def test_classification_as_dict():
    rep = classify_flow(Couplings(1.0, 0.5))
    d = rep.as_dict()
    assert d["label"] == "disorder"
    assert set(d["distances"]) == {"4", "8", "12"}


def test_fixed_point_kernels_shape():
    for kern in (DISORDER_KERNEL, ORDER_KERNEL):
        np.testing.assert_allclose(kern, np.conj(kern.T), atol=0)
        lam = np.linalg.eigvalsh(kern)
        np.testing.assert_allclose(sorted(lam), [0.0, 2.0], atol=1e-15)
    with pytest.raises(ValueError):
        DISORDER_KERNEL[0, 0] = 5.0


def test_calibrated_couplings():
    c = calibrated_couplings(1.0, mu0=1.0, beta0=2.0, m=3)
    assert c.t3 == pytest.approx(1.0 - 1.0 / 8.0)
    assert c.beta == pytest.approx(16.0)
    c_inf = calibrated_couplings(1.0, mu0=0.5, beta0=math.inf, m=2)
    assert math.isinf(c_inf.beta)
    with pytest.raises(ValueError):
        calibrated_couplings(1.0, mu0=4.0, beta0=1.0, m=1)


def test_calibrated_flow_approaches_massive_limit(d4):
    mu0, beta0 = 1.0, 2.0
    target = massive_thermal_two_point(d4, DELTA0, DELTA0, "a_adag",
                                       mu0=mu0, beta0=beta0)
    errs = []
    for m in (4, 6):
        c = calibrated_couplings(1.0, mu0, beta0, m)
        val = renormalized_two_point(c, d4, m, DELTA0, DELTA0, "a_adag")
        errs.append(abs(val - target))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-2
