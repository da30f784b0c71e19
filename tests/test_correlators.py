"""Spin-spin correlators: Pfaffian machinery, Toeplitz route, closed-form
anchors for the critical chain, and scaling-limit decay structure."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from isingrg.correlators import (
    SkewMatrix,
    _pair,
    pfaffian,
    pfaffian_matchings,
    self_dual_two_point,
    self_dual_two_point_expanded,
    spin_spin_correlation,
    toeplitz_correlation,
)
from isingrg.kernels import Couplings, SelfDualVector, SiteVector
from isingrg.rgflow import (
    MAX_DEPTH,
    QuasiFreeState,
    _lag_matrix,
    _lag_octave,
    _two_point,
    renormalized_two_point,
)
from isingrg.wavelet import make_daubechies_filter


# ---------------------------------------------------------------------------
# shared states (lag-table octaves are cached by state value)


@pytest.fixture(scope="module")
def lattice_state():
    return QuasiFreeState.lattice(Couplings.critical())


@pytest.fixture(scope="module")
def limit_state(d8):
    return QuasiFreeState.critical_limit(d8)


@pytest.fixture(scope="module")
def limit_decay(limit_state):
    """|sigma-sigma(d)| of the smeared critical limit for d = 1..12."""
    return {d: abs(complex(toeplitz_correlation(limit_state, d)))
            for d in range(1, 13)}


# ---------------------------------------------------------------------------
# Pfaffian


def _random_skew(rng, n):
    r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return r - r.T


def test_pfaffian_matches_matching_recursion():
    # oracle: pfaffian_matchings, the exponential perfect-matching recursion
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5)) * 2  # 2, 4, 6, 8
        a = _random_skew(rng, n)
        fast = pfaffian(a)
        ref = pfaffian_matchings(a)
        assert abs(fast - ref) <= 1e-10 * max(1.0, abs(ref))
        assert fast ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_pfaffian_small_closed_forms():
    rng = np.random.default_rng(3)
    a = _random_skew(rng, 2)
    assert pfaffian(a) == pytest.approx(a[0, 1], rel=1e-14)
    b = _random_skew(rng, 4)
    closed = b[0, 1] * b[2, 3] - b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2]
    assert pfaffian(b) == pytest.approx(closed, rel=1e-12)
    assert pfaffian_matchings(b) == pytest.approx(closed, rel=1e-12)
    assert pfaffian(np.zeros((0, 0))) == 1
    assert pfaffian(_random_skew(rng, 5)) == 0
    assert pfaffian_matchings(_random_skew(rng, 3)) == 0


def test_pfaffian_rank_deficient_is_zero():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1], a[1, 0] = 1.0, -1.0
    assert pfaffian(a) == 0
    assert pfaffian_matchings(a) == 0


def test_pfaffian_validation():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pfaffian_matchings(np.zeros((14, 14)))


def test_skew_matrix_validation():
    ok = SkewMatrix(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    assert ok.dim == 2
    with pytest.raises(ValueError):
        SkewMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        SkewMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):  # nonzero diagonal is not antisymmetric
        SkewMatrix(np.diag([1.0, 1.0]))


# ---------------------------------------------------------------------------
# state handles


def test_state_validation(d4, d8):
    with pytest.raises(ValueError, match="unknown state kind"):
        QuasiFreeState(kind="bogus")
    with pytest.raises(ValueError, match="renormalized state needs couplings"):
        QuasiFreeState(kind="renormalized")
    with pytest.raises(ValueError, match="massive_thermal state needs a filter"):
        QuasiFreeState(kind="massive_thermal")
    with pytest.raises(ValueError, match="at m > 0 needs a filter"):
        QuasiFreeState(kind="renormalized", couplings=Couplings.critical(), m=2)
    st = QuasiFreeState.massive_thermal(d8, 0.5, 2.0, t=0.7)
    assert (st.kind, st.mu0, st.beta0, st.t) == ("massive_thermal", 0.5, 2.0, 0.7)
    # an inverted population (beta0 < 0), beta0 = 0 or a non-positive or
    # non-finite velocity t is not a state
    for beta0, t in ((-2.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (2.0, 0.0),
                     (2.0, -1.0), (2.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="must be positive"):
            QuasiFreeState.massive_thermal(d8, 1.0, beta0, t)
    assert QuasiFreeState.massive_thermal(d8, 1.0, math.inf).beta0 == math.inf
    # a field the kind never reads is refused, not silently kept apart from
    # the canonical state
    c = Couplings(1.0, 0.8)
    for field, kw in (("m", dict(kind="massive_thermal", filt=d4, m=3)),
                      ("couplings", dict(kind="massive_thermal", filt=d4, couplings=c)),
                      ("mu0", dict(kind="renormalized", couplings=c, mu0=1.0)),
                      ("beta0", dict(kind="renormalized", couplings=c, beta0=2.0)),
                      ("t", dict(kind="renormalized", couplings=c, filt=d8, m=2, t=0.5))):
        with pytest.raises(ValueError, match=f"does not read {field};"):
            QuasiFreeState(**kw)


def test_equal_states_share_one_normal_form(lattice_state, limit_state, d4, d8):
    # the lattice state is the depth-0 renormalized state (W_0 = 1 reads no
    # filter) and the critical limit is the mu0 = 0, beta0 = inf
    # massive/thermal state (the kernel there reads no velocity t), so each
    # pair is one state and one set of lag-table entries
    pairs = [(limit_state, QuasiFreeState.massive_thermal(d8, 0.0, math.inf, t=2.0)),
             (lattice_state, QuasiFreeState.renormalized(Couplings.critical(), d4, 0))]
    for first, second in pairs:
        assert first == second and hash(first) == hash(second)
        _lag_matrix(first, 3)
        misses = _lag_octave.cache_info().misses
        _lag_matrix(second, 3)
        assert _lag_octave.cache_info().misses == misses


@pytest.mark.parametrize("separation", [2.7, True, 0, -10 ** 400, math.nan, math.inf])
def test_separation_checked_not_truncated(lattice_state, separation):
    with pytest.raises(ValueError, match="separation must be a positive integer"):
        toeplitz_correlation(lattice_state, separation)


@pytest.mark.parametrize("sites", [(0, 2.5), (True, 3), (0, math.nan)])
def test_sites_checked_not_truncated(lattice_state, sites):
    with pytest.raises(ValueError, match="sites must be integers"):
        spin_spin_correlation(lattice_state, sites)


def test_integral_floats_name_their_integer(lattice_state):
    assert toeplitz_correlation(lattice_state, 2.0) == toeplitz_correlation(lattice_state, 2)
    assert (spin_spin_correlation(lattice_state, (0.0, 3.0))
            == spin_spin_correlation(lattice_state, (0, 3)))


def test_massive_state_needs_finite_mass(d8):
    for mu0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mu0"):
            QuasiFreeState.massive_thermal(d8, mu0, 2.0)


def test_renormalized_depth_validation(d4):
    # a depth that is not a non-negative integer is rejected, not truncated
    c = Couplings.critical()
    for m in (-1, 2.7):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            QuasiFreeState.renormalized(c, d4, m)
    assert QuasiFreeState.renormalized(c, d4, 2.0).m == 2
    # the lag table samples about 2^m panels, so the depth is capped
    assert MAX_DEPTH == 16
    assert QuasiFreeState.renormalized(c, d4, 16).m == 16
    with pytest.raises(ValueError, match="m must be at most 16"):
        QuasiFreeState.renormalized(c, d4, 17)


def test_dual_route_pairings_agree(lattice_state, limit_state, d4, d8):
    # covariance-kernel quadrature vs the oracle self_dual_two_point_expanded,
    # the four-term expansion into scalar two-point functions
    pairs = [(SelfDualVector.position_diff(1), SelfDualVector.position_sum(0)),
             (SelfDualVector.position_diff(0), SelfDualVector.position_diff(2))]
    states = [lattice_state,
              QuasiFreeState.renormalized(Couplings.critical(), d4, 2),
              limit_state,
              QuasiFreeState.massive_thermal(d8, 0.5, 2.0)]
    for st in states:
        for v1, v2 in pairs:
            a = self_dual_two_point(st, v1, v2)
            b = self_dual_two_point_expanded(st, v1, v2)
            assert abs(a - b) < 1e-12


def test_pair_cache_reused(d8):
    st = QuasiFreeState.critical_limit(d8)
    _lag_octave.cache_clear()
    toeplitz_correlation(st, 2)
    misses = _lag_octave.cache_info().misses
    assert misses > 0
    toeplitz_correlation(st, 2)
    assert _lag_octave.cache_info().misses == misses  # warm: no new samples
    spin_spin_correlation(st, [0, 2])  # a Pfaffian over lags already tabled
    assert _lag_octave.cache_info().misses == misses


def test_equal_states_share_lag_cache(d4):
    # the cache is bounded and keyed by state value: a fresh equal state,
    # or the four kinds of one flow step, sample nothing new
    assert _lag_octave.cache_info().maxsize is not None
    toeplitz_correlation(QuasiFreeState.renormalized(Couplings(1.0, 0.8, 3.0),
                                                     d4, 2), 3)
    misses = _lag_octave.cache_info().misses
    fresh = QuasiFreeState.renormalized(Couplings(1.0, 0.8, 3.0),
                                        make_daubechies_filter(2), 2)
    toeplitz_correlation(fresh, 3)
    for kind in ("a_adag", "adag_adag", "a_a", "adag_a"):
        renormalized_two_point(Couplings(1.0, 0.8, 3.0), d4, 2,
                               SiteVector.delta(0), SiteVector.delta(1), kind)
    assert _lag_octave.cache_info().misses == misses


def _cold_peak(state, separation):
    """Traced peak bytes of a cold Toeplitz correlation."""
    _lag_octave.cache_clear()
    tracemalloc.start()
    try:
        toeplitz_correlation(state, separation)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_lag_sample_memory_bounded(d4):
    # a cold depth-12 table is T^12 of the lattice lags |n| <= 2^12 (2 + 3),
    # streamed block by block into the first step: no array spans the
    # depth-0 reach
    st = QuasiFreeState.renormalized(Couplings.critical(), d4, 12)
    assert _cold_peak(st, 2) < 16e6


def test_cold_lag_table_memory_at_max_depth(d8):
    # at MAX_DEPTH the first T step's output holds about 2^16 (|s| + 7)
    # entries; the lattice lags feeding it are streamed in blocks
    st = QuasiFreeState.renormalized(Couplings.critical(), d8, MAX_DEPTH)
    assert _cold_peak(st, 2) <= 32e6
    assert _cold_peak(st, 16) <= 64e6


# string factor by lag-table slot: 0 is a + a*, 1 is a - a*
_FACTORS = {0: SelfDualVector.position_sum, 1: SelfDualVector.position_diff}


def test_lag_table_matches_general_pairing(lattice_state, limit_state, d4, d8):
    # every string-factor pair read off the lag table equals the oracle
    # self_dual_two_point, the general doubled-space pairing of the two
    # position vectors
    pairs = [(t1, t2) for t1 in _FACTORS for t2 in _FACTORS]
    lags = range(-12, 13)
    cheap = [lattice_state,
             QuasiFreeState.lattice(Couplings(1.0, 0.7, 2.5)),
             QuasiFreeState.renormalized(Couplings.critical(), d4, 3)]
    checks = [(st, s, t1, t2) for st in cheap for s in lags for (t1, t2) in pairs]
    # each general pairing on a d8 limit state costs a fresh |s^|^2 sample,
    # so there every lag is checked once, the slot pair cycling through all four
    for st in (limit_state, QuasiFreeState.massive_thermal(d8, 0.5, 2.0)):
        checks += [(st, s, *pairs[i % 4]) for i, s in enumerate(lags)]
    for st, s, t1, t2 in checks:
        table = _pair(st, s, t1, 0, t2)
        general = self_dual_two_point(st, _FACTORS[t1](s), _FACTORS[t2](0))
        assert abs(table - general) <= 1e-14, (st.kind, s, t1, t2)


def test_lag_table_independent_of_request_order(d4, d8):
    # the quadrature of a limit state, the FFT lattice lags of a thermal
    # renormalized state (its size set by the decay rate alone) and a 1e-16
    # tail of ~3.7e4 lattice lags near criticality
    for st in (QuasiFreeState.critical_limit(d8),
               QuasiFreeState.renormalized(Couplings(1.0, 0.7, 0.6), d4, 5),
               QuasiFreeState.renormalized(Couplings(1.0, 1.0 - 1e-3), d8, 3)):
        _lag_octave.cache_clear()
        cold = toeplitz_correlation(st, 3)
        _lag_octave.cache_clear()
        toeplitz_correlation(st, 12)
        assert toeplitz_correlation(st, 3) == cold, st


# ---------------------------------------------------------------------------
# critical-chain closed forms


def _c3(state, s):
    """Mixed-pair symbol ``C3(s) = <(a_0 - a*_0)(a_{-s} + a*_{-s})>``."""
    return _pair(state, 0, 1, -s, 0)


def test_lattice_symbol_closed_form(lattice_state):
    # mixed-pair symbol of the critical chain: C3(s) = -2 / (pi (2 s + 1))
    for s in range(-4, 3):
        assert _c3(lattice_state, s) == pytest.approx(-2.0 / (math.pi * (2 * s + 1)),
                                                      abs=1e-12)
    assert _c3(lattice_state, 1) != pytest.approx(_c3(lattice_state, -1), abs=1e-3)


def test_toeplitz_matrix_layout(lattice_state):
    # entry (r, c) is C3(c - r - 1): slot (1, 0) of the lag table at lag
    # c - r - 1, times the phase -i of a - a*
    for d in (1, 2, 3, 7, 12):
        mat = np.array([[-1j * complex(_lag_matrix(lattice_state, c - r - 1)[1, 0])
                         for c in range(d)] for r in range(d)])
        assert toeplitz_correlation(lattice_state, d) == complex(np.linalg.det(mat))


def test_string_cap_checked_before_any_table(lattice_state, monkeypatch):
    # both routes reject a string past the cap without reading a lag
    def no_table(*args):
        raise AssertionError("lag table read")

    monkeypatch.setattr("isingrg.correlators._lag_matrix", no_table)
    for call in (lambda: toeplitz_correlation(lattice_state, 65),
                 lambda: toeplitz_correlation(lattice_state, 20_000),
                 lambda: spin_spin_correlation(lattice_state, (0, 65))):
        with pytest.raises(ValueError, match="string length .* exceeds 64"):
            call()


def test_lattice_sigma_closed_forms(lattice_state):
    # <s3_0 s3_1> = 2/pi and <s3_0 s3_2> = 16 / (3 pi^2), by both routes
    assert complex(toeplitz_correlation(lattice_state, 1)) == \
        pytest.approx(2.0 / math.pi, abs=1e-12)
    assert complex(toeplitz_correlation(lattice_state, 2)) == \
        pytest.approx(16.0 / (3.0 * math.pi ** 2), abs=1e-12)
    assert complex(spin_spin_correlation(lattice_state, [0, 1])) == \
        pytest.approx(2.0 / math.pi, abs=1e-12)
    assert complex(spin_spin_correlation(lattice_state, [0, 2])) == \
        pytest.approx(16.0 / (3.0 * math.pi ** 2), abs=1e-12)


def test_lattice_correlator_product_formula(lattice_state):
    # the critical chain's <s3_0 s3_d> is the diagonal correlation of the
    # isotropic 2D Ising model at T_c (McCoy and Wu, ch. XI):
    # (2/pi)^d prod_{k=1}^{d-1} (1 - 1/(4k^2))^(k-d)
    with mp.workdps(40):
        for d in range(1, 33):
            exact = (2 / mp.pi) ** d * mp.fprod(
                (1 - mp.mpf(1) / (4 * k * k)) ** (k - d) for k in range(1, d))
            val = complex(toeplitz_correlation(lattice_state, d))
            assert abs(val - complex(exact)) <= 1e-14, d


def test_spin_product_parity_and_contraction(lattice_state):
    assert spin_spin_correlation(lattice_state, [0, 1, 5]) == 0j
    assert spin_spin_correlation(lattice_state, [4, 4]) == 1 + 0j
    a = spin_spin_correlation(lattice_state, [0, 1, 1, 3])
    b = spin_spin_correlation(lattice_state, [0, 3])
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError):
        spin_spin_correlation(lattice_state, [0, 100])


def test_four_point_factorization_limit(lattice_state):
    # widely separated pairs nearly factorize: <s s s s> ~ <s s><s s>
    four = complex(spin_spin_correlation(lattice_state, [0, 1, 20, 21]))
    two = complex(spin_spin_correlation(lattice_state, [0, 1]))
    assert four == pytest.approx(two * two, rel=2e-2)
    assert abs(four) < abs(two)


def _transverse_field(state):
    """``<s1_j> = 2 Re<a*_j a_j> - 1``, the same at every site ``j``."""
    delta = SiteVector.delta(0)
    return 2.0 * _two_point(state, delta, delta, "adag_a").real - 1.0


def test_transverse_field_expectation_values(lattice_state, limit_state, d8):
    assert _transverse_field(lattice_state) == pytest.approx(2.0 / math.pi, abs=1e-10)
    # smeared limit state has half-filled modes: expectation 0
    assert _transverse_field(limit_state) == pytest.approx(0.0, abs=1e-8)
    # deep in the disordered regime the transverse field saturates
    deep = QuasiFreeState.massive_thermal(d8, 50.0, float("inf"))
    assert _transverse_field(deep) == pytest.approx(1.0, abs=1e-2)


# ---------------------------------------------------------------------------
# scaling-limit correlators


def test_limit_nearest_neighbour_anchor(limit_decay):
    assert limit_decay[1] == pytest.approx(0.5684013490414332, abs=1e-9)


def test_pfaffian_equals_toeplitz(limit_state, lattice_state):
    for sep in (1, 2, 3, 5):
        a = complex(spin_spin_correlation(limit_state, [0, sep]))
        b = complex(toeplitz_correlation(limit_state, sep))
        assert abs(a - b) < 1e-10
    for sep in (1, 2, 3, 4):
        a = complex(spin_spin_correlation(lattice_state, [0, sep]))
        b = complex(toeplitz_correlation(lattice_state, sep))
        assert abs(a - b) < 1e-12


def test_limit_correlations_real_bounded_decreasing(limit_state, limit_decay):
    prev = 1.0
    for d in range(1, 13):
        val = complex(toeplitz_correlation(limit_state, d))
        assert abs(val.imag) < 1e-9
        assert 0.0 < val.real < 1.0
        assert val.real < prev
        prev = val.real
    assert limit_decay[12] < limit_decay[6] < limit_decay[1]


def test_limit_decay_structure(limit_decay):
    # raw log-log slope over d in [6, 12] is steepened by the exponential
    # factor the wavelet smearing introduces in the symbol
    ds = np.arange(6, 13, dtype=float)
    vals = np.array([limit_decay[int(d)] for d in ds])
    naive = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert -3.3 < naive < -2.9
    # three-parameter model |ss(d)| = c G^d d^x separates the exponential
    # factor from the power law; the power matches the chain's -1/4
    X = np.column_stack([np.ones_like(ds), ds, np.log(ds)])
    coef, *_ = np.linalg.lstsq(X, np.log(vals), rcond=None)
    G_fit, x_fit = math.exp(coef[1]), coef[2]
    assert 0.70 < G_fit < 0.74
    assert -0.30 < x_fit < -0.15


def test_lattice_control_exponent(lattice_state):
    # the bare chain has no smearing factor: direct fit recovers -1/4
    ds = np.arange(6, 13, dtype=float)
    vals = np.array([abs(complex(toeplitz_correlation(lattice_state, int(d))))
                     for d in ds])
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert slope == pytest.approx(-0.25, abs=0.05)


def test_massive_thermal_decays_faster_than_limit(limit_decay, d8):
    massive = QuasiFreeState.massive_thermal(d8, 0.5, 2.0)
    prev = 1.0
    for d in (1, 2, 3):
        vm = abs(complex(toeplitz_correlation(massive, d)))
        assert vm < limit_decay[d]
        assert vm < prev
        prev = vm
