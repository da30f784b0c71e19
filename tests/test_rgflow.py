"""Renormalization flow: closed-form anchors, limits,
classification, and calibrated massive/thermal convergence."""

import math
from functools import partial

import numpy as np
import pytest

from isingrg.correlators import self_dual_two_point
from isingrg.kernels import Couplings, SelfDualVector, SiteVector
from isingrg.rgflow import (
    DISORDER_KERNEL,
    ORDER_KERNEL,
    QuasiFreeState,
    calibrated_couplings,
    classify_flow,
    lattice_two_point,
    limit_two_point,
    majorana_two_point,
    majorana_two_point_integral,
    massive_thermal_two_point,
    momentum_cutoff,
    renormalization_isometry_defect,
    renormalized_two_point,
)
from isingrg.wavelet import make_daubechies_filter

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


def test_car_norm_identity(d8):
    # <a(v) a*(v)> + <a*(v) a(v)> = ||v||^2 for every state along the flow.
    c = Couplings(1.0, 0.7, beta=2.0)
    for m in (0, 3):
        s = (renormalized_two_point(c, d8, m, DELTA0, DELTA0, "a_adag")
             + renormalized_two_point(c, d8, m, DELTA0, DELTA0, "adag_a"))
        assert complex(s) == pytest.approx(1.0, abs=1e-9)


def test_lattice_equals_depth_zero(d4):
    c = Couplings(1.0, 0.4, beta=1.1)
    for kind in ("a_adag", "adag_adag", "adag_a"):
        bare = lattice_two_point(c, DELTA0, DELTA1, kind)
        via_flow = renormalized_two_point(c, d4, 0, DELTA0, DELTA1, kind)
        assert complex(bare) == pytest.approx(complex(via_flow), abs=1e-12)


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
    # flow-workload-like vectors inside sites [-2, 2] against the direct
    # quadrature of the doubled-space pairing, a(v) = Psi(from_annihilator(v))
    # and a*(v) = Psi(from_creator(conj v))
    rng = np.random.default_rng(11)
    v1 = SiteVector(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)), -2)
    v2 = SiteVector(tuple(rng.normal(size=3) + 1j * rng.normal(size=3)), -1)
    c = Couplings(1.0, 0.8, beta=3.0)
    cases = [(QuasiFreeState.lattice(c), partial(lattice_two_point, c))]
    cases += [(QuasiFreeState.renormalized(c, d4, m),
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


def test_majorana_mixed_chirality_vanishes(d8):
    v = SiteVector.delta(2)
    assert majorana_two_point(d8, DELTA0, v, (1, -1)) == 0.0 + 0.0j
    assert majorana_two_point(d8, DELTA0, v, (-1, 1)) == 0.0 + 0.0j
    # The integral route reproduces the cancellation numerically.
    val = majorana_two_point_integral(d8, DELTA0, v, (1, -1))
    assert abs(val) < 1e-8


def test_majorana_same_chirality_routes_agree(d8):
    short = majorana_two_point(d8, DELTA0, DELTA1, (1, 1))
    full = majorana_two_point_integral(d8, DELTA0, DELTA1, (1, 1))
    assert complex(short) == pytest.approx(complex(full), abs=0.0)
    with pytest.raises(ValueError):
        majorana_two_point(d8, DELTA0, DELTA1, (1, 2))


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


def test_isometry_defect_small(d8):
    for m in (2, 5):
        assert renormalization_isometry_defect(d8, DELTA0, m) < 1e-6


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
