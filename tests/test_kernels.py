"""Covariance kernels: closed form vs spectral route, limits, removable points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm

from isingrg.kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
    gibbs_covariance,
    one_particle_h,
    propagator,
    z_theta,
)

THETA_GRID = np.linspace(-math.pi, math.pi, 65)


# ---------------------------------------------------------------------------
# site vectors and the doubled space


def test_site_vector_hat_delta():
    v = SiteVector.delta(3)
    th = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(v.hat(th), np.exp(-1j * th * 3), atol=1e-15)


def test_site_vector_combine_and_norm():
    v = SiteVector((1.0, 2.0), start=0)
    w = SiteVector((1.0j,), start=1)
    c = SiteVector.combine(v, w, cv=2.0, cw=1.0)
    assert c.start == 0
    assert c.values == (2.0 + 0j, 4.0 + 1.0j)
    assert c.norm_sq() == pytest.approx(4.0 + 17.0)


def test_site_vector_validation():
    with pytest.raises(ValueError):
        SiteVector(())


def test_self_dual_weight_shapes():
    v = SelfDualVector.position_sum(0)
    k = np.linspace(-1, 1, 7)
    assert v.weight(k).shape == (7, 2)
    w = v.weight_conj_reflected(k)
    np.testing.assert_allclose(w, np.conj(v.weight(-k)), atol=0)


def test_annihilator_creator_split():
    xi = SiteVector((1.0, -2.0j), start=-1)
    ann = SelfDualVector.from_annihilator(xi)
    cre = SelfDualVector.from_creator(xi)
    th = np.array([0.7])
    # xi = (xi/2 - i(i xi/2)) recovers the annihilator slot, etc.
    np.testing.assert_allclose(
        ann.xi.hat(th) - 1j * ann.eta.hat(th), xi.hat(th), atol=1e-15)
    np.testing.assert_allclose(
        cre.xi.hat(th) + 1j * cre.eta.hat(th), xi.hat(th), atol=1e-15)


# ---------------------------------------------------------------------------
# couplings


def test_couplings_validation():
    with pytest.raises(ValueError):
        Couplings(0.0, 1.0)
    with pytest.raises(ValueError):
        Couplings(1.0, -0.1)
    with pytest.raises(ValueError):
        Couplings(1.0, 1.0, beta=0.0)
    # a non-finite coupling names no chain: its symbol would carry inf/nan
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t1 must be"):
            Couplings(bad, 1.0)
        with pytest.raises(ValueError, match="t3 must be"):
            Couplings(1.0, bad)
    assert Couplings(1.0, 1.0, beta=math.inf).beta == math.inf


def test_flow_parameter_signs():
    assert Couplings(1.0, 0.5).flow_parameter > 0
    assert Couplings(0.5, 1.0).flow_parameter < 0
    assert Couplings.critical(2.0).flow_parameter == 0.0


def test_energy_symbol():
    c = Couplings(1.0, 0.5)
    z = z_theta(c, np.array([0.0, math.pi]))
    assert complex(z[0]) == pytest.approx(0.5)
    assert complex(z[1]) == pytest.approx(1.5)


def test_one_particle_h_spectrum():
    c = Couplings(1.3, 0.6, beta=2.0)
    h = one_particle_h(c, THETA_GRID)
    lam = np.linalg.eigvalsh(h)
    absz = np.abs(z_theta(c, THETA_GRID))
    np.testing.assert_allclose(lam[:, 0], -2 * absz, atol=1e-12)
    np.testing.assert_allclose(lam[:, 1], 2 * absz, atol=1e-12)


# ---------------------------------------------------------------------------
# lattice covariance: closed form vs independent spectral route


@pytest.mark.parametrize("coup", [
    Couplings(1.0, 1.0),
    Couplings(1.0, 0.5, beta=2.0),
    Couplings(0.7, 1.3, beta=0.3),
    Couplings(2.0, 2.0, beta=5.0),
])
def test_covariance_dual_route(coup):
    # oracle: gibbs_covariance, the spectral Gibbs covariance of one_particle_h
    closed = covariance_lattice(coup, THETA_GRID)
    spectral = gibbs_covariance(coup, THETA_GRID)
    np.testing.assert_allclose(closed, spectral, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(t1=st.floats(0.1, 3.0), t3=st.floats(0.0, 3.0),
       beta=st.floats(0.05, 20.0), theta=st.floats(-math.pi, math.pi))
def test_covariance_dual_route_property(t1, t3, beta, theta):
    coup = Couplings(t1, t3, beta)
    closed = covariance_lattice(coup, theta)
    spectral = gibbs_covariance(coup, theta)
    np.testing.assert_allclose(closed, spectral, rtol=0, atol=1e-11)


def test_covariance_hermitian_and_spectrum():
    coup = Couplings(1.0, 0.8, beta=1.5)
    c = covariance_lattice(coup, THETA_GRID)
    np.testing.assert_allclose(c, np.conj(np.swapaxes(c, -1, -2)), atol=0)
    lam = np.linalg.eigvalsh(c)
    assert lam.min() > -1e-12
    assert lam.max() < 2 + 1e-12
    t = np.tanh(coup.beta * np.abs(z_theta(coup, THETA_GRID)))
    np.testing.assert_allclose(np.sort(lam, axis=-1),
                               np.stack([1 - t, 1 + t], axis=-1), atol=1e-12)


def test_covariance_trace_is_two():
    c = covariance_lattice(Couplings(1.0, 1.0, beta=0.7), THETA_GRID)
    np.testing.assert_allclose(np.trace(c, axis1=-2, axis2=-1), 2.0, atol=0)


def test_removable_point_at_critical_zero():
    # At t1 = t3, z(0) = 0: the ground-state covariance must be exactly the
    # identity there (tanh(inf*0) treated as 0).
    c = covariance_lattice(Couplings.critical(), 0.0)
    np.testing.assert_allclose(c, np.eye(2), atol=0)
    g = gibbs_covariance(Couplings.critical(), 0.0)
    np.testing.assert_allclose(g, np.eye(2), atol=1e-15)


# ---------------------------------------------------------------------------
# scaling-limit kernels


def test_critical_limit_values():
    k = np.array([-2.0, 0.0, 3.0])
    c = covariance_critical_limit(k)
    np.testing.assert_allclose(c[0], [[1, 1], [1, 1]], atol=0)
    np.testing.assert_allclose(c[1], np.eye(2), atol=0)
    np.testing.assert_allclose(c[2], [[1, -1], [-1, 1]], atol=0)
    lam = np.linalg.eigvalsh(c)
    assert lam.min() > -1e-15
    assert lam.max() < 2 + 1e-15


def test_lattice_scales_to_critical_limit():
    # 2^m-fold zoom of the critical lattice kernel approaches the limit
    # kernel pointwise in k != 0.
    k = np.array([-3.0, -0.5, 0.5, 3.0])
    lim = covariance_critical_limit(k)
    coup = Couplings.critical()
    errs = [np.abs(covariance_lattice(coup, (2.0 ** -m) * k) - lim).max()
            for m in (4, 8, 12)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_massive_thermal_reduces_to_critical():
    k = np.array([-2.0, -0.3, 0.4, 1.7])
    massless = covariance_massive_thermal(k, mu0=0.0, beta0=math.inf)
    np.testing.assert_allclose(massless, covariance_critical_limit(k), atol=1e-15)


def test_massive_thermal_gap_suppression():
    # Large mass pushes the kernel toward the disorder form [[1, i], [-i, 1]];
    # the leading deviation is the direction tilt k/mu0.
    k = np.array([0.3])
    c = covariance_massive_thermal(k, mu0=1000.0, beta0=math.inf)
    np.testing.assert_allclose(c[0], [[1, 1j], [-1j, 1]], atol=5e-4)


def test_massive_thermal_rejects_nonphysical_parameters():
    # beta0 <= 0 or t <= 0 would flip the off-diagonal sign and a non-finite
    # mass would zero it; every caller shares this one check
    k = np.array([-1.0, 0.5])
    for mu0, beta0, t in ((1.0, -1.0, 1.0), (1.0, 0.0, 1.0),
                          (1.0, math.nan, 1.0), (1.0, 2.0, 0.0),
                          (1.0, 2.0, -1.0), (1.0, 2.0, math.inf),
                          (0.0, math.inf, math.inf), (math.nan, 2.0, 1.0),
                          (math.inf, 2.0, 1.0)):
        with pytest.raises(ValueError):
            covariance_massive_thermal(k, mu0, beta0, t)
    assert np.isfinite(covariance_massive_thermal(k, -0.5, math.inf)).all()


def test_massive_thermal_hermitian_spectrum():
    k = np.linspace(-5, 5, 41)
    c = covariance_massive_thermal(k, mu0=1.3, beta0=0.7, t=1.2)
    np.testing.assert_allclose(c, np.conj(np.swapaxes(c, -1, -2)), atol=0)
    lam = np.linalg.eigvalsh(c)
    assert lam.min() > -1e-14
    assert lam.max() < 2 + 1e-14


# ---------------------------------------------------------------------------
# closed forms of the energy symbol z against matrix functions of h(z)


def _h(z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = -2j * np.conj(z)
    out[..., 1, 0] = 2j * z
    return out


def test_propagator_matches_matrix_exponential():
    k = np.linspace(-4.0, 4.0, 17)
    symbols = [z_theta(Couplings(1.3, 0.6), THETA_GRID),
               z_theta(Couplings.critical(0.8), THETA_GRID),
               -1j * 1.7 * k,  # the critical scaling-limit symbol -i t k
               np.array([0.0, 1e-13, 1e-13j, -1e-13 + 1e-13j])]
    for z in symbols:
        for tau in (0.0, 0.37, -1.5, 4.0):
            closed = propagator(z, tau)
            oracle = np.array([expm(1j * tau * h) for h in _h(z)])
            np.testing.assert_allclose(closed, oracle, rtol=0, atol=1e-13)


def _fermi_covariance(z, beta):
    """``2*(exp(beta*h(z)) + 1)^(-1)`` eigenvalue by eigenvalue."""
    lam, vec = np.linalg.eigh(_h(z))
    if math.isinf(beta):
        w = np.where(lam < 0, 2.0, np.where(lam > 0, 0.0, 1.0))
    else:
        w = 2.0 / (np.exp(beta * lam) + 1.0)
    return np.einsum("...ij,...j,...kj->...ik", vec, w, np.conj(vec))


@pytest.mark.parametrize("mu0", [0.0, 0.7, -0.4])
@pytest.mark.parametrize("beta0", [0.3, 2.0, math.inf])
@pytest.mark.parametrize("t", [0.5, 1.0, 1.7])
def test_massive_thermal_matches_spectral_fermi_route(mu0, beta0, t):
    k = np.linspace(-6.0, 6.0, 41)
    closed = covariance_massive_thermal(k, mu0, beta0, t)
    spectral = _fermi_covariance(t * (mu0 - 1j * k), beta0)
    np.testing.assert_allclose(closed, spectral, rtol=0, atol=1e-12)
