"""Wavelet renormalization-group flow of quasi-free lattice states.

One coarse-graining step maps the fermion lattice algebra into itself along
the low-pass branch of a wavelet filter bank; ``m`` iterated steps pull the
Gibbs two-point functions back through the cascade.  In momentum form the
renormalized pair functions are

    <a(xi) a*(eta)>_m  = (1/2pi) Int_{|k|<2^m pi} d_ann(2^-m k) W_m(k)
                          conj(xi^(k)) eta^(k) dk,
    <a*(xi) a*(eta)>_m = (1/2pi) Int  d_cre(2^-m k) W_m(k) xi^(-k) eta^(k) dk,

with the cascade weight ``W_m(k) = prod_{n=1..m} |m0(2^-n k)|^2`` and the
pair densities of :mod:`isingrg.kernels`.  As ``m`` grows, ``W_m`` converges
to ``|s^(k)|^2`` and the densities to their scaling-limit values, giving the
critical and massive/thermal limit states; the error decays like ``2^-m``.

Coupling trajectories are classified by ``1 - t3/t1``: positive flows to the
disorder fixed point, negative to the order fixed point, zero is critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ._quadrature import integrate, octave_nodes
from .kernels import (
    Couplings,
    SiteVector,
    annihilation_pair_density,
    covariance_critical_limit,
    covariance_lattice,
    creation_pair_density,
    massive_pair_densities,
)
from .wavelet import Filter, cascade_product, s_hat

__all__ = [
    "DISORDER_KERNEL",
    "ORDER_KERNEL",
    "TailReport",
    "FlowClassification",
    "momentum_cutoff",
    "renormalized_two_point",
    "lattice_two_point",
    "limit_two_point",
    "massive_thermal_two_point",
    "majorana_two_point",
    "majorana_two_point_integral",
    "calibrated_couplings",
    "classify_flow",
    "renormalization_isometry_defect",
]

_KINDS = ("a_adag", "adag_adag", "a_a", "adag_a")

#: Fixed-point covariance kernels of the coupling flow (constant in momentum).
DISORDER_KERNEL = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
DISORDER_KERNEL.setflags(write=False)
ORDER_KERNEL = np.array([[1.0, -1.0j], [1.0j, 1.0]])
ORDER_KERNEL.setflags(write=False)

# Gauss-Legendre order and the innermost dyadic edge of every two-point
# integral (the panels refine toward the kink at the origin down to _FINEST)
_ORDER = 24
_FINEST = np.pi / 64.0


def _osc_width(*vectors: SiteVector) -> float:
    """Panel width keeping lattice-vector oscillation under ~1 cycle/panel."""
    extent = 1
    for v in vectors:
        extent = max(extent, int(np.max(np.abs(v.sites))))
    return float(min(np.pi, 2.0 * np.pi / (extent + 1)))


# ---------------------------------------------------------------------------
# renormalized (finite-m) two-point functions


def _pair_integral(density_ann, density_cre, weight_fn, v1: SiteVector,
                   v2: SiteVector, kind: str, kmax: float) -> complex:
    """Shared quadrature core: (1/2pi) Int density * weight * hats."""
    if kind == "a_a":
        # <a(v1) a(v2)> = conj(<a*(v2) a*(v1)>), an operator-adjoint identity
        return complex(np.conj(_pair_integral(
            density_ann, density_cre, weight_fn, v2, v1, "adag_adag", kmax)))

    def f(k):
        w = weight_fn(k)
        if kind == "a_adag":
            return density_ann(k) * w * np.conj(v1.hat(k)) * v2.hat(k)
        if kind == "adag_adag":
            return density_cre(k) * w * v1.hat(-k) * v2.hat(k)
        if kind == "adag_a":
            return (1.0 - density_ann(k)) * w * np.conj(v2.hat(k)) * v1.hat(k)
        raise ValueError(f"unknown kind {kind!r}; expected one of {_KINDS}")

    return complex(integrate(f, kmax, _FINEST, _ORDER, max_width=_osc_width(v1, v2))
                   / (2.0 * np.pi))


def renormalized_two_point(c: Couplings, filt: Filter, m: int, v1: SiteVector,
                           v2: SiteVector, kind: str = "a_adag") -> complex:
    """Two-point function of the ``m``-times renormalized Gibbs state.

    The integral runs over the momentum window ``[-2^m pi, 2^m pi]`` with
    the cascade weight ``W_m(k) = |prod_{n=1..m} m0(2^-n k)|^2``.

    Parameters
    ----------
    c : Couplings
        Lattice couplings of the initial Gibbs state.
    filt : Filter
        Orthonormal low-pass filter driving the coarse-graining step.
    m : int
        Number of renormalization steps (>= 0; ``m = 0`` is the bare state).
    v1, v2 : SiteVector
        Finitely supported test sequences.
    kind : {"a_adag", "adag_adag", "a_a", "adag_a"}
        Which ordered pair to evaluate: ``<a(v1) a*(v2)>``,
        ``<a*(v1) a*(v2)>``, ``<a(v1) a(v2)>``, or ``<a*(v1) a(v2)>``.

    Returns
    -------
    complex
    """
    if m < 0 or int(m) != m:
        raise ValueError("m must be a non-negative integer")
    scale = 2.0 ** m
    return _pair_integral(
        lambda k: annihilation_pair_density(c, k / scale),
        lambda k: creation_pair_density(c, k / scale),
        lambda k: np.abs(cascade_product(filt, k, m)) ** 2,
        v1, v2, kind, scale * np.pi)


def lattice_two_point(c: Couplings, v1: SiteVector, v2: SiteVector,
                      kind: str = "a_adag") -> complex:
    """Bare (un-renormalized) Gibbs two-point function; equals ``m = 0``."""
    return _pair_integral(
        lambda k: annihilation_pair_density(c, k),
        lambda k: creation_pair_density(c, k),
        lambda k: 1.0, v1, v2, kind, np.pi)


# ---------------------------------------------------------------------------
# momentum cutoff for scaling-limit integrals


@dataclass(frozen=True)
class TailReport:
    """Truncation domain for scaling-limit integrals.

    ``cutoff`` is the smallest dyadic multiple of ``2*pi`` whose two-sided
    spectral tail of ``|s^|^2`` falls below ``target`` — capped at ``2^9 pi``,
    in which case ``met`` is False and ``tail`` reports what was achieved.
    """

    cutoff: float
    tail: float
    target: float
    met: bool
    octave_masses: Tuple[float, ...]


@lru_cache(maxsize=64)
def momentum_cutoff(filt: Filter, target: float = 1e-10, cap_exp: int = 9,
                    horizon_exp: int = 12, order: int = 12) -> TailReport:
    """Choose the |k|-cutoff for limit-state quadrature from the |s^|^2 tail.

    Cached per filter contents (equal filters share an entry).
    """
    def density(k):
        return np.abs(s_hat(filt, k)) ** 2 / np.pi  # two-sided mass density

    masses = []
    for j in range(horizon_exp):
        x, w = octave_nodes(j, order)
        masses.append(float(np.dot(w, density(x))))
    masses = np.array(masses)

    r = masses[-1] / masses[-2] if masses[-2] > 0 else 0.0
    remainder = masses[-1] * r / (1.0 - r) if 0.0 <= r < 0.9 else math.inf

    best = None
    for j in range(1, cap_exp + 1):
        tail = float(masses[j:].sum() + remainder)
        if tail <= target:
            best = ((2.0 ** j) * np.pi, tail, True)
            break
    if best is None:
        tail_cap = float(masses[cap_exp:].sum() + remainder)
        best = ((2.0 ** cap_exp) * np.pi, tail_cap, False)

    return TailReport(cutoff=best[0], tail=best[1], target=target,
                      met=best[2], octave_masses=tuple(masses))


# ---------------------------------------------------------------------------
# scaling-limit two-point functions


def _limit_weight(filt: Filter):
    return lambda k: np.abs(s_hat(filt, k)) ** 2


def limit_two_point(filt: Filter, v1: SiteVector, v2: SiteVector,
                    kind: str = "a_adag") -> complex:
    """Critical scaling-limit two-point function (wavelet-smeared).

    Pair densities are the ``m -> inf`` limits ``d_ann = 1/2`` and
    ``d_cre = -(i/2) sign(k)``, weighted by ``|s^(k)|^2`` over the window
    ``|k| <= momentum_cutoff(filt).cutoff``.
    """
    return _pair_integral(
        lambda k: np.full(np.shape(k), 0.5),
        lambda k: -0.5j * np.sign(k),
        _limit_weight(filt), v1, v2, kind, momentum_cutoff(filt).cutoff)


def massive_thermal_two_point(filt: Filter, v1: SiteVector, v2: SiteVector,
                              kind: str = "a_adag", *, mu0: float,
                              beta0: float, t: float = 1.0) -> complex:
    """Massive/thermal scaling-limit two-point function (wavelet-smeared),
    over the same window as :func:`limit_two_point`."""
    return _pair_integral(
        lambda k: massive_pair_densities(k, mu0, beta0, t)[0],
        lambda k: massive_pair_densities(k, mu0, beta0, t)[1],
        _limit_weight(filt), v1, v2, kind, momentum_cutoff(filt).cutoff)


def majorana_two_point_integral(filt: Filter, v1: SiteVector, v2: SiteVector,
                                chirality: Tuple[int, int] = (1, 1)) -> complex:
    """Chiral-combination two-point function by explicit four-term expansion.

    The chiral fields are ``psi_s(xi) = e^{i s pi/4} a(xi) +
    e^{-i s pi/4} a*(conj(xi))`` with ``s = +-1``.  This route always
    integrates; :func:`majorana_two_point` short-circuits the mixed case.
    """
    s1, s2 = chirality
    if s1 not in (-1, 1) or s2 not in (-1, 1):
        raise ValueError("chirality components must be +-1")
    q = np.pi / 4.0
    return complex(
        np.exp(1j * (s1 + s2) * q) * limit_two_point(filt, v1, v2, "a_a")
        + np.exp(1j * (s1 - s2) * q) * limit_two_point(filt, v1, v2.conj(), "a_adag")
        + np.exp(1j * (s2 - s1) * q) * limit_two_point(filt, v1.conj(), v2, "adag_a")
        + np.exp(-1j * (s1 + s2) * q) * limit_two_point(filt, v1.conj(), v2.conj(), "adag_adag")
    )


def majorana_two_point(filt: Filter, v1: SiteVector, v2: SiteVector,
                       chirality: Tuple[int, int] = (1, 1)) -> complex:
    """Two-point function of chiral field combinations in the critical limit.

    Mixed chirality vanishes identically (the cross terms cancel against the
    orthonormality of the scaling-function translates), so ``(+1, -1)`` and
    ``(-1, +1)`` return exactly 0; the integral route is available
    separately as :func:`majorana_two_point_integral`.
    """
    s1, s2 = chirality
    if s1 not in (-1, 1) or s2 not in (-1, 1):
        raise ValueError("chirality components must be +-1")
    if s1 != s2:
        return 0.0 + 0.0j
    return majorana_two_point_integral(filt, v1, v2, chirality)


# ---------------------------------------------------------------------------
# coupling-flow classification and calibrated massive flow


def calibrated_couplings(t: float, mu0: float, beta0: float, m: int) -> Couplings:
    """Couplings whose ``m``-step flow approaches the (mu0, beta0) limit state.

    The bond coupling is detuned by ``2^-m mu0`` and the inverse temperature
    scaled by ``2^m`` so that ``2^m z(2^-m k) -> t (mu0 - i k)`` and
    ``beta |z| -> beta0 t omega(k)``.
    """
    scale = 2.0 ** m
    if mu0 / scale >= 1.0:
        raise ValueError("mu0 / 2^m must stay below 1 (t3 >= 0)")
    beta = math.inf if math.isinf(beta0) else scale * beta0
    return Couplings(t1=t, t3=t * (1.0 - mu0 / scale), beta=beta)


@dataclass(frozen=True)
class FlowClassification:
    """Outcome of :func:`classify_flow`.

    ``label`` names the attracting fixed point; ``distances`` maps each probed
    step count to the sup (max-abs entry, |k| <= window) distance between the
    flowed covariance and the fixed-point kernel.
    """

    label: str
    distances: Dict[int, float]
    window: float

    def as_dict(self) -> dict:
        return {"label": self.label, "window": self.window,
                "distances": {str(m): d for m, d in self.distances.items()}}


def classify_flow(c: Couplings, m_values: Tuple[int, ...] = (4, 8, 12),
                  window: float = 0.125, n_grid: int = 65) -> FlowClassification:
    """Classify the coupling flow and measure convergence to its fixed point.

    The flowed covariance at step ``m`` is the Gibbs kernel evaluated at
    ``2^-m k``; it is compared on ``|k| <= window`` against the constant
    disorder/order kernel (or the critical limit kernel when ``t1 = t3``).
    """
    lam = c.flow_parameter
    k = np.linspace(-window, window, n_grid)
    if abs(lam) < 1e-14:
        label = "critical"
        target = covariance_critical_limit(k)
    elif lam > 0:
        label = "disorder"
        target = np.broadcast_to(DISORDER_KERNEL, k.shape + (2, 2))
    else:
        label = "order"
        target = np.broadcast_to(ORDER_KERNEL, k.shape + (2, 2))

    distances = {}
    for m in m_values:
        flowed = covariance_lattice(c, (2.0 ** -m) * k)
        distances[int(m)] = float(np.abs(flowed - target).max())
    return FlowClassification(label=label, distances=distances, window=window)


def renormalization_isometry_defect(filt: Filter, xi: SiteVector, m: int) -> float:
    """| ||R^m xi||^2 - ||xi||^2 | for the iterated coarse-graining isometry."""
    def f(k):
        return np.abs(cascade_product(filt, k, m)) ** 2 * np.abs(xi.hat(k)) ** 2

    val = integrate(f, (2.0 ** m) * np.pi, _FINEST, _ORDER,
                    max_width=_osc_width(xi)) / (2.0 * np.pi)
    return abs(float(val) - xi.norm_sq())

