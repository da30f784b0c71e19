"""Certified error analysis for renormalized dynamical pair correlations.

The renormalized lattice state at depth ``m`` carries a dynamics whose
smeared two-point functions approach the scaling-limit dynamics at rate
``2^{-m}``.  This module quantifies that approach three independent ways:

* closed-form suprema of the elementary comparison factors (covariance
  deviation, curvature remainder, and the two trigonometric propagator
  differences),
* a certified bound assembled from products of Sobolev-weighted norms of
  the smearing vectors, with the explicit ``2^{-m}`` prefactor,
* direct quadrature of both dynamical pairings and their absolute
  difference (the empirical error the bound must dominate).

All momentum integrals are evaluated on the fixed computational window
``|k| <= 2^9 * pi`` shared with the scaling-limit states.  On that common
window the Cauchy-Schwarz chain behind the assembled bound holds verbatim,
so ``empirical <= certified`` is an exact windowed statement checked here,
not an asymptotic claim.  Norm weights ``|s^(k)|^{2*gamma}`` with slowly
decaying filters make some windowed norms cutoff-dominated; the bound then
certifies loosely but remains a true upper bound on the window.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, Iterable, Optional, Sequence, Tuple

import numpy as np

from ._quadrature import octave_nodes, symmetric_nodes
from .kernels import (
    Couplings,
    SelfDualVector,
    covariance_critical_limit,
    covariance_lattice,
    z_theta,
)
from .wavelet import Filter, s_hat

__all__ = [
    "MOMENTUM_WINDOW",
    "InadmissibleFilterError",
    "OscillationResolutionError",
    "SupConstantsReport",
    "sup_constants",
    "covariance_deviation",
    "SobolevNorm",
    "sobolev_norm",
    "sobolev_report",
    "certified_components",
    "certified_bound",
    "dynamical_pairing",
    "empirical_error",
    "BoundReport",
    "bound_report",
    "bound_sweep",
    "write_bound_sweep_csv",
    "bracketed_factor_max",
]

#: Fixed two-sided momentum window for every integral in this module.
MOMENTUM_WINDOW = (2.0 ** 9) * math.pi

_SQRT2 = math.sqrt(2.0)
_EPS_Z = 1e-12  # |z| below this switches the propagator factor to its series


class InadmissibleFilterError(ValueError):
    """Raised when a filter's weighted spectral density does not decay.

    A Sobolev weight ``|s^(k)|^{2w}`` whose octave masses stop decreasing
    across the top of the momentum window produces a windowed norm that is
    pure cutoff artifact; such a filter cannot certify any Sobolev order.
    """


class OscillationResolutionError(RuntimeError):
    """Raised when doubling the oscillation panels moves a pairing integral."""


# ---------------------------------------------------------------------------
# stable elementary factors


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    """``x - sin(x)`` without cancellation for small ``x`` (series below 0.5)."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = (x * x2 / 6.0) * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
    return np.where(np.abs(x) < 0.5, series, x - np.sin(x))


def covariance_deviation(theta) -> np.ndarray:
    """Modulus of the covariance comparison factor, ``2|sin(theta/4)|``.

    The lattice critical covariance at angle ``theta`` differs from the
    limit covariance (at matching momentum sign) by an anti-diagonal matrix
    whose entries share this modulus, so ``||(C_lat - C_lim) v|| =
    2|sin(theta/4)| * ||v||`` exactly.
    """
    return 2.0 * np.abs(np.sin(np.asarray(theta, dtype=float) / 4.0))


def _propagator_phase_pair(k: np.ndarray, c: float):
    """Half-sum and half-gap of the lattice/limit propagator phases.

    Phases are ``A = 2c|sin(k/2)|`` (lattice, rescaled) and ``B = c|k|``
    (limit); returns ``(A+B)/2`` and ``(B-A)/2 >= 0``, the gap in a
    cancellation-free form.
    """
    ak = np.abs(np.asarray(k, dtype=float))
    half = 0.5 * ak
    gap = np.where(half < 1.0, c * _x_minus_sin(half),
                   0.5 * c * (ak - 2.0 * np.abs(np.sin(half))))
    total = 0.5 * c * (ak + 2.0 * np.abs(np.sin(half)))
    return total, gap


def _sup_callables(c: float):
    """The four comparison-factor ratios as vectorized callables of ``k != 0``."""

    def kernel_ratio(k):
        ak = np.abs(np.asarray(k, dtype=float))
        return covariance_deviation(ak) / ak

    def curvature_ratio(k):
        ak = np.abs(np.asarray(k, dtype=float))
        half_sin = np.sin(0.5 * ak)
        return 2.0 * half_sin * half_sin / (ak * ak)

    def cos_difference_ratio(k):
        ak = np.abs(np.asarray(k, dtype=float))
        total, gap = _propagator_phase_pair(ak, c)
        return 2.0 * np.abs(np.sin(total)) * np.abs(np.sin(gap)) / ak ** 4

    def sin_difference_ratio(k):
        ak = np.abs(np.asarray(k, dtype=float))
        total, gap = _propagator_phase_pair(ak, c)
        return 2.0 * np.abs(np.cos(total)) * np.abs(np.sin(gap)) / ak ** 3

    return kernel_ratio, curvature_ratio, cos_difference_ratio, sin_difference_ratio


@dataclass(frozen=True)
class SupConstantsReport:
    """Numerically maximized comparison-factor ratios and their claimed values.

    Order of the four entries: covariance-deviation ratio ``|k|^{-1}``,
    curvature ratio ``|k|^{-2}``, cosine propagator difference ``|k|^{-4}``,
    sine propagator difference ``|k|^{-3}``.

    Parameters
    ----------
    t0_times_t : float
        Product of time separation and hopping amplitude entering the
        propagator phases.
    scale_exponent : int
        Renormalization depth ``m`` entering the phase scale ``2^m``.
    values : tuple of float
        Grid-plus-refinement maxima of the four ratios.
    locations : tuple of float
        ``|k|`` arguments at which the maxima were attained.
    claimed : tuple of float
        The closed-form constants the assembled bound uses:
        ``(1/2, 1/2, 2^{2m}(8/3)(t0 t)^2, 2^m (4/3) t0 t)``.
    """

    t0_times_t: float
    scale_exponent: int
    values: Tuple[float, float, float, float]
    locations: Tuple[float, float, float, float]
    claimed: Tuple[float, float, float, float]

    def deviations(self) -> Tuple[float, float, float, float]:
        """Absolute differences between measured and claimed constants."""
        return tuple(abs(v - c) for v, c in zip(self.values, self.claimed))


def _grid_max(f: Callable, grid: np.ndarray, rounds: int = 3) -> Tuple[float, float]:
    """Maximum of ``f`` over ``grid`` with local zoom refinement."""
    vals = f(grid)
    idx = int(np.argmax(vals))
    best_k, best_v = float(grid[idx]), float(vals[idx])
    lo = float(grid[max(idx - 1, 0)])
    hi = float(grid[min(idx + 1, len(grid) - 1)])
    for _ in range(rounds):
        local = np.linspace(max(lo, 1e-8), hi, 513)
        lv = f(local)
        j = int(np.argmax(lv))
        if lv[j] > best_v:
            best_k, best_v = float(local[j]), float(lv[j])
        lo = float(local[max(j - 1, 0)])
        hi = float(local[min(j + 1, len(local) - 1)])
    return best_v, best_k


def sup_constants(t0_times_t: float = 0.25, scale_exponent: int = 0, *,
                  k_max: float = 4.0 * math.pi,
                  coarse_points: int = 4096) -> SupConstantsReport:
    """Maximize the four comparison-factor ratios over a refined grid.

    The grid joins a logarithmic sweep into the small-argument limit (where
    all four ratios attain their suprema) with a linear sweep out to
    ``k_max``, then zooms locally around the best point.

    Parameters
    ----------
    t0_times_t : float
        Product ``t0 * t`` entering the propagator phases.
    scale_exponent : int
        Depth ``m``; the phase scale is ``c = 2 * t0_times_t * 2^m``.
    k_max : float
        Upper end of the search interval.
    coarse_points : int
        Points in the linear part of the coarse grid.

    Returns
    -------
    SupConstantsReport
        Measured maxima, their locations, and the claimed closed forms.
    """
    c = 2.0 * t0_times_t * (2.0 ** scale_exponent)
    grid = np.concatenate([
        np.geomspace(1e-8, 0.1, 241),
        np.linspace(0.1, k_max, coarse_points)[1:],
    ])
    values = []
    locations = []
    for f in _sup_callables(c):
        v, loc = _grid_max(f, grid)
        values.append(v)
        locations.append(loc)
    claimed = (
        0.5,
        0.5,
        (4.0 ** scale_exponent) * (8.0 / 3.0) * t0_times_t ** 2,
        (2.0 ** scale_exponent) * (4.0 / 3.0) * t0_times_t,
    )
    return SupConstantsReport(
        t0_times_t=t0_times_t,
        scale_exponent=scale_exponent,
        values=tuple(values),
        locations=tuple(locations),
        claimed=claimed,
    )


# ---------------------------------------------------------------------------
# Sobolev-weighted norms


@dataclass(frozen=True)
class SobolevNorm:
    """Windowed Sobolev-weighted norm of a doubled-space smearing vector.

    ``value**2 = Int (1+k^2)^order |s^(k)|^{2*weight} (|xi^|^2+|eta^|^2) dk``
    over the fixed momentum window.
    """

    order: int
    weight: float
    value: float

    def __post_init__(self):
        if self.order not in (1, 2, 3, 4):
            raise ValueError("order must be in {1, 2, 3, 4}")
        if not (0.0 < self.weight < 1.0):
            raise ValueError("weight exponent must lie in (0, 1)")
        if not (self.value >= 0.0):
            raise ValueError("norm value must be non-negative")


@lru_cache(maxsize=256)
def _weight_octave_ratio(filt: Filter, two_weight: float) -> float:
    """Geometric-mean top-octave mass ratio of ``|s^|^{two_weight}``."""
    masses = []
    for j in range(9):
        x, w = octave_nodes(j, 12)
        masses.append(float(np.dot(w, np.abs(s_hat(filt, x)) ** two_weight)))
    ratios = [masses[j + 1] / masses[j] for j in range(5, 8)]
    return float(np.exp(np.mean(np.log(ratios))))


def _check_admissible(filt: Filter, weight: float, order: int) -> None:
    ratio = _weight_octave_ratio(filt, 2.0 * weight)
    if ratio >= 0.95:
        raise InadmissibleFilterError(
            f"filter with {len(filt.taps)} taps is inadmissible at Sobolev "
            f"order {order}: the weighted density |s^|^{2.0 * weight:g} has "
            f"top-octave mass ratio {ratio:.3f} >= 0.95 (no spectral decay "
            "across the momentum window)")


@lru_cache(maxsize=4096)
def _sobolev_cached(v: SelfDualVector, filt: Filter, weight: float,
                    order: int, grid_scale: int) -> float:
    k, wq = symmetric_nodes(MOMENTUM_WINDOW, math.pi / (64.0 * grid_scale),
                            16, max_width=math.pi / (2.0 * grid_scale))
    poly = (1.0 + k * k) ** order
    density = np.abs(s_hat(filt, k)) ** (2.0 * weight)
    amp = np.sum(np.abs(v.weight(k)) ** 2, axis=-1)
    return float(math.sqrt(np.dot(wq, poly * density * amp)))


def sobolev_norm(v: SelfDualVector, filt: Filter, weight: float, order: int,
                 *, grid_scale: int = 1) -> float:
    """Windowed Sobolev-weighted norm of a smearing vector.

    Parameters
    ----------
    v : SelfDualVector
        Doubled-space smearing vector ``(xi, eta)``.
    filt : Filter
        Low-pass filter whose scaling-function transform weights the
        integrand as ``|s^(k)|^{2*weight}``.
    weight : float
        Weight exponent in ``(0, 1)``; a split parameter ``gamma`` uses
        ``1 - gamma`` on the first pairing slot and ``gamma`` on the second.
    order : int
        Sobolev order in ``{1, 2, 3, 4}``; the polynomial weight is
        ``(1+k^2)^order``.
    grid_scale : int
        Panel-refinement multiplier (2 doubles the quadrature grid).

    Returns
    -------
    float
        ``sqrt(Int (1+k^2)^order |s^|^{2 weight} (|xi^|^2+|eta^|^2) dk)``
        over the fixed window; the ``1/(2 pi)`` normalization lives in the
        assembled bound prefactor, not here.

    Raises
    ------
    InadmissibleFilterError
        If the weighted density shows no octave decay on the window
        (e.g. the two-tap filter at weight 1/2).
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be in {1, 2, 3, 4}")
    if not (0.0 < weight < 1.0):
        raise ValueError("weight exponent must lie in (0, 1)")
    _check_admissible(filt, weight, order)
    return _sobolev_cached(v, filt, float(weight), int(order), int(grid_scale))


def sobolev_report(v: SelfDualVector, filt: Filter, weight: float,
                   order: int) -> SobolevNorm:
    """Norm packaged with its order and weight exponent."""
    return SobolevNorm(order=order, weight=weight,
                       value=sobolev_norm(v, filt, weight, order))


# ---------------------------------------------------------------------------
# certified bound assembly


def certified_components(m: int, t0: float, t: float, v1: SelfDualVector,
                         v2: SelfDualVector, filt: Filter,
                         gamma: float = 0.5) -> Tuple[float, float, float, float]:
    """The four additive terms of the certified bound.

    Term ``j`` pairs the order-``j`` norms of ``v1`` (weight ``1-gamma``)
    and ``v2`` (weight ``gamma``):

    * order 1: covariance deviation, coefficient ``(sqrt2+1)/(2 sqrt2)``,
    * order 2: curvature remainder, coefficient ``2^{-m}/2``,
    * order 3: sine propagator difference, coefficient ``2^{-m}(4/3)|t0 t|``,
    * order 4: cosine propagator difference, coefficient
      ``2^{-m}(8/3)(t0 t)^2``,

    all multiplied by the overall prefactor ``2^{-m} sqrt2/(2 pi)``.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    n = {j: sobolev_norm(v1, filt, 1.0 - gamma, j) for j in (1, 2, 3, 4)}
    npr = {j: sobolev_norm(v2, filt, gamma, j) for j in (1, 2, 3, 4)}
    pref = (2.0 ** -m) * _SQRT2 / (2.0 * math.pi)
    tt = t0 * t
    # each norm pair is one product, so swapping v1 and v2 leaves every
    # rounding unchanged (floating-point multiplication commutes)
    term1 = pref * ((_SQRT2 + 1.0) / (2.0 * _SQRT2)) * (n[1] * npr[1])
    term2 = pref * (2.0 ** -m) * 0.5 * (n[2] * npr[2])
    term3 = pref * (2.0 ** -m) * (4.0 / 3.0) * abs(tt) * (n[3] * npr[3])
    term4 = pref * (2.0 ** -m) * (8.0 / 3.0) * tt * tt * (n[4] * npr[4])
    return (term1, term2, term3, term4)


def certified_bound(m: int, t0: float, t: float, v1: SelfDualVector,
                    v2: SelfDualVector, filt: Filter,
                    gamma: float = 0.5) -> float:
    """Assembled certified bound on the windowed dynamical pairing error.

    Exactly the sum of :func:`certified_components`; invariant (to the last
    bit) under swapping ``(v1, gamma) <-> (v2, 1-gamma)`` together with
    time reversal ``t0 -> -t0``.
    """
    c1, c2, c3, c4 = certified_components(m, t0, t, v1, v2, filt, gamma)
    return c1 + c2 + c3 + c4


# ---------------------------------------------------------------------------
# dynamical pairings and the empirical error


def _pairing_nodes(kmax: float, t0: float, t: float, resolution: float):
    """Quadrature nodes resolving the fastest propagator phase.

    The lattice-angle panel width scales as ``2^{-m}/t0``; after the change
    of variables to the common momentum window that is the ``m``-independent
    width ``1/(4 t0 max(1,|t|))``, capped at ``pi/2`` and floored by the
    dyadic refinement toward the origin kink.
    """
    osc = abs(t0) * max(1.0, abs(t))
    width = math.pi / 2.0 if osc == 0.0 else min(math.pi / 2.0, 0.25 / osc)
    return symmetric_nodes(kmax, math.pi / (64.0 * resolution), 16,
                           max_width=width / resolution)


def dynamical_pairing(side: str, m: int, t0: float, t: float,
                      v1: SelfDualVector, v2: SelfDualVector, filt: Filter, *,
                      kmax: Optional[float] = None,
                      resolution: float = 1.0) -> complex:
    """Windowed dynamical pairing of two smeared doubled-space vectors.

    Evaluates ``(1/2pi) Int |s^(k)|^2 w1(k)^dag M(k) conj(w2(-k)) dk`` with

    * ``side="renormalized"``: ``M(k) = C_lat(2^{-m}k) exp(i 2^m t0 h(2^{-m}k))``
      over ``|k| <= min(2^m pi, window)`` — the depth-``m`` lattice state
      evolved by the lattice one-particle Hamiltonian for rescaled time
      ``2^m t0``;
    * ``side="limit"``: ``M(k) = C_lim(k) exp(i t0 t * 2k * flip)`` over the
      full window — the scaling-limit state evolved by the limiting
      dispersion ``2 t k`` acting through the off-diagonal flip.

    The propagator is evaluated in closed form,
    ``cos(2 tau |z|) I + i sin(2 tau |z|) h/(2|z|)``, with the removable
    ``|z| -> 0`` limit taken by series.

    Parameters
    ----------
    side : str
        ``"renormalized"`` or ``"limit"``.
    m : int
        Renormalization depth (sets the Brillouin window and time rescaling
        on the renormalized side; ignored on the limit side).
    t0, t : float
        Time separation and hopping amplitude.
    v1, v2 : SelfDualVector
        Smearing vectors; the second enters conjugated, matching the
        pairing convention of the static two-point functions.
    filt : Filter
        Filter whose ``|s^|^2`` weights the integrand.
    kmax : float, optional
        Override for the window half-width.
    resolution : float
        Multiplier on the oscillation-panel density.

    Returns
    -------
    complex
        The pairing value.
    """
    if side not in ("renormalized", "limit"):
        raise ValueError("side must be 'renormalized' or 'limit'")
    window = MOMENTUM_WINDOW if kmax is None else float(kmax)
    if side == "renormalized":
        window = min(window, (2.0 ** m) * math.pi)
    k, wq = _pairing_nodes(window, t0, t, resolution)

    if side == "renormalized":
        theta = k * (2.0 ** -m)
        c = Couplings.critical(t)
        cov = covariance_lattice(c, theta)
        z = np.asarray(z_theta(c, theta))
        absz = np.abs(z)
        tau = t0 * (2.0 ** m)
        phase = 2.0 * tau * absz
        safe = np.where(absz > _EPS_Z, absz, 1.0)
        sfac = np.where(absz > _EPS_Z, np.sin(phase) / (2.0 * safe),
                        tau * (1.0 - phase * phase / 6.0))
        prop = np.zeros(z.shape + (2, 2), dtype=complex)
        prop[..., 0, 0] = np.cos(phase)
        prop[..., 1, 1] = np.cos(phase)
        prop[..., 0, 1] = 2.0 * sfac * np.conj(z)
        prop[..., 1, 0] = -2.0 * sfac * z
        mat = cov @ prop
    else:
        cov = covariance_critical_limit(k)
        phase = 2.0 * t0 * t * k
        prop = np.zeros(k.shape + (2, 2), dtype=complex)
        prop[..., 0, 0] = np.cos(phase)
        prop[..., 1, 1] = np.cos(phase)
        prop[..., 0, 1] = 1j * np.sin(phase)
        prop[..., 1, 0] = 1j * np.sin(phase)
        mat = cov @ prop

    w1 = v1.weight(k)
    w2c = v2.weight_conj_reflected(k)
    density = np.abs(s_hat(filt, k)) ** 2
    vals = np.einsum("ni,nij,nj->n", np.conj(w1), mat, w2c)
    return complex(np.dot(wq, density * vals) / (2.0 * math.pi))


def empirical_error(m: int, t0: float, t: float, v1: SelfDualVector,
                    v2: SelfDualVector, filt: Filter, *,
                    resolution: float = 1.0, refine_check: bool = True,
                    rtol: float = 1e-8) -> float:
    """Absolute difference of the renormalized and limit dynamical pairings.

    With ``refine_check`` the panel density is doubled and the two results
    compared; disagreement beyond ``rtol`` raises
    :class:`OscillationResolutionError` (the fix is a higher
    ``resolution``).  The refined value is returned.
    """
    def diff(res: float) -> float:
        lat = dynamical_pairing("renormalized", m, t0, t, v1, v2, filt,
                                resolution=res)
        lim = dynamical_pairing("limit", m, t0, t, v1, v2, filt,
                                resolution=res)
        return abs(lat - lim)

    base = diff(resolution)
    if not refine_check:
        return base
    fine = diff(2.0 * resolution)
    if abs(base - fine) > max(1e-10, rtol * max(1.0, fine)):
        raise OscillationResolutionError(
            f"pairing quadrature moved by {abs(base - fine):.3e} under panel "
            f"doubling; rerun with resolution > {2.0 * resolution:g} to "
            "refine the oscillation panels")
    return fine


# ---------------------------------------------------------------------------
# report and sweep


@dataclass(frozen=True)
class BoundReport:
    """One grid point of the bound-versus-measurement comparison.

    ``components`` are the four certified terms (orders 1 through 4);
    their sum is ``certified_bound``.  ``satisfied`` allows the shared
    quadrature tolerance on top of the certified value.
    """

    QUADRATURE_TOL: ClassVar[float] = 1e-8

    m: int
    t0: float
    empirical_error: float
    certified_bound: float
    components: Tuple[float, float, float, float]

    @property
    def satisfied(self) -> bool:
        return self.empirical_error <= self.certified_bound + self.QUADRATURE_TOL


def bound_report(m: int, t0: float, t: float, v1: SelfDualVector,
                 v2: SelfDualVector, filt: Filter, gamma: float = 0.5, *,
                 resolution: float = 1.0) -> BoundReport:
    """Certified bound, its components, and the empirical error at one point."""
    comps = certified_components(m, t0, t, v1, v2, filt, gamma)
    emp = empirical_error(m, t0, t, v1, v2, filt, resolution=resolution)
    return BoundReport(m=m, t0=t0, empirical_error=emp,
                       certified_bound=sum(comps), components=comps)


def bound_sweep(ms: Sequence[int], t0s: Sequence[float], t: float,
                v1: SelfDualVector, v2: SelfDualVector, filt: Filter,
                gamma: float = 0.5) -> Tuple[BoundReport, ...]:
    """Reports over the product grid ``ms x t0s`` in deterministic order.

    Grid points are independent (safe to farm out); this reference
    implementation runs them sequentially so aggregation order is fixed.
    """
    return tuple(bound_report(m, t0, t, v1, v2, filt, gamma)
                 for m in ms for t0 in t0s)


def write_bound_sweep_csv(path, reports: Iterable[BoundReport]) -> None:
    """Write a sweep as CSV: m, t0, empirical, bound, the four terms."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "t0", "empirical", "bound",
                         "term_order1", "term_order2", "term_order3",
                         "term_order4"])
        for r in reports:
            writer.writerow([r.m, repr(r.t0), repr(r.empirical_error),
                             repr(r.certified_bound),
                             *(repr(c) for c in r.components)])


def bracketed_factor_max(reports: Iterable[BoundReport]) -> float:
    """Largest bracketed norm-combination factor over a sweep.

    Each certified bound is ``2^{-m} * sqrt2/(2 pi)`` times a bracketed
    factor; the maximum over a grid certifies a uniform decay constant for
    that grid's time horizon.
    """
    return max(r.certified_bound / ((2.0 ** -r.m) * _SQRT2 / (2.0 * math.pi))
               for r in reports)
