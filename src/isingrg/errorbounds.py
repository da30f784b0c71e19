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
  difference (the empirical error the bound must dominate); each side is
  the ground-state covariance times the propagator of :mod:`isingrg.kernels`,
  at the lattice symbol ``z(2^-m k)`` or at its scaling limit ``-i t k``.

All momentum integrals are evaluated on the fixed computational window
``|k| <= 2^9 * pi`` at which the scaling-limit states are truncated.  On
that common window the Cauchy-Schwarz chain behind the assembled bound
holds verbatim, so ``empirical <= certified`` is an exact windowed
statement, not an asymptotic claim.  The Sobolev norms read the one
``|s^|`` sample per filter that :mod:`isingrg.rgflow` keeps on the window,
the sample its momentum cutoff reads.  The pairings read that window with
its panels halved for the fastest propagator phase, one cached sample per
filter and level, the renormalized side a prefix of the limit side's.
Norm weights ``|s^(k)|^{2*gamma}`` with slowly decaying filters make some
windowed norms cutoff-dominated; the bound then certifies loosely but
remains a true upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence, Tuple

import numpy as np

from .kernels import Couplings, SelfDualVector, covariance, propagator, z_theta
from .rgflow import (MOMENTUM_WINDOW, _check_depth, _window_abs_s_hat, _window_level_blocks,
                     _window_nodes, _window_octaves)
from .wavelet import Filter, s_hat  # noqa: F401 (tracers patch every s_hat binding)

__all__ = [
    "InadmissibleFilterError",
    "OscillationResolutionError",
    "SupConstantsReport",
    "sup_constants",
    "covariance_deviation",
    "sobolev_norm",
    "certified_components",
    "dynamical_pairing",
    "empirical_error",
    "BoundReport",
    "bound_report",
    "bound_sweep",
]

_SQRT2 = math.sqrt(2.0)
# sup_constants: the linear search runs to _SUP_K_MAX over _SUP_POINTS points
_SUP_K_MAX = 4.0 * math.pi
_SUP_POINTS = 4096
# empirical_error: largest relative move allowed under panel doubling
_REFINE_RTOL = 1e-8


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


def sup_constants(t0_times_t: float = 0.25,
                  scale_exponent: int = 0) -> SupConstantsReport:
    """Maximize the four comparison-factor ratios over a refined grid.

    The grid joins a logarithmic sweep into the small-argument limit (where
    all four ratios attain their suprema) with a linear sweep of 4096
    points out to ``4 pi``, then zooms locally around the best point.

    Parameters
    ----------
    t0_times_t : float
        Finite product ``t0 * t`` entering the propagator phases.
    scale_exponent : int
        Depth ``m``, an integer in ``[0, MAX_DEPTH]``; the phase scale is
        ``c = 2 * t0_times_t * 2^m``.

    Returns
    -------
    SupConstantsReport
        Measured maxima, their locations, and the claimed closed forms.
    """
    if not math.isfinite(t0_times_t):
        raise ValueError("t0_times_t must be finite")
    scale_exponent = _check_depth(scale_exponent)
    c = 2.0 * t0_times_t * (2.0 ** scale_exponent)
    grid = np.concatenate([
        np.geomspace(1e-8, 0.1, 241),
        np.linspace(0.1, _SUP_K_MAX, _SUP_POINTS)[1:],
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


def sobolev_norm(v: SelfDualVector, filt: Filter, weight: float,
                 order: int) -> float:
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
    k, wq = _window_nodes()
    density = _window_abs_s_hat(filt) ** (2.0 * float(weight))
    masses = _window_octaves(density)[6:]  # octaves 5..8 must decay
    ratio = float(np.exp(np.mean(np.log(masses[1:] / masses[:-1]))))
    if ratio >= 0.95:
        raise InadmissibleFilterError(
            f"filter with {len(filt.taps)} taps is inadmissible at Sobolev "
            f"order {order}: the weighted density |s^|^{2.0 * weight:g} has "
            f"top-octave mass ratio {ratio:.3f} >= 0.95 (no spectral decay "
            "across the momentum window)")
    poly = (1.0 + k * k) ** int(order)
    amp = np.sum(np.abs(v.weight(k)) ** 2, axis=-1)
    return float(math.sqrt(np.dot(wq, poly * density * amp)))


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

    all multiplied by the overall prefactor ``2^{-m} sqrt2/(2 pi)``; ``m``
    is an integer in ``[0, MAX_DEPTH]``, as for every function here.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    _check_depth(m)
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


# ---------------------------------------------------------------------------
# dynamical pairings and the empirical error


def _pairing_level(m: int, t0: float, t: float) -> int:
    """The window level of :func:`dynamical_pairing` (boundary checks too)."""
    _check_depth(m)
    if not (0 < t < math.inf):
        raise ValueError("t must be positive and finite")
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    osc = abs(t0) * max(1.0, t)
    return max(0, math.ceil(math.log2(max(1.0, 2.0 * math.pi * osc))))


def _pairing(side: str, m: int, t0: float, t: float, v1: SelfDualVector,
             v2: SelfDualVector, filt: Filter, level: int) -> complex:
    """:func:`dynamical_pairing` on window level ``level``, summed blockwise."""
    window, tau = MOMENTUM_WINDOW, t0
    if side == "renormalized":
        window, tau = min(window, (2.0 ** m) * math.pi), t0 * (2.0 ** m)
    total = 0.0
    for kp, wp, a in _window_level_blocks(filt, level, window):
        k = np.concatenate([-kp, kp])
        z = (z_theta(Couplings.critical(t), k * (2.0 ** -m))
             if side == "renormalized" else -1j * t * k)
        # M w2 as C (U w2): two einsums beat one stacked 2x2 matmul fivefold
        u = np.einsum("nij,nj->ni", propagator(z, tau), v2.weight_conj_reflected(k))
        vals = np.einsum("ni,nij,nj->n", np.conj(v1.weight(k)), covariance(z, math.inf), u)
        total += np.dot(np.tile(wp * a * a, 2), vals)
    return complex(total / (2.0 * math.pi))


def dynamical_pairing(side: str, m: int, t0: float, t: float,
                      v1: SelfDualVector, v2: SelfDualVector, filt: Filter) -> complex:
    """Windowed dynamical pairing of two smeared doubled-space vectors.

    Evaluates ``(1/2pi) Int |s^(k)|^2 w1(k)^dag M(k) conj(w2(-k)) dk`` with
    ``M(k) = covariance(z, inf) @ propagator(z, tau)`` (both from
    :mod:`isingrg.kernels`) at

    * ``side="renormalized"``: ``z = z_theta(critical(t), 2^{-m} k)``,
      ``tau = 2^m t0``, over ``|k| <= min(2^m pi, window)`` — the depth-``m``
      lattice state evolved by the lattice Hamiltonian for rescaled time;
    * ``side="limit"``: ``z = -i t k``, ``tau = t0``, over the full window —
      the critical scaling-limit state evolved by its limiting dispersion.

    The nodes are window level ``j = max(0, ceil(log2(max(1, 2 pi osc))))``,
    ``osc = |t0| max(1, t)``: the panels of the Sobolev-norm window halved
    ``j`` times, none wider than ``1/(4 osc)``.

    Parameters
    ----------
    side : str
        ``"renormalized"`` or ``"limit"``.
    m : int
        Renormalization depth, an integer in ``[0, MAX_DEPTH]`` on either
        side (it sets the Brillouin window and time rescaling of the
        renormalized side).
    t0, t : float
        Time separation (finite) and hopping amplitude (positive and finite).
    v1, v2 : SelfDualVector
        Smearing vectors; the second enters conjugated, matching the
        pairing convention of the static two-point functions.
    filt : Filter
        Filter whose ``|s^|^2`` weights the integrand.

    Returns
    -------
    complex
        The pairing value.
    """
    if side not in ("renormalized", "limit"):
        raise ValueError("side must be 'renormalized' or 'limit'")
    return _pairing(side, m, t0, t, v1, v2, filt, _pairing_level(m, t0, t))


def empirical_error(m: int, t0: float, t: float, v1: SelfDualVector,
                    v2: SelfDualVector, filt: Filter) -> float:
    """Absolute difference of the renormalized and limit dynamical pairings.

    Both pairings are evaluated on the window level ``j`` that
    :func:`dynamical_pairing` takes and again on level ``j + 1`` (panels
    halved); disagreement beyond a relative ``1e-8`` raises
    :class:`OscillationResolutionError`.  The refined value is returned.
    """
    level = _pairing_level(m, t0, t)
    base, fine = (abs(_pairing("renormalized", m, t0, t, v1, v2, filt, j)
                      - _pairing("limit", m, t0, t, v1, v2, filt, j))
                  for j in (level, level + 1))
    if abs(base - fine) > max(1e-10, _REFINE_RTOL * max(1.0, fine)):
        raise OscillationResolutionError(
            f"pairing quadrature moved by {abs(base - fine):.3e} under panel "
            f"doubling (window level {level} to {level + 1})")
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
                 v2: SelfDualVector, filt: Filter, gamma: float = 0.5) -> BoundReport:
    """Certified bound, its components, and the empirical error at one point."""
    emp = empirical_error(m, t0, t, v1, v2, filt)
    comps = certified_components(m, t0, t, v1, v2, filt, gamma)
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

