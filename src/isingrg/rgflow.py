"""Wavelet renormalization-group flow of quasi-free lattice states.

One coarse-graining step maps the fermion lattice algebra into itself along
the low-pass branch of a wavelet filter bank; ``m`` iterated steps pull the
Gibbs state back through the cascade.  Every state here is quasi-free and
translation invariant, so each two-point function of lattice-supported
vectors is a finite sum over the state's 2x2 lag table

    P(s) = (1/2pi) Int e^{iks} W(k) C(k) dk,

with the covariance kernel ``C`` of :mod:`isingrg.kernels` and the spectral
weight ``W``: 1 on ``[-pi, pi]`` for the lattice Gibbs state, the cascade
weight ``W_m(k) = prod_{n=1..m} |m0(2^-n k)|^2`` on ``|k| < 2^m pi`` (kernel
taken at ``2^-m k``) for the ``m``-times renormalized state, and ``|s^(k)|^2``
up to :func:`momentum_cutoff` for the critical and massive/thermal limits.
A doubled-space vector with site weights ``w_j = (xi_j, eta_j)`` pairs as

    <Psi(v1) Psi(v2)> = sum_{j,l} conj(w1_j)^T P(j - l) conj(w2_l),

and the scalar kinds take ``a(v) = Psi(from_annihilator(v))`` and
``a*(v) = Psi(from_creator(conj v))``.  As ``m`` grows, ``W_m`` converges to
``|s^(k)|^2`` and the kernel to its scaling limit; the error decays like
``2^-m``.

Coupling trajectories are classified by ``1 - t3/t1``: positive flows to the
disorder fixed point, negative to the order fixed point, zero is critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ._quadrature import integrate, octave_nodes, symmetric_node_blocks
from .kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
)
from .wavelet import Filter, cascade_product, s_hat

__all__ = [
    "DISORDER_KERNEL",
    "ORDER_KERNEL",
    "QuasiFreeState",
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
# nodes per block when a lag octave samples W C (bounds the sample's memory)
_BLOCK = 1 << 15


def _osc_width(*vectors: SiteVector) -> float:
    """Panel width keeping lattice-vector oscillation under ~1 cycle/panel."""
    extent = 1
    for v in vectors:
        extent = max(extent, int(np.max(np.abs(v.sites))))
    return float(min(np.pi, 2.0 * np.pi / (extent + 1)))


# ---------------------------------------------------------------------------
# quasi-free states and their lag tables


@dataclass(frozen=True)
class QuasiFreeState:
    """Handle naming one of the translation-invariant quasi-free states.

    Kinds: ``lattice`` (Gibbs state of the chain), ``renormalized``
    (``m``-step coarse-grained Gibbs state), ``critical_limit`` and
    ``massive_thermal`` (wavelet-smeared scaling limits, the latter with
    ``beta0`` in ``(0, inf]`` and ``t > 0``).  States compare and hash by
    value, so equal states share lag-table entries.
    """

    kind: str
    couplings: Optional[Couplings] = None
    filt: Optional[Filter] = None
    m: int = 0
    mu0: float = 0.0
    beta0: float = float("inf")
    t: float = 1.0

    def __post_init__(self):
        if self.kind not in ("lattice", "renormalized", "critical_limit",
                             "massive_thermal"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind in ("lattice", "renormalized") and self.couplings is None:
            raise ValueError(f"{self.kind} state needs couplings")
        if self.kind != "lattice" and self.filt is None:
            raise ValueError(f"{self.kind} state needs a filter")
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError("m must be a non-negative integer")
        if not (self.beta0 > 0):
            raise ValueError("beta0 must be positive (math.inf allowed)")
        if not (self.t > 0):
            raise ValueError("t must be positive")
        object.__setattr__(self, "m", int(self.m))

    @classmethod
    def lattice(cls, couplings: Couplings) -> "QuasiFreeState":
        return cls(kind="lattice", couplings=couplings)

    @classmethod
    def renormalized(cls, couplings: Couplings, filt: Filter, m: int) -> "QuasiFreeState":
        return cls(kind="renormalized", couplings=couplings, filt=filt, m=m)

    @classmethod
    def critical_limit(cls, filt: Filter) -> "QuasiFreeState":
        return cls(kind="critical_limit", filt=filt)

    @classmethod
    def massive_thermal(cls, filt: Filter, mu0: float, beta0: float,
                        t: float = 1.0) -> "QuasiFreeState":
        return cls(kind="massive_thermal", filt=filt, mu0=mu0, beta0=beta0, t=t)


def _state_kernel_weight(state: QuasiFreeState):
    """Return (kernel(k), weight(k), kmax) of the state's pairing integral."""
    if state.kind == "lattice":
        c = state.couplings
        return (lambda k: covariance_lattice(c, k),
                lambda k: np.ones(np.shape(k)), np.pi)
    if state.kind == "renormalized":
        c, f, m = state.couplings, state.filt, state.m
        scale = 2.0 ** m
        return (lambda k: covariance_lattice(c, k / scale),
                lambda k: np.abs(cascade_product(f, k, m)) ** 2, scale * np.pi)
    if state.kind == "critical_limit":
        f = state.filt
        return (covariance_critical_limit,
                lambda k: np.abs(s_hat(f, k)) ** 2, momentum_cutoff(f).cutoff)
    f, mu0, beta0, t = state.filt, state.mu0, state.beta0, state.t
    return (lambda k: covariance_massive_thermal(k, mu0, beta0, t),
            lambda k: np.abs(s_hat(f, k)) ** 2, momentum_cutoff(f).cutoff)


def _octave(s: int) -> int:
    """Lag octave: 0 for ``|s| <= 1``, else ``j`` with ``2^(j-1) < |s| <= 2^j``."""
    return max(0, abs(s) - 1).bit_length()


@lru_cache(maxsize=256)
def _lag_octave(state: QuasiFreeState, j: int) -> Mapping[int, np.ndarray]:
    """Every lag of octave ``j`` of the lag table: a read-only mapping of
    read-only 2x2 arrays, shared by every caller.

    ``W C`` is sampled once, on the nodes whose panels resolve the octave's
    largest lag, in blocks of at most ``_BLOCK`` nodes; each lag is summed
    as rows ``exp(iks) @ sym`` block by block, so a value never depends on
    which lags were asked for before.  Cached by state value and octave.
    """
    top = 1 << j
    lags = [s for s in range(-top, top + 1) if _octave(s) == j]
    kernel, weight, kmax = _state_kernel_weight(state)
    table = np.zeros((len(lags), 4), dtype=complex)
    for x, w in symmetric_node_blocks(kmax, _FINEST, _ORDER,
                                      _osc_width(SiteVector.delta(top)), _BLOCK):
        sym = (w * weight(x) / (2.0 * np.pi))[:, None] * kernel(x).reshape(-1, 4)
        for r, s in enumerate(lags):
            table[r] += np.exp(1j * s * x) @ sym
    table = table.reshape(-1, 2, 2)
    table.setflags(write=False)
    return MappingProxyType(dict(zip(lags, table)))


def _lag_matrix(state: QuasiFreeState, s: int) -> np.ndarray:
    """The lag table ``P(s) = (1/2pi) Int e^{iks} W(k) C(k) dk`` (2x2)."""
    return _lag_octave(state, _octave(s))[s]


def _pairing(state: QuasiFreeState, v1: SelfDualVector,
             v2: SelfDualVector) -> complex:
    """``<Psi(v1) Psi(v2)> = sum_{j,l} conj(w1_j)^T P(j - l) conj(w2_l)``."""
    total = 0j
    for a, x in enumerate((v1.xi, v1.eta)):
        for b, y in enumerate((v2.xi, v2.eta)):
            for j, xj in zip(x.sites.tolist(), x.values):
                for l, yl in zip(y.sites.tolist(), y.values):
                    if xj and yl:  # zero weights sample no octave
                        total += (xj * yl).conjugate() * _lag_matrix(state, j - l)[a, b]
    return complex(total)


def _field(v: SiteVector, op: str) -> SelfDualVector:
    """``a(v)`` (``op = "a"``) or ``a*(v)`` as a doubled-space vector."""
    if op == "a":
        return SelfDualVector.from_annihilator(v)
    return SelfDualVector.from_creator(v.conj())


def _two_point(state: QuasiFreeState, v1: SiteVector, v2: SiteVector,
               kind: str = "a_adag") -> complex:
    """Scalar two-point function of ``state``: ``<a(v1) a*(v2)>``,
    ``<a*(v1) a*(v2)>``, ``<a(v1) a(v2)>`` or ``<a*(v1) a(v2)>`` for
    ``kind`` ``"a_adag"``, ``"adag_adag"``, ``"a_a"`` or ``"adag_a"``."""
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    op1, op2 = kind.split("_")
    return _pairing(state, _field(v1, op1), _field(v2, op2))


# ---------------------------------------------------------------------------
# renormalized (finite-m) two-point functions


def renormalized_two_point(c: Couplings, filt: Filter, m: int, v1: SiteVector,
                           v2: SiteVector, kind: str = "a_adag") -> complex:
    """Two-point function of the ``m``-times renormalized Gibbs state.

    Its lag table integrates over the momentum window ``[-2^m pi, 2^m pi]``
    with the cascade weight ``W_m(k) = |prod_{n=1..m} m0(2^-n k)|^2``.

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
    return _two_point(QuasiFreeState.renormalized(c, filt, m), v1, v2, kind)


def lattice_two_point(c: Couplings, v1: SiteVector, v2: SiteVector,
                      kind: str = "a_adag") -> complex:
    """Bare (un-renormalized) Gibbs two-point function; equals ``m = 0``."""
    return _two_point(QuasiFreeState.lattice(c), v1, v2, kind)


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


def limit_two_point(filt: Filter, v1: SiteVector, v2: SiteVector,
                    kind: str = "a_adag") -> complex:
    """Critical scaling-limit two-point function (wavelet-smeared): the
    kernel ``[[1, -sign k], [-sign k, 1]]`` weighted by ``|s^(k)|^2`` over
    ``|k| <= momentum_cutoff(filt).cutoff``."""
    return _two_point(QuasiFreeState.critical_limit(filt), v1, v2, kind)


def massive_thermal_two_point(filt: Filter, v1: SiteVector, v2: SiteVector,
                              kind: str = "a_adag", *, mu0: float,
                              beta0: float, t: float = 1.0) -> complex:
    """Massive/thermal scaling-limit two-point function (wavelet-smeared),
    over the same window as :func:`limit_two_point`."""
    return _two_point(QuasiFreeState.massive_thermal(filt, mu0, beta0, t),
                     v1, v2, kind)


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

