"""Spin-spin correlators of quasi-free states via Pfaffians and Toeplitz
determinants.

The longitudinal spin product reduces to a string of Majorana-type factors,

    s3_j s3_j' = prod_{j <= l < j'} (a_l - a*_l)(a_{l+1} + a*_{l+1}),

so every even spin correlation is the Pfaffian of the skew matrix of ordered
pair expectations; odd products vanish by parity.  Two-site correlations
collapse further to a Toeplitz determinant of the mixed-pair symbol
``C3(s) = <(a_j - a*_j)(a_{j'} + a*_{j'})>`` at lag ``s = j - j'`` (the
symbol is *not* symmetric under ``s -> -s``).

Pair expectations are evaluated through the doubled-space pairing

    <Psi(v1) Psi(v2)> = (1/2pi) Int w1(k)^dag C(k) conj(w2(-k)) W(k) dk,

with the state's covariance kernel ``C`` and spectral weight ``W``; an
independent four-term expansion through the scalar two-point integrals of
:mod:`isingrg.rgflow` is provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._quadrature import integrate
from .kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
)
from .rgflow import (
    _osc_width,
    lattice_two_point,
    limit_two_point,
    massive_thermal_two_point,
    momentum_cutoff,
    renormalized_two_point,
)
from .wavelet import Filter, cascade_product, s_hat

__all__ = [
    "QuasiFreeState",
    "SkewMatrix",
    "ToeplitzSymbol",
    "self_dual_two_point",
    "self_dual_two_point_expanded",
    "pair_matrix",
    "pfaffian",
    "pfaffian_matchings",
    "spin_spin_correlation",
    "toeplitz_symbol",
    "toeplitz_correlation",
    "transverse_field_expectation",
]

_MAX_STRING = 64


@dataclass(frozen=True)
class QuasiFreeState:
    """Handle naming one of the translation-invariant quasi-free states.

    Kinds: ``lattice`` (Gibbs state of the chain), ``renormalized``
    (``m``-step coarse-grained Gibbs state), ``critical_limit`` and
    ``massive_thermal`` (wavelet-smeared scaling limits).
    """

    kind: str
    couplings: Optional[Couplings] = None
    filt: Optional[Filter] = None
    m: int = 0
    mu0: float = 0.0
    beta0: float = float("inf")
    t: float = 1.0
    _pair_cache: Dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("lattice", "renormalized", "critical_limit",
                             "massive_thermal"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind in ("lattice", "renormalized") and self.couplings is None:
            raise ValueError(f"{self.kind} state needs couplings")
        if self.kind != "lattice" and self.filt is None:
            raise ValueError(f"{self.kind} state needs a filter")

    @classmethod
    def lattice(cls, couplings: Couplings) -> "QuasiFreeState":
        return cls(kind="lattice", couplings=couplings)

    @classmethod
    def renormalized(cls, couplings: Couplings, filt: Filter, m: int) -> "QuasiFreeState":
        return cls(kind="renormalized", couplings=couplings, filt=filt, m=int(m))

    @classmethod
    def critical_limit(cls, filt: Filter) -> "QuasiFreeState":
        return cls(kind="critical_limit", filt=filt)

    @classmethod
    def massive_thermal(cls, filt: Filter, mu0: float, beta0: float,
                        t: float = 1.0) -> "QuasiFreeState":
        return cls(kind="massive_thermal", filt=filt, mu0=mu0, beta0=beta0, t=t)


def _state_kernel_weight(state: QuasiFreeState):
    """Return (kernel(k), weight(k), kmax) for the pairing integral."""
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


def self_dual_two_point(state: QuasiFreeState, v1: SelfDualVector,
                        v2: SelfDualVector, order: int = 24) -> complex:
    """Pairing ``<Psi(v1) Psi(v2)>`` through the state's covariance kernel."""
    kernel, weight, kmax = _state_kernel_weight(state)

    def f(k):
        C = kernel(k)
        w1 = np.conj(v1.weight(k))
        w2 = v2.weight_conj_reflected(k)
        return weight(k) * np.einsum("ti,tij,tj->t", w1, C, w2)

    return complex(integrate(f, kmax, np.pi / 64.0, order,
                             max_width=_osc_width(v1.xi, v1.eta, v2.xi, v2.eta))
                   / (2.0 * np.pi))


def _scalar_two_point(state: QuasiFreeState, order: int):
    """The state's scalar two-point function ``(v1, v2, kind) -> complex``."""
    if state.kind == "lattice":
        return partial(lattice_two_point, state.couplings, order=order)
    if state.kind == "renormalized":
        return partial(renormalized_two_point, state.couplings, state.filt,
                       state.m, order=order)
    if state.kind == "critical_limit":
        return partial(limit_two_point, state.filt, order=order)
    return partial(massive_thermal_two_point, state.filt, mu0=state.mu0,
                   beta0=state.beta0, t=state.t, order=order)


def self_dual_two_point_expanded(state: QuasiFreeState, v1: SelfDualVector,
                                 v2: SelfDualVector, order: int = 24) -> complex:
    """Independent route: expand ``Psi = a(xi - i eta) + a*(conj(xi + i eta))``
    and sum the four scalar two-point integrals."""
    p1 = SiteVector.combine(v1.xi, v1.eta, 1.0, -1.0j)
    p2 = SiteVector.combine(v2.xi, v2.eta, 1.0, -1.0j)
    q1 = SiteVector.combine(v1.xi, v1.eta, 1.0, 1.0j).conj()
    q2 = SiteVector.combine(v2.xi, v2.eta, 1.0, 1.0j).conj()

    tp = _scalar_two_point(state, order)
    return (tp(p1, p2, "a_a") + tp(p1, q2, "a_adag")
            + tp(q1, p2, "adag_a") + tp(q1, q2, "adag_adag"))


# ---------------------------------------------------------------------------
# Pfaffians


@dataclass(frozen=True)
class SkewMatrix:
    """Exactly antisymmetric matrix of ordered pair expectations."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SkewMatrix must be square")
        if a.size and np.abs(a + a.T).max() != 0.0:
            raise ValueError("SkewMatrix must be exactly antisymmetric")
        object.__setattr__(self, "data", a)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def pfaffian_matchings(A) -> complex:
    """Pfaffian by the perfect-matching recursion (reference; exponential)."""
    a = A.data if isinstance(A, SkewMatrix) else np.asarray(A, dtype=complex)
    n = a.shape[0]
    if n > 12:
        raise ValueError("matching recursion limited to 12x12")
    if n % 2:
        return 0j
    if n == 0:
        return 1 + 0j

    def rec(idx: Tuple[int, ...]) -> complex:
        if not idx:
            return 1 + 0j
        i = idx[0]
        tot = 0j
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1:]
            tot += (-1) ** (pos - 1) * a[i, j] * rec(rest)
        return tot

    return rec(tuple(range(n)))


def pfaffian(A) -> complex:
    """Pfaffian by skew tridiagonalization with pivoting (O(n^3)).

    Matches the perfect-matching expansion with ``Pf([[0, a], [-a, 0]]) = a``;
    ``pfaffian(A)**2 == det(A)``.
    """
    a = A.data if isinstance(A, SkewMatrix) else np.asarray(A, dtype=complex)
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("pfaffian needs a square matrix")
    if n % 2:
        return 0j
    if n == 0:
        return 1 + 0j
    pf = 1 + 0j
    for k in range(0, n - 2, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        piv = a[k + 1, k]
        if piv == 0:
            return 0j
        pf *= a[k, k + 1]
        tau = a[k + 2:, k] / piv
        a[k + 2:, k + 2:] += np.outer(tau, a[k + 2:, k + 1]) \
            - np.outer(a[k + 2:, k + 1], tau)
    return pf * a[n - 2, n - 1]


def pair_matrix(state: QuasiFreeState, factors: Sequence[SelfDualVector],
                order: int = 24) -> SkewMatrix:
    """Skew matrix ``M[i, j] = <Psi(f_i) Psi(f_j)>`` for ``i < j``."""
    n = len(factors)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = self_dual_two_point(state, factors[i], factors[j], order)
            M[j, i] = -M[i, j]
    return SkewMatrix(M)


# ---------------------------------------------------------------------------
# spin correlations


def _string_factors(pairs: Sequence[Tuple[int, int]]):
    """Majorana factor list for ``prod s3_a s3_b`` over site pairs.

    Each pair contributes ``(a_l - a*_l)(a_{l+1} + a*_{l+1})`` for
    ``a <= l < b``; factors are tagged ("diff"/"sum", site).
    """
    factors = []
    for (sa, sb) in pairs:
        for l in range(sa, sb):
            factors.append(("diff", l))
            factors.append(("sum", l + 1))
    return factors


def _factor_vector(tag: str, site: int) -> SelfDualVector:
    if tag == "diff":
        return SelfDualVector.position_diff(site)
    return SelfDualVector.position_sum(site)


def _tagged_two_point(state: QuasiFreeState, tag1: str, s1: int, tag2: str,
                      s2: int, order: int) -> complex:
    """Pair expectation of two tagged string factors, cached on the state.

    Every state kind here is translation invariant, so the value depends on
    the sites only through ``s1 - s2``; each (tags, lag) integral is
    evaluated once per state instance and reused across string and Toeplitz
    evaluations.
    """
    key = (tag1, tag2, s1 - s2, order)
    cache = state._pair_cache
    if key not in cache:
        cache[key] = self_dual_two_point(
            state, _factor_vector(tag1, s1 - s2), _factor_vector(tag2, 0),
            order)
    return cache[key]


def spin_spin_correlation(state: QuasiFreeState, sites: Sequence[int],
                          order: int = 24) -> complex:
    """Longitudinal correlation ``<prod_i s3_{sites[i]}>``.

    An odd number of sites gives exactly 0 (spin-flip parity); repeated
    sites contract pairwise (``s3^2 = 1``).  The remaining even product is
    evaluated as a Pfaffian of pair expectations; translation invariance is
    used to evaluate each (type, lag) integral once.
    """
    sites = sorted(int(s) for s in sites)
    if len(sites) % 2:
        return 0j
    # contract repeated sites: keep odd-multiplicity sites only
    kept = []
    for s in sites:
        if kept and kept[-1] == s:
            kept.pop()
        else:
            kept.append(s)
    if not kept:
        return 1 + 0j
    pairs = [(kept[2 * i], kept[2 * i + 1]) for i in range(len(kept) // 2)]
    total = sum(b - a for (a, b) in pairs)
    if total > _MAX_STRING:
        raise ValueError(f"string length {total} exceeds {_MAX_STRING}")
    factors = _string_factors(pairs)

    def pair_value(i: int, j: int) -> complex:
        (tag1, s1), (tag2, s2) = factors[i], factors[j]
        return _tagged_two_point(state, tag1, s1, tag2, s2, order)

    n = len(factors)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = pair_value(i, j)
            M[j, i] = -M[i, j]
    return pfaffian(SkewMatrix(M))


@dataclass(frozen=True)
class ToeplitzSymbol:
    """Mixed-pair symbol values ``C3(s)`` for lags ``s`` in ``[-d, d-2]``.

    ``C3(s) = <(a_j - a*_j)(a_{j'} + a*_{j'})>`` at ``s = j - j'``.  The
    symbol is generally *asymmetric* in ``s``.
    """

    separation: int
    lags: Dict[int, complex] = field(repr=False)

    def matrix(self) -> np.ndarray:
        d = self.separation
        out = np.empty((d, d), dtype=complex)
        for r in range(d):
            for c in range(d):
                out[r, c] = self.lags[c - r - 1]
        return out


def toeplitz_symbol(state: QuasiFreeState, separation: int,
                    order: int = 24) -> ToeplitzSymbol:
    """Evaluate the mixed-pair symbol for a two-site correlation."""
    d = int(separation)
    if d < 1:
        raise ValueError("separation must be >= 1")
    lags = {}
    for s in range(-d, d - 1):
        lags[s] = _tagged_two_point(state, "diff", 0, "sum", -s, order)
    return ToeplitzSymbol(separation=d, lags=lags)


def toeplitz_correlation(state: QuasiFreeState, separation: int,
                         order: int = 24) -> complex:
    """Two-site correlation ``<s3_0 s3_d>`` as a Toeplitz determinant."""
    sym = toeplitz_symbol(state, separation, order)
    return complex(np.linalg.det(sym.matrix()))


def transverse_field_expectation(state: QuasiFreeState, site: int = 0,
                                 order: int = 24) -> float:
    """``<s1_j> = 2 <a*_j a_j> - 1`` (equals ``2/pi`` in the critical limit)."""
    dj = SiteVector.delta(site)
    val = _scalar_two_point(state, order)(dj, dj, "adag_a")
    return float(2.0 * np.real(val) - 1.0)
