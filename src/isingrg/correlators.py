"""Spin-spin correlators of quasi-free states via Pfaffians and Toeplitz
determinants.

The longitudinal spin product reduces to a string of Majorana-type factors,

    s3_j s3_j' = prod_{j <= l < j'} (a_l - a*_l)(a_{l+1} + a*_{l+1}),

so every even spin correlation is the Pfaffian of the skew matrix of ordered
pair expectations; odd products vanish by parity.  Two-site correlations
collapse further to a Toeplitz determinant of the mixed-pair symbol
``C3(s) = <(a_j - a*_j)(a_{j'} + a*_{j'})>`` at lag ``s = j - j'`` (the
symbol is *not* symmetric under ``s -> -s``).

Every state here is translation invariant, so each pair expectation of
string factors is one entry of the state's 2x2 lag table

    P(s) = (1/2pi) Int e^{iks} W(k) C(k) dk,

with the state's covariance kernel ``C`` and spectral weight ``W``:
``a_j + a*_j`` sits in slot 0 with phase 1 and ``a_j - a*_j`` in slot 1
with phase ``-i``.  General doubled-space vectors pair through

    <Psi(v1) Psi(v2)> = (1/2pi) Int w1(k)^dag C(k) conj(w2(-k)) W(k) dk,

the oracle for the lag table; an independent four-term expansion through
the scalar two-point integrals of :mod:`isingrg.rgflow` cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._quadrature import integrate, symmetric_nodes
from .kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
)
from .rgflow import (
    _FINEST,
    _ORDER,
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
    "pfaffian",
    "pfaffian_matchings",
    "spin_spin_correlation",
    "toeplitz_symbol",
    "toeplitz_correlation",
    "transverse_field_expectation",
]

_MAX_STRING = 64

# string-factor tag -> (lag-table slot, phase)
_SLOTS = {"sum": (0, 1.0), "diff": (1, -1.0j)}


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
    _lag_table: Dict[int, np.ndarray] = field(default_factory=dict, repr=False,
                                              compare=False)

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
                        v2: SelfDualVector) -> complex:
    """Pairing ``<Psi(v1) Psi(v2)>`` through the state's covariance kernel."""
    kernel, weight, kmax = _state_kernel_weight(state)

    def f(k):
        C = kernel(k)
        w1 = np.conj(v1.weight(k))
        w2 = v2.weight_conj_reflected(k)
        return weight(k) * np.einsum("ti,tij,tj->t", w1, C, w2)

    return complex(integrate(f, kmax, _FINEST, _ORDER,
                             max_width=_osc_width(v1.xi, v1.eta, v2.xi, v2.eta))
                   / (2.0 * np.pi))


def _scalar_two_point(state: QuasiFreeState):
    """The state's scalar two-point function ``(v1, v2, kind) -> complex``."""
    if state.kind == "lattice":
        return partial(lattice_two_point, state.couplings)
    if state.kind == "renormalized":
        return partial(renormalized_two_point, state.couplings, state.filt,
                       state.m)
    if state.kind == "critical_limit":
        return partial(limit_two_point, state.filt)
    return partial(massive_thermal_two_point, state.filt, mu0=state.mu0,
                   beta0=state.beta0, t=state.t)


def self_dual_two_point_expanded(state: QuasiFreeState, v1: SelfDualVector,
                                 v2: SelfDualVector) -> complex:
    """Independent route: expand ``Psi = a(xi - i eta) + a*(conj(xi + i eta))``
    and sum the four scalar two-point integrals."""
    p1 = SiteVector.combine(v1.xi, v1.eta, 1.0, -1.0j)
    p2 = SiteVector.combine(v2.xi, v2.eta, 1.0, -1.0j)
    q1 = SiteVector.combine(v1.xi, v1.eta, 1.0, 1.0j).conj()
    q2 = SiteVector.combine(v2.xi, v2.eta, 1.0, 1.0j).conj()

    tp = _scalar_two_point(state)
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


def _octave(s: int) -> int:
    """Lag octave: 0 for ``|s| <= 1``, else ``j`` with ``2^(j-1) < |s| <= 2^j``."""
    return max(0, abs(s) - 1).bit_length()


def _lag_matrix(state: QuasiFreeState, s: int) -> np.ndarray:
    """The lag table ``P(s) = (1/2pi) Int e^{iks} W(k) C(k) dk`` (2x2).

    The first lag asked for in an octave samples ``W C`` once, on the nodes
    whose panels resolve the octave's largest lag, and fills every lag of
    the octave, one row ``exp(iks) @ sym`` at a time; so a value never
    depends on which lags were asked for before.
    """
    table = state._lag_table
    if s not in table:
        j = _octave(s)
        top = 1 << j
        kernel, weight, kmax = _state_kernel_weight(state)
        x, w = symmetric_nodes(kmax, _FINEST, _ORDER,
                               _osc_width(SiteVector.delta(top)))
        sym = (w * weight(x) / (2.0 * np.pi))[:, None] * kernel(x).reshape(-1, 4)
        for lag in range(-top, top + 1):
            if _octave(lag) == j:
                table[lag] = (np.exp(1j * lag * x) @ sym).reshape(2, 2)
    return table[s]


def _tagged_two_point(state: QuasiFreeState, tag1: str, s1: int, tag2: str,
                      s2: int) -> complex:
    """Pair expectation of two tagged string factors, read off the lag table."""
    (a, p1), (b, p2) = _SLOTS[tag1], _SLOTS[tag2]
    return p1 * p2 * complex(_lag_matrix(state, s1 - s2)[a, b])


def spin_spin_correlation(state: QuasiFreeState, sites: Sequence[int]) -> complex:
    """Longitudinal correlation ``<prod_i s3_{sites[i]}>``.

    An odd number of sites gives exactly 0 (spin-flip parity); repeated
    sites contract pairwise (``s3^2 = 1``).  The remaining even product is
    evaluated as a Pfaffian of pair expectations, each read off the state's
    lag table.
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
    n = len(factors)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = _tagged_two_point(state, *factors[i], *factors[j])
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


def toeplitz_symbol(state: QuasiFreeState, separation: int) -> ToeplitzSymbol:
    """Evaluate the mixed-pair symbol for a two-site correlation."""
    d = int(separation)
    if d < 1:
        raise ValueError("separation must be >= 1")
    lags = {}
    for s in range(-d, d - 1):
        lags[s] = _tagged_two_point(state, "diff", 0, "sum", -s)
    return ToeplitzSymbol(separation=d, lags=lags)


def toeplitz_correlation(state: QuasiFreeState, separation: int) -> complex:
    """Two-site correlation ``<s3_0 s3_d>`` as a Toeplitz determinant."""
    sym = toeplitz_symbol(state, separation)
    return complex(np.linalg.det(sym.matrix()))


def transverse_field_expectation(state: QuasiFreeState, site: int = 0) -> float:
    """``<s1_j> = <(a_j + a*_j)(a_j - a*_j)>`` (``2/pi`` on the critical
    chain), the (sum, diff) entry of the lag table at lag 0."""
    return float(np.real(_tagged_two_point(state, "sum", site, "diff", site)))
