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
string factors is one entry of the state's 2x2 lag table (built and cached
in :mod:`isingrg.rgflow`)

    P(s) = (1/2pi) Int e^{iks} W(k) C(k) dk,

with the state's covariance kernel ``C`` and spectral weight ``W``:
``a_j + a*_j`` sits in slot 0 with phase 1 and ``a_j - a*_j`` in slot 1
with phase ``-i``.  The direct quadrature of general doubled-space vectors,

    <Psi(v1) Psi(v2)> = (1/2pi) Int w1(k)^dag C(k) conj(w2(-k)) W(k) dk,

is the lag table's oracle; the four-term expansion into the scalar
two-point functions of :mod:`isingrg.rgflow`, which read the lag table,
cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Sequence, Tuple

import numpy as np

from ._quadrature import integrate
from .kernels import SelfDualVector, SiteVector
from .rgflow import (
    _FINEST,
    _ORDER,
    QuasiFreeState,
    _lag_matrix,
    _osc_width,
    _state_kernel_weight,
    _two_point,
)

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


def self_dual_two_point_expanded(state: QuasiFreeState, v1: SelfDualVector,
                                 v2: SelfDualVector) -> complex:
    """Expand ``Psi = a(xi - i eta) + a*(conj(xi + i eta))`` and sum the
    four scalar two-point functions, each read off the lag table."""
    p1 = SiteVector.combine(v1.xi, v1.eta, 1.0, -1.0j)
    p2 = SiteVector.combine(v2.xi, v2.eta, 1.0, -1.0j)
    q1 = SiteVector.combine(v1.xi, v1.eta, 1.0, 1.0j).conj()
    q2 = SiteVector.combine(v2.xi, v2.eta, 1.0, 1.0j).conj()

    tp = partial(_two_point, state)
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
