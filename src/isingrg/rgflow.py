"""Wavelet renormalization-group flow of quasi-free lattice states.

One coarse-graining step maps the fermion lattice algebra into itself along
the low-pass branch of a wavelet filter bank; ``m`` iterated steps pull the
Gibbs state back through the cascade.  Every state here is quasi-free and
translation invariant, so each two-point function of lattice-supported
vectors is a finite sum over the state's 2x2 lag table

    P(s) = (1/2pi) Int e^{iks} W(k) C(k) dk,

with ``C = kernels.covariance(z, beta)`` at the state's energy symbol and
the spectral weight ``W``.  The ``m``-times renormalized Gibbs state takes
``z(2^-m k)`` and ``W_m(k) = prod_{n=1..m} |m0(2^-n k)|^2`` on
``|k| < 2^m pi``; ``m = 0`` (``W_0 = 1``) is the lattice state.  One step
maps the depth-``m`` table to

    P_{m+1}(s) = sum_n a_n P_m(2s - n),    a_n = sum_i h_i h_{i+n},

the filter's transition operator ``T`` (W. Lawton, J. Math. Phys. 32
(1991) 57), so a renormalized table is ``T^m K`` with ``K`` the lattice
table: a closed form at the critical ground state, otherwise an inverse FFT
of the covariance symbol whose size is set by the symbol's analytic strip.
The massive/thermal scaling limit takes ``t(mu0 - i k)`` at ``beta0`` and
``|s^(k)|^2`` up to :func:`momentum_cutoff`; ``mu0 = 0, beta0 = inf`` is
the critical limit.  Its table is a Gauss-Legendre integral.
A doubled-space vector with site weights ``w_j = (xi_j, eta_j)`` pairs as

    <Psi(v1) Psi(v2)> = sum_{j,l} conj(w1_j)^T P(j - l) conj(w2_l),

and the scalar kinds take ``a(v) = Psi(from_annihilator(v))`` and
``a*(v) = Psi(from_creator(conj v))``; ``<s1_j> = 2 Re<a*_j a_j> - 1``, and
``<a(v) a*(v)> + <a*(v) a(v)> = ||v||^2`` is the isometry ``||R^m v|| =
||v||`` of the coarse-graining.  As ``m`` grows, ``W_m`` converges to
``|s^(k)|^2`` and the kernel to its scaling limit; the error decays like
``2^-m``.

Coupling trajectories are classified by ``1 - t3/t1``: positive flows to the
disorder fixed point, negative to the order fixed point, zero is critical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ._quadrature import (dyadic_edges, integrate, panel_nodes,
                          symmetric_node_blocks, symmetric_nodes)
from .kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    _check_limit_symbol,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
)
from .wavelet import Filter, cascade_product, s_hat

__all__ = [
    "MAX_DEPTH",
    "DISORDER_KERNEL",
    "ORDER_KERNEL",
    "QuasiFreeState",
    "TailReport",
    "FlowClassification",
    "momentum_cutoff",
    "renormalized_two_point",
    "limit_two_point",
    "massive_thermal_two_point",
    "calibrated_couplings",
    "classify_flow",
]

_KINDS = ("a_adag", "adag_adag", "a_a", "adag_a")
# QuasiFreeState fields each kind leaves unread (they must keep their defaults)
_UNREAD = {"renormalized": ("mu0", "beta0", "t"),
           "massive_thermal": ("couplings", "m")}

#: Deepest renormalized state: its lag table over ``|s| <= S`` applies ``T``
#: ``m`` times to the ``2^(m+1) (S + 2p - 1)`` lattice lags it reads (a cold
#: d8 separation-16 correlation at ``m = 16``: 0.3 s, 24 MB traced peak), so
#: deeper requests are refused up front.
MAX_DEPTH = 16

#: Fixed-point covariance kernels of the coupling flow (constant in momentum).
DISORDER_KERNEL = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
DISORDER_KERNEL.setflags(write=False)
ORDER_KERNEL = np.array([[1.0, -1.0j], [1.0j, 1.0]])
ORDER_KERNEL.setflags(write=False)

# Gauss-Legendre order and the innermost dyadic edge of every two-point
# integral (the panels refine toward the kink at the origin down to _FINEST)
_ORDER = 24
_FINEST = np.pi / 64.0
# entries per block when a table samples W C or streams lattice lags into
# the first T step (bounds the sample's memory)
_BLOCK = 1 << 15
# lattice lags: e-folds of the 1e-16 tail beyond which K is set to 0, and the
# largest inverse FFT of the covariance symbol
_K_TAIL = math.log(1e16)
_MAX_FFT = 1 << 22
# lattice lags per FFT window, sampled in quarters (bounds the memory of an
# inverse FFT of any size to about 3 MB)
_SUBGRID = 1 << 15
#: Fixed two-sided momentum window ``|k| <= 2^9 pi``: the scaling-limit
#: states are truncated inside it and every Sobolev norm integrates over it.
MOMENTUM_WINDOW = (2.0 ** 9) * math.pi
# momentum_cutoff: two-sided |s^|^2 tail target; largest autocorrelation
# defect of taps treated as orthonormal
_TAIL_TARGET = 1e-10
_ORTHONORMAL_TOL = 1e-12
# refined window levels: order-16 panels per cached block of 2^14 |s^| values
_LEVEL_PANELS = 1 << 10
# classify_flow: probed depths, half-width and points of the momentum window
_CLASSIFY_DEPTHS = (4, 8, 12)
_CLASSIFY_WINDOW = 0.125
_CLASSIFY_POINTS = 65


def _check_integer(value, lo: float, error: str) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least ``lo``,
    else ``ValueError(error)``: depths, separations and sites are never truncated."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real)
                                                    and float(value).is_integer())
    if isinstance(value, bool) or not (whole and value >= lo):
        raise ValueError(error)
    return int(value)


def _check_depth(m) -> int:
    """The depth ``m`` as an int: a non-negative integer up to ``MAX_DEPTH``
    (a depth-``m`` table applies ``T`` ``m`` times to about ``2^m`` lattice
    lags per lag)."""
    m = _check_integer(m, 0, "m must be a non-negative integer")
    if m > MAX_DEPTH:
        raise ValueError(f"m must be at most {MAX_DEPTH} (a depth-m table "
                         "applies T m times to about 2^m lattice lags per lag)")
    return m


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

    Two kinds: ``renormalized`` (the chain's Gibbs state coarse-grained
    ``m <= MAX_DEPTH`` times; ``m = 0``, the lattice state, keeps no filter)
    and ``massive_thermal`` (wavelet-smeared scaling limit; its ``mu0 = 0,
    beta0 = inf`` member, where the unread ``t`` is set to 1, is the critical
    limit).  A field the kind never reads (``mu0``, ``beta0`` and ``t`` of a
    renormalized state, ``couplings`` and ``m`` of a massive/thermal one)
    must keep its default.  States compare and hash by value, so equal
    states share lag-table entries.
    """

    kind: str
    couplings: Optional[Couplings] = None
    filt: Optional[Filter] = None
    m: int = 0
    mu0: float = 0.0
    beta0: float = float("inf")
    t: float = 1.0

    def __post_init__(self):
        if self.kind not in ("renormalized", "massive_thermal"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "m", _check_depth(self.m))
        for name in _UNREAD[self.kind]:
            if getattr(self, name) != self.__dataclass_fields__[name].default:
                raise ValueError(f"{self.kind} state does not read {name}; "
                                 "leave it at its default")
        if self.kind == "renormalized":
            if self.couplings is None:
                raise ValueError("renormalized state needs couplings")
            if self.m == 0:  # W_0 = 1: the lattice state reads no filter
                object.__setattr__(self, "filt", None)
            elif self.filt is None:
                raise ValueError("renormalized state at m > 0 needs a filter")
            return
        if self.filt is None:
            raise ValueError("massive_thermal state needs a filter")
        _check_limit_symbol(self.mu0, self.beta0, self.t)
        if math.isinf(self.beta0):
            object.__setattr__(self, "t", 1.0)

    @classmethod
    def lattice(cls, couplings: Couplings) -> "QuasiFreeState":
        return cls(kind="renormalized", couplings=couplings)

    @classmethod
    def renormalized(cls, couplings: Couplings, filt: Filter, m: int) -> "QuasiFreeState":
        return cls(kind="renormalized", couplings=couplings, filt=filt, m=m)

    @classmethod
    def critical_limit(cls, filt: Filter) -> "QuasiFreeState":
        return cls(kind="massive_thermal", filt=filt)

    @classmethod
    def massive_thermal(cls, filt: Filter, mu0: float, beta0: float,
                        t: float = 1.0) -> "QuasiFreeState":
        return cls(kind="massive_thermal", filt=filt, mu0=mu0, beta0=beta0, t=t)


def _state_kernel_weight(state: QuasiFreeState):
    """Return (kernel(k), weight(k), kmax) of the state's pairing integral."""
    if state.kind == "renormalized":
        c, f, m = state.couplings, state.filt, state.m
        scale = 2.0 ** m
        return (lambda k: covariance_lattice(c, k / scale),
                lambda k: np.abs(cascade_product(f, k, m)) ** 2, scale * np.pi)
    f, mu0, beta0, t = state.filt, state.mu0, state.beta0, state.t
    return (lambda k: covariance_massive_thermal(k, mu0, beta0, t),
            lambda k: np.abs(s_hat(f, k)) ** 2, momentum_cutoff(f).cutoff)


def _octave(s: int) -> int:
    """Lag octave: 0 for ``|s| <= 1``, else ``j`` with ``2^(j-1) < |s| <= 2^j``."""
    return max(0, abs(s) - 1).bit_length()


# ---------------------------------------------------------------------------
# renormalized tables: the transition operator applied to the lattice table
#
# The lattice table is [[d(n), i g(-n)], [-i g(n), d(n)]] with d = delta_{n0}
# and the real sequence g(n) = (1/2pi) Int e^{i theta n} p(theta) d theta,
# p = i C_10 = (z/|z|) tanh(beta |z|); T keeps that form, so a renormalized
# table carries the two real sequences T^m d and T^m g.


def _autocorrelation(filt: Filter) -> np.ndarray:
    """``a_n = sum_i h_i h_{i+n}`` for ``|n| <= 2p - 1``, exactly symmetric."""
    h = filt.taps
    half = np.array([np.dot(h[:h.size - n], h[n:]) for n in range(h.size)])
    return np.concatenate([half[:0:-1], half])


def _transition(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One step of ``T``: ``y[i] = sum_j a[j] x[2i + j]``.

    With ``x`` holding a sequence from lag ``2 s0 - q`` on (``a`` symmetric,
    ``a.size = 2q + 1``), ``y`` holds ``(T x)(s) = sum_n a_n x(2s - n)`` from
    ``s0`` on, for every ``s`` whose inputs lie in ``x``.  Each entry sums the
    same terms in the same order whatever the array's extent.
    """
    n = (x.size - a.size) // 2 + 1
    y = np.zeros(n)
    tmp = np.empty(n)
    for j, aj in enumerate(a):
        y += np.multiply(x[j:j + 2 * n - 1:2], aj, out=tmp)
    return y


def _decay_rate(c: Couplings) -> float:
    """Decay rate of the lattice lags, ``|g(n)| ~ exp(-rate |n|)``: the
    half-width of the covariance symbol's analytic strip,
    ``acosh((t1^2 + t3^2 + (pi/2 beta)^2) / (2 t1 t3))``.  At ``beta = inf``
    it is ``|log(t3/t1)|`` (a branch point of ``z/|z|``); at finite ``beta``
    the nearest singularity is the first pole of ``tanh(beta |z|)``."""
    r = c.t3 / c.t1
    if r == 0.0:  # z = t1: g is supported on n = 0
        return math.inf
    q = 0.0 if math.isinf(c.beta) else math.pi / (2.0 * c.beta * c.t1)
    d = ((1.0 - r) ** 2 + q * q) / (2.0 * r)
    return math.log1p(d + math.sqrt(d * (d + 2.0)))


def _critical_lags(lo: int, hi: int) -> np.ndarray:
    """``g(n) = 2 / (pi (2n + 1))`` of the critical ground state, ``lo <= n <= hi``."""
    return 2.0 / (np.pi * (2.0 * np.arange(lo, hi + 1) + 1.0))


def _symbol_p(c: Couplings, theta: np.ndarray) -> np.ndarray:
    """``p = i C_10`` of the lattice covariance at ``theta``."""
    return 1j * covariance_lattice(c, theta)[..., 1, 0]


def _fft_grid(c: Couplings) -> Tuple[int, int, bool]:
    """``(N, L, near_critical)`` of the lattice sequence's inverse FFT.

    ``N`` comes from the decay rate alone, never from the lags requested:
    the smallest power of two past twice the 1e-16 tail ``L``, at most
    ``_MAX_FFT`` (then ``L = N/2 - 1``).  ``near_critical``: even that grid
    leaves ``exp(-rate N)`` above 1e-16.
    """
    rate = _decay_rate(c)
    tail = math.ceil(_K_TAIL / rate) if rate * _MAX_FFT > _K_TAIL else _MAX_FFT
    n = min(_MAX_FFT, max(64, 1 << (2 * tail + 1).bit_length()))
    return n, min(tail, n // 2 - 1), rate * n < _K_TAIL


@lru_cache(maxsize=8)
def _fft_window(c: Couplings, w: int) -> np.ndarray:
    """``g(n)`` for ``n`` in window ``w``, ``|n - wM| <= M/2`` (``M`` =
    ``min(N, _SUBGRID)`` lags, right end open), 0 beyond the tail ``L``;
    read-only, cached by couplings and window (8 windows, at most 2 MB).

    The ``N``-point inverse DFT ``g(n) = (1/N) sum_j p(2 pi j/N) e^{2 pi i jn/N}``
    is folded into ``F = N/M`` sub-grids ``j = F j1 + j2``: each is one
    ``M``-point inverse FFT times ``e^{2 pi i j2 n/N}``, and sub-grids
    ``j2`` and ``F - j2`` are complex conjugates (``p(-theta) =
    conj p(theta)``), so ``F/2 + 1`` of them are transformed.  A window
    holds ``O(M)`` memory whatever ``N`` is.  Near criticality ``p`` minus
    the critical symbol is transformed and the closed form added back; the
    ``theta = 0`` sample then carries its grid cell's average (of the real
    part: the imaginary part is odd), since the remaining peak there is
    narrower than a cell.
    """
    n, tail, near_critical = _fft_grid(c)
    m = min(n, _SUBGRID)
    f = n // m
    lags = w * m + np.arange(-(m // 2), m - m // 2)
    critical = Couplings.critical()
    g = np.zeros(m)
    p = np.empty(m, dtype=complex)
    for j2 in range(f // 2 + 1):
        for lo in range(0, m, _SUBGRID // 4):
            theta = (2.0 * np.pi / n) * (f * np.arange(lo, min(lo + _SUBGRID // 4, m)) + j2)
            p[lo:lo + theta.size] = _symbol_p(c, theta)
            if near_critical:
                p[lo:lo + theta.size] -= _symbol_p(critical, theta)
        if near_critical and j2 == 0:
            h = 2.0 * np.pi / n
            p[0] = integrate(lambda x: (_symbol_p(c, x) - _symbol_p(critical, x)).real,
                             h / 2.0, h * 2.0 ** -40, _ORDER) / h
        term = np.fft.ifft(p)[lags % m]
        term *= np.exp((2j * np.pi * j2 / n) * lags)
        g += (1.0 if j2 in (0, f / 2) else 2.0) * term.real
    g /= f
    if near_critical:
        g += _critical_lags(int(lags[0]), int(lags[-1]))
    g[np.abs(lags) > tail] = 0.0
    g.setflags(write=False)
    return g


def _lattice_lags(c: Couplings):
    """``lags(lo, hi)``: the lattice sequence ``g(n)`` for ``lo <= n <= hi``,
    0 beyond its 1e-16 tail; a closed form at the critical ground state,
    else assembled from the cached FFT windows."""
    if c.t1 == c.t3 and math.isinf(c.beta):
        return _critical_lags
    n, tail, _ = _fft_grid(c)
    m = min(n, _SUBGRID)

    def lags(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo + 1)
        lo_in, hi_in = max(lo, -tail), min(hi, tail)
        if lo_in > hi_in:
            return out
        for w in range((lo_in + m // 2) // m, (hi_in + m // 2) // m + 1):
            start = w * m - m // 2  # the window's first lag
            a, b = max(lo_in, start), min(hi_in, start + m - 1)
            out[a - lo:b - lo + 1] = _fft_window(c, w)[a - start:b - start + 1]
        return out

    return lags


def _renormalized_lags(state: QuasiFreeState, top: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(T^m d, T^m g)`` for ``|s| <= top``.

    ``T^m g`` needs the lattice lags ``|n| <= 2^m (top + q) - q``,
    ``q = 2p - 1``; they are generated block by block into the first step.
    ``d = delta`` keeps its support in ``|n| <= q`` under ``T``.
    """
    lags = _lattice_lags(state.couplings)
    d = np.zeros(2 * top + 1)
    d[top] = 1.0
    if state.m == 0:
        return d, lags(-top, top)
    a = _autocorrelation(state.filt)
    q = a.size // 2
    reach = (top + q) * 2 ** (state.m - 1) - q  # half-width after one step
    g = np.empty(2 * reach + 1)
    for lo in range(0, g.size, _BLOCK):
        hi = min(lo + _BLOCK, g.size) - 1
        g[lo:hi + 1] = _transition(a, lags(2 * (lo - reach) - q, 2 * (hi - reach) + q))
    for _ in range(state.m - 1):
        g = _transition(a, g)
    diag = np.zeros(6 * q + 1)
    diag[3 * q] = 1.0
    for _ in range(state.m):
        diag[2 * q:4 * q + 1] = _transition(a, diag)  # support stays in |n| <= q
    w = min(top, q)
    d[top - w:top + w + 1] = diag[3 * q - w:3 * q + w + 1]
    return d, g


@lru_cache(maxsize=256)
def _lag_octave(state: QuasiFreeState, j: int) -> Mapping[int, np.ndarray]:
    """Every lag of octave ``j`` of the lag table: a read-only mapping of
    read-only 2x2 arrays, shared by every caller.

    A renormalized state reads ``T^m`` of its lattice table over
    ``|s| <= 2^j``.  A massive/thermal state samples ``W C`` once, on the
    nodes whose panels resolve the octave's largest lag, in blocks of at
    most ``_BLOCK`` nodes; each lag is summed as rows ``exp(iks) @ sym``
    block by block.  Either way a value never depends on which lags were
    asked for before.  Cached by state value and octave.
    """
    top = 1 << j
    lags = [s for s in range(-top, top + 1) if _octave(s) == j]
    table = np.zeros((len(lags), 4), dtype=complex)
    if state.kind == "renormalized":
        d, g = _renormalized_lags(state, top)
        for r, s in enumerate(lags):
            table[r] = d[top + s], 1j * g[top - s], -1j * g[top + s], d[top + s]
    else:
        kernel, weight, kmax = _state_kernel_weight(state)
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

    Its lag table, the integral over ``[-2^m pi, 2^m pi]`` with the cascade
    weight ``W_m(k) = |prod_{n=1..m} m0(2^-n k)|^2``, is built as ``T^m K``
    from the lattice table ``K``.

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


# ---------------------------------------------------------------------------
# the window sample of |s^| and the momentum cutoff


@lru_cache(maxsize=1)
def _window_nodes() -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on ``|k| <= MOMENTUM_WINDOW``.

    Order 16 on panels refined dyadically down to ``pi/64`` and ``pi/2``
    wide outward, so every ``2^j pi`` is a panel edge; the nodes increase
    and are mirror-symmetric.  They do not depend on the filter.
    """
    k, w = symmetric_nodes(MOMENTUM_WINDOW, np.pi / 64.0, 16, max_width=np.pi / 2.0)
    k.setflags(write=False)
    w.setflags(write=False)
    return k, w


@lru_cache(maxsize=32)
def _window_abs_s_hat(filt: Filter) -> np.ndarray:
    """``|s^(k)|`` on :func:`_window_nodes`: one read-only sample per filter
    value, read by every window integral that depends only on the filter."""
    a = np.abs(s_hat(filt, _window_nodes()[0]))
    a.setflags(write=False)
    return a


def _level_edges(level: int, kmax: float = MOMENTUM_WINDOW) -> np.ndarray:
    """Edges on ``[0, kmax]`` of :func:`_window_nodes`' panels halved ``level`` times."""
    return dyadic_edges(kmax, np.pi / 2.0 ** (6 + level), np.pi / 2.0 ** (1 + level))


def _window_level_blocks(filt: Filter, level: int, kmax: float = MOMENTUM_WINDOW):
    """Positive nodes, weights and ``|s^|`` of window level ``level`` on
    ``(0, kmax]`` in blocks of ``_LEVEL_PANELS`` order-16 panels; at ``kmax =
    2^i pi`` they are a prefix of the window's.  Level 0 slices
    :func:`_window_abs_s_hat`; a finer level reads one cached sample per block
    (the mirror ``-k`` is bit-identical)."""
    edges = _level_edges(level, kmax)
    for b, lo in enumerate(range(0, edges.size - 1, _LEVEL_PANELS)):
        k, w = panel_nodes(edges[lo:lo + _LEVEL_PANELS + 1], 16)
        a = (_window_abs_s_hat(filt)[_window_nodes()[0].size // 2 + 16 * lo:]
             if level == 0 else _refined_abs_s_hat(filt, level, b))
        yield k, w, a[:k.size]


@lru_cache(maxsize=128)  # a t0 in [0, 1] sweep on d4, d6 and d8 reads 102
def _refined_abs_s_hat(filt: Filter, level: int, block: int) -> np.ndarray:
    """Read-only ``|s^|`` on block ``block`` of window level ``level >= 1``."""
    edges = _level_edges(level)[block * _LEVEL_PANELS:(block + 1) * _LEVEL_PANELS + 1]
    a = np.abs(s_hat(filt, panel_nodes(edges, 16)[0]))
    a.setflags(write=False)
    return a


def _window_octaves(density: np.ndarray) -> np.ndarray:
    """``Int density dk`` over ``[0, pi]`` and then over each octave
    ``[2^j pi, 2^(j+1) pi]``, ``j = 0..8``, of the window sample."""
    k, w = _window_nodes()
    half = k.size // 2
    edges = np.searchsorted(k[half:], np.pi * 2.0 ** np.arange(9))
    return np.add.reduceat(w[half:] * density[half:], np.concatenate([[0], edges]))


@dataclass(frozen=True)
class TailReport:
    """Truncation domain for scaling-limit integrals.

    ``cutoff`` is the smallest ``2^j pi`` (``1 <= j <= 9``) whose two-sided
    spectral tail ``1 - (1/2pi) Int_{|k| < cutoff} |s^|^2`` is at most
    ``target``; otherwise it is the window ``2^9 pi``, ``met`` is False and
    ``tail`` is the tail there (``inf`` for taps that are not orthonormal).
    ``octave_masses[j]`` is ``(1/pi) Int |s^|^2`` over ``[2^j pi, 2^(j+1) pi]``
    for ``j = 0..8``.
    """

    cutoff: float
    tail: float
    target: float
    met: bool
    octave_masses: Tuple[float, ...]


@lru_cache(maxsize=64)
def momentum_cutoff(filt: Filter) -> TailReport:
    """Choose the |k|-cutoff for limit-state quadrature from the |s^|^2 tail.

    Orthonormal taps have ``sum_n |s^(k + 2 pi n)|^2 = 1``, so
    ``(1/2pi) Int |s^|^2 = 1`` and the tail beyond a cutoff is one minus the
    mass inside it, read off the window sample.  Taps whose even
    autocorrelation differs from ``delta_{n0}`` by more than ``1e-12`` have
    no such identity: their report keeps the window with ``tail = inf``.
    Cached per filter contents (equal filters share an entry).
    """
    sums = _window_octaves(_window_abs_s_hat(filt) ** 2 / np.pi)
    tails = 1.0 - np.cumsum(sums)  # tails[j]: the tail beyond 2^j pi
    defect = np.correlate(filt.taps, filt.taps, "full")[filt.taps.size - 1::2]
    defect[0] -= 1.0  # even autocorrelation minus delta_{n0}
    if np.max(np.abs(defect)) > _ORTHONORMAL_TOL:
        tails[:] = math.inf
    j = next((j for j in range(1, 10) if tails[j] <= _TAIL_TARGET), 9)
    return TailReport(cutoff=(2.0 ** j) * np.pi, tail=float(tails[j]),
                      target=_TAIL_TARGET, met=bool(tails[j] <= _TAIL_TARGET),
                      octave_masses=tuple(float(x) for x in sums[1:]))


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


# ---------------------------------------------------------------------------
# coupling-flow classification and calibrated massive flow


def calibrated_couplings(t: float, mu0: float, beta0: float, m: int) -> Couplings:
    """Couplings whose ``m``-step flow approaches the (mu0, beta0) limit state.

    The bond coupling is detuned by ``2^-m mu0`` and the inverse temperature
    scaled by ``2^m`` so that ``2^m z(2^-m k) -> t (mu0 - i k)`` and
    ``beta |z| -> beta0 t omega(k)``.
    """
    scale = 2.0 ** _check_depth(m)
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


def classify_flow(c: Couplings) -> FlowClassification:
    """Classify the coupling flow and measure convergence to its fixed point.

    The flowed covariance at steps ``m = 4, 8, 12`` is the Gibbs kernel
    evaluated at ``2^-m k``; it is compared on ``|k| <= 0.125`` against the
    constant disorder/order kernel (or the critical limit kernel when
    ``t1 = t3``).
    """
    lam = c.flow_parameter
    window = _CLASSIFY_WINDOW
    k = np.linspace(-window, window, _CLASSIFY_POINTS)
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
    for m in _CLASSIFY_DEPTHS:
        flowed = covariance_lattice(c, (2.0 ** -m) * k)
        distances[m] = float(np.abs(flowed - target).max())
    return FlowClassification(label=label, distances=distances, window=window)
