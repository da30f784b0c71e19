"""Orthonormal (Daubechies) filter banks and scaling-function transforms.

The renormalization maps in this package are built from a compactly
supported orthonormal scaling filter ``h`` and its conjugate mirror
filter ``g``.  Filters are *derived*, not hard-coded: the squared
low-pass symbol is factored with 50-digit arithmetic (spectral
factorization of the Daubechies polynomial) and rounded once to float64.

Conventions
-----------
* ``h`` has ``2p`` taps ``h_0 .. h_{2p-1}`` with ``sum h = sqrt(2)``.
* low-pass symbol ``m0(theta) = 2^{-1/2} sum_n h_n exp(-i n theta)``.
* high-pass taps ``g_n = (-1)^n h_{2p+1-n}`` supported on ``n in [2, 2p+1]``.
* scaling-function Fourier transform ``s_hat(k) = prod_{n>=1} m0(2^{-n} k)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "Filter",
    "HighPassFilter",
    "make_daubechies_filter",
    "high_pass",
    "m0",
    "cascade_product",
    "s_hat",
    "export_csv",
]

_TRUNCATION_EPS = 1e-8  # remaining arguments 2^{-n} k below this are Taylor-padded


@dataclass(frozen=True, eq=False)
class Filter:
    """A compactly supported orthonormal scaling (low-pass) filter.

    Parameters
    ----------
    name : str
        Identifier, e.g. ``"db2"``.
    order : int
        Number of vanishing moments ``p``; the filter has ``2p`` taps.
    taps : numpy.ndarray
        Coefficients ``h_0 .. h_{2p-1}``, summing to ``sqrt(2)``.  The filter
        keeps a read-only copy, so caches keyed on the filter cannot go stale.
    """

    name: str
    order: int
    taps: np.ndarray = field(repr=False)

    def __post_init__(self):
        taps = np.array(self.taps, dtype=float)  # a copy: the caller's array stays writable
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        if self.taps.ndim != 1 or self.taps.size != 2 * self.order:
            raise ValueError(
                f"filter {self.name!r}: expected {2 * self.order} taps, got {self.taps.size}"
            )

    def __len__(self):
        return self.taps.size


@dataclass(frozen=True, eq=False)
class HighPassFilter:
    """Conjugate mirror filter ``g_n = (-1)^n h_{2p+1-n}``.

    ``taps[i]`` is ``g_{support_offset + i}``; the support starts at
    ``n = 2`` for every order.
    """

    name: str
    taps: np.ndarray = field(repr=False)
    support_offset: int = 2

    def __len__(self):
        return self.taps.size


@lru_cache(maxsize=None)
def _daubechies_taps(p: int) -> tuple:
    """Spectral factorization of the Daubechies polynomial at 50 digits.

    ``|m0|^2 = cos^{2p}(theta/2) P(sin^2(theta/2))`` with
    ``P(y) = sum_{j<p} C(p-1+j, j) y^j``.  Each root ``y_i`` of ``P`` lifts
    to a quadratic ``z^2 - (2-4y_i) z + 1`` whose inside-the-disc root is
    kept; the tap order is then reversed to the conventional (published)
    orientation.
    """
    import mpmath as mp

    if p == 1:
        r = 1 / np.sqrt(2.0)
        return (r, r)
    with mp.workdps(50):
        coeffs = [mp.mpf(comb(p - 1 + j, j)) for j in range(p - 1, -1, -1)]
        roots_y = mp.polyroots(coeffs, maxsteps=200, extraprec=120)
        inner = []
        for y in roots_y:
            b = 2 - 4 * y
            disc = mp.sqrt(b * b - 4)
            for z in ((b + disc) / 2, (b - disc) / 2):
                if abs(z) < 1:
                    inner.append(z)
                    break
        if len(inner) != p - 1:
            raise RuntimeError(f"spectral factorization failed for p={p}")
        # polynomial ((1+z)/2)^p * prod (z - z_i), coefficient list low->high
        poly = [mp.mpf(1)]
        for _ in range(p):
            poly = [
                (poly[i] if i < len(poly) else 0) / 2
                + (poly[i - 1] if i >= 1 else 0) / 2
                for i in range(len(poly) + 1)
            ]
        for z_i in inner:
            poly = [
                (-z_i) * (poly[i] if i < len(poly) else 0)
                + (poly[i - 1] if i >= 1 else 0)
                for i in range(len(poly) + 1)
            ]
        total = sum(poly)
        taps = [mp.sqrt(2) * c / total for c in poly]
        taps = [complex(t).real for t in reversed(taps)]
    return tuple(float(t) for t in taps)


def make_daubechies_filter(p: int) -> Filter:
    """Build the order-``p`` Daubechies scaling filter (``2p`` taps).

    Parameters
    ----------
    p : int
        Vanishing moments, ``1 <= p <= 10``; ``p=1`` is the Haar filter.

    Returns
    -------
    Filter
    """
    if not isinstance(p, (int, np.integer)) or not 1 <= p <= 10:
        raise ValueError(f"supported Daubechies orders are p=1..10, got {p!r}")
    return Filter(name=f"db{p}", order=int(p), taps=np.array(_daubechies_taps(int(p))))


def high_pass(filt: Filter) -> HighPassFilter:
    """Conjugate mirror filter of ``filt``: ``g_n = (-1)^n h_{2p+1-n}``."""
    h = filt.taps
    two_p = h.size
    n = np.arange(2, two_p + 2)
    g = ((-1.0) ** n) * h[two_p + 1 - n]
    return HighPassFilter(name=filt.name, taps=g, support_offset=2)


def m0(filt: Filter, theta) -> np.ndarray:
    """Low-pass symbol ``m0(theta) = 2^{-1/2} sum_n h_n e^{-i n theta}``.

    Evaluated by Horner's rule in ``z = e^{-i theta}``: one complex
    exponential per node.
    """
    z = np.exp(-1j * np.asarray(theta, dtype=float))
    h = filt.taps
    out = np.full(z.shape, h[-1], dtype=complex)
    for tap in h[-2::-1]:
        out *= z
        out += tap
    return out / np.sqrt(2.0)


def cascade_product(filt: Filter, k, m: int) -> np.ndarray:
    """Finite cascade ``prod_{n=1}^{m} m0(2^{-n} k)`` (complex)."""
    k = np.asarray(k, dtype=float)
    out = np.ones(k.shape, dtype=complex)
    for n in range(1, m + 1):
        out *= m0(filt, k / 2.0**n)
    return out


def _m0_prime0(filt: Filter) -> complex:
    n = np.arange(filt.taps.size)
    return -1j * np.sum(n * filt.taps) / np.sqrt(2.0)


def s_hat(filt: Filter, k) -> np.ndarray:
    """Scaling-function Fourier transform ``prod_{n>=1} m0(2^{-n} k)``.

    The infinite product is cut once the remaining arguments satisfy
    ``2^{-P} |k| < 1e-8`` and the tail is padded with its first-order
    Taylor factor ``1 + m0'(0) 2^{-P} k``; the result is stable to better
    than 1e-8 against deeper truncation.

    Parameters
    ----------
    filt : Filter
    k : array_like
        Real frequencies (any shape).

    Returns
    -------
    numpy.ndarray
        Complex values of the transform, same shape as ``k``.
    """
    k = np.asarray(k, dtype=float)
    kmax = float(np.max(np.abs(k))) if k.size else 0.0
    depth = 1 if kmax == 0.0 else max(1, int(np.ceil(np.log2(kmax / _TRUNCATION_EPS))))
    out = cascade_product(filt, k, depth)
    out *= 1.0 + _m0_prime0(filt) * (k / 2.0**depth)
    return out


def export_csv(filt: Filter, path) -> None:
    """Write taps as CSV with columns ``n, h_n, g_n``.

    The two filters have staggered supports (``h`` on ``0..2p-1``, ``g`` on
    ``2..2p+1``); rows cover the union with zeros outside each support.
    """
    g = high_pass(filt)
    rows = []
    for n in range(0, 2 * filt.order + 2):
        hv = filt.taps[n] if n < filt.taps.size else 0.0
        gv = g.taps[n - g.support_offset] if 0 <= n - g.support_offset < g.taps.size else 0.0
        rows.append((n, repr(float(hv)), repr(float(gv))))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "h_n", "g_n"])
        writer.writerows(rows)
