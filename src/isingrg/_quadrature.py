"""Deterministic composite Gauss-Legendre quadrature on dyadic panels.

All covariance integrands in this package share the same singularity
structure: a kink at the origin (|sin|, sign, or a sharp tanh transition),
dyadic break points from cascade products, and 2*pi-periodic oscillation
from lattice test vectors.  Panels therefore refine dyadically toward zero
and keep width <= pi outward; node order is fixed per call so results are
bit-reproducible (fixed evaluation and summation order).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def dyadic_edges(kmax: float, finest: float, max_width: float = np.pi) -> np.ndarray:
    """Increasing panel edges on (0, kmax]: dyadic refinement toward 0,
    panels of width <= ``max_width`` outward.

    ``finest`` sets the smallest edge (the first panel is [0, finest]).
    """
    if kmax <= 0:
        raise ValueError("kmax must be positive")
    if not (0 < max_width <= np.pi):
        raise ValueError("max_width must lie in (0, pi]")
    edges = [0.0]
    e = min(finest, max_width, kmax)
    while e < min(max_width, kmax):
        edges.append(e)
        e *= 2.0
    if kmax <= max_width:
        edges.append(kmax)
        return np.array(edges)
    edges.append(max_width)
    n_w = int(np.ceil(kmax / max_width - 1e-12))
    edges.extend(max_width * np.arange(2, n_w + 1))
    if edges[-1] < kmax - 1e-12:
        edges.append(kmax)
    else:
        edges[-1] = kmax
    return np.array(edges)


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights for consecutive panels of ``edges``."""
    x, w = _gl_rule(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * x[None, :] + 0.5 * (b + a)
    weights = 0.5 * (b - a) * np.broadcast_to(w, nodes.shape)
    return nodes.ravel(), weights.ravel()


def octave_nodes(j: int, order: int):
    """Nodes/weights on the octave ``[2^j pi, 2^(j+1) pi]``: panels of
    width about ``pi/2``, at least 8 and at most 4096 of them."""
    lo, hi = (2.0 ** j) * np.pi, (2.0 ** (j + 1)) * np.pi
    n_pan = min(4096, max(8, int((hi - lo) / (np.pi / 2.0))))
    return panel_nodes(np.linspace(lo, hi, n_pan + 1), order)


def symmetric_nodes(kmax: float, finest: float, order: int, max_width: float = np.pi):
    """Nodes/weights covering [-kmax, kmax], mirror-symmetric, origin excluded."""
    e = dyadic_edges(kmax, finest, max_width)
    xp, wp = panel_nodes(e, order)
    nodes = np.concatenate([-xp[::-1], xp])
    weights = np.concatenate([wp[::-1], wp])
    return nodes, weights


def symmetric_node_blocks(kmax: float, finest: float, order: int,
                          max_width: float, block: int):
    """The nodes/weights of :func:`symmetric_nodes` in blocks of at most
    ``block`` nodes: a run of panels on (0, kmax] and its mirror image."""
    e = dyadic_edges(kmax, finest, max_width)
    step = max(1, block // (2 * order))
    for i in range(0, len(e) - 1, step):
        xp, wp = panel_nodes(e[i:i + step + 1], order)
        yield np.concatenate([-xp, xp]), np.concatenate([wp, wp])


def integrate(f, kmax: float, finest: float, order: int = 20, symmetric: bool = True,
              max_width: float = np.pi):
    """Integrate a vectorized integrand over [-kmax, kmax] (or [0, kmax])."""
    if symmetric:
        x, w = symmetric_nodes(kmax, finest, order, max_width)
    else:
        x, w = panel_nodes(dyadic_edges(kmax, finest, max_width), order)
    return np.dot(w, f(x))

