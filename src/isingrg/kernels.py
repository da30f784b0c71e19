"""Quasi-free covariance kernels for the fermionic Ising chain.

Momentum-space two-point data of the lattice Gibbs states and their scaling
limits, all as functions of one complex energy symbol ``z``.  On the lattice
``z(theta) = t1 - t3*exp(i*theta)`` (``t1`` transverse-field coupling, ``t3``
bond coupling); in the scaling limit ``z = t*(mu0 - i*k)``, the limit of
``2^m z(2^-m k)`` along :func:`isingrg.rgflow.calibrated_couplings`.  The
one-particle Hamiltonian on the doubled (self-dual) space is

    h(z) = 2 * [[0, -i*conj(z)], [i*z, 0]],

with eigenvalues ``+-2|z|``.  Two closed forms serve every symbol: the Gibbs
covariance

    covariance(z, beta) = 2 * (exp(beta*h(z)) + 1)^(-1)
                        = [[1, i*conj(z)/|z| * T], [-i*z/|z| * T, 1]],

``T = tanh(beta*|z|)``, Hermitian with eigenvalues ``1 +- T`` in ``[0, 2]``,
and the time evolution

    propagator(z, tau) = exp(i*tau*h(z))
                       = cos(2 tau|z|) I + i sin(2 tau|z|) h(z)/(2|z|).

At the removable zero ``|z| = 0`` (and ``k = 0`` of the critical limit) the
off-diagonal covariance is 0, matching ``sign(0) = 0``.

Two-point functions of a state pair doubled-space weights through its
covariance kernel; :mod:`isingrg.rgflow` reads them all off one lag table
per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "SiteVector",
    "SelfDualVector",
    "Couplings",
    "z_theta",
    "one_particle_h",
    "covariance",
    "propagator",
    "covariance_lattice",
    "gibbs_covariance",
    "covariance_critical_limit",
    "covariance_massive_thermal",
]

_EPS_Z = 1e-300  # |z| at or below this is an exact removable zero


@dataclass(frozen=True)
class SiteVector:
    """Finitely supported complex sequence on the integer lattice.

    ``values[j]`` sits at site ``start + j``.

    Parameters
    ----------
    values : tuple of complex
        Amplitudes at consecutive sites.
    start : int
        Site index of ``values[0]``.
    """

    values: Tuple[complex, ...]
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if not self.values:
            raise ValueError("SiteVector needs at least one amplitude")

    @classmethod
    def delta(cls, site: int) -> "SiteVector":
        """Unit point mass at ``site``."""
        return cls((1.0 + 0.0j,), site)

    @property
    def sites(self) -> np.ndarray:
        return self.start + np.arange(len(self.values))

    def hat(self, theta) -> np.ndarray:
        """Fourier transform ``sum_j v_j exp(-i*theta*j)`` (vectorized)."""
        th = np.asarray(theta, dtype=float)
        phases = np.exp(-1j * np.multiply.outer(th, self.sites))
        return phases @ np.asarray(self.values, dtype=complex)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(np.asarray(self.values)) ** 2))

    def conj(self) -> "SiteVector":
        return SiteVector(tuple(np.conj(self.values)), self.start)

    def scaled(self, factor: complex) -> "SiteVector":
        return SiteVector(tuple(factor * v for v in self.values), self.start)

    @staticmethod
    def combine(v: "SiteVector", w: "SiteVector", cv: complex = 1.0,
                cw: complex = 1.0) -> "SiteVector":
        """Pointwise ``cv*v + cw*w`` on the union support."""
        lo = min(v.start, w.start)
        hi = max(v.start + len(v.values), w.start + len(w.values))
        out = np.zeros(hi - lo, dtype=complex)
        out[v.start - lo:v.start - lo + len(v.values)] += cv * np.asarray(v.values)
        out[w.start - lo:w.start - lo + len(w.values)] += cw * np.asarray(w.values)
        return SiteVector(tuple(out), lo)

    @classmethod
    def zero(cls) -> "SiteVector":
        return cls((0.0 + 0.0j,), 0)


@dataclass(frozen=True)
class SelfDualVector:
    """Element ``(xi, eta)`` of the doubled one-particle space.

    The attached field operator is ``Psi(xi, eta) = a(xi - i*eta) +
    a*(conj(xi + i*eta))``; the doubled-space momentum weight is
    ``w(k) = (xi^(k), eta^(k))``.  Two-point functions are the sesquilinear
    pairing of these weights through a covariance kernel (see
    :mod:`isingrg.correlators`).
    """

    xi: SiteVector
    eta: SiteVector

    @classmethod
    def from_annihilator(cls, xi: SiteVector) -> "SelfDualVector":
        """Vector with ``Psi(v) = a(xi)``: ``(xi/2, i*xi/2)``."""
        return cls(xi.scaled(0.5), xi.scaled(0.5j))

    @classmethod
    def from_creator(cls, eta: SiteVector) -> "SelfDualVector":
        """Vector with ``Psi(v) = a*(conj(eta))``: ``(eta/2, -i*eta/2)``."""
        return cls(eta.scaled(0.5), eta.scaled(-0.5j))

    @classmethod
    def position_sum(cls, site: int) -> "SelfDualVector":
        """``a_j + a*_j`` (real Majorana component at ``site``)."""
        return cls(SiteVector.delta(site), SiteVector.zero())

    @classmethod
    def position_diff(cls, site: int) -> "SelfDualVector":
        """``a_j - a*_j`` (imaginary Majorana component at ``site``)."""
        return cls(SiteVector.zero(), SiteVector.delta(site).scaled(1j))

    def weight(self, k) -> np.ndarray:
        """Stacked momentum weight, shape ``(..., 2)``."""
        return np.stack([self.xi.hat(k), self.eta.hat(k)], axis=-1)

    def weight_conj_reflected(self, k) -> np.ndarray:
        """Weight of the conjugated sequences: ``conj(w(-k))``."""
        return np.stack(
            [np.conj(self.xi.hat(-np.asarray(k, float))),
             np.conj(self.eta.hat(-np.asarray(k, float)))],
            axis=-1,
        )


@dataclass(frozen=True)
class Couplings:
    """Transverse-field / bond couplings and inverse temperature.

    Finite ``t1 > 0`` and ``t3 >= 0``, ``beta`` in ``(0, inf]`` (``math.inf``
    for the ground state).  ``flow_parameter`` is ``1 - t3/t1``: positive
    values flow to the disorder fixed point, negative to the order fixed
    point, zero is critical.
    """

    t1: float
    t3: float
    beta: float = math.inf

    def __post_init__(self):
        if not (0 < self.t1 < math.inf):
            raise ValueError("t1 must be positive and finite")
        if not (0 <= self.t3 < math.inf):
            raise ValueError("t3 must be non-negative and finite")
        if not (self.beta > 0):
            raise ValueError("beta must be positive (math.inf allowed)")

    @property
    def flow_parameter(self) -> float:
        return 1.0 - self.t3 / self.t1

    @classmethod
    def critical(cls, t: float = 1.0) -> "Couplings":
        return cls(t1=t, t3=t)


def z_theta(c: Couplings, theta) -> np.ndarray:
    """Complex energy symbol ``t1 - t3*exp(i*theta)``."""
    th = np.asarray(theta, dtype=float)
    return c.t1 - c.t3 * np.exp(1j * th)


def _blocks(diag, upper, lower) -> np.ndarray:
    """2x2 matrices ``[[diag, upper], [lower, diag]]``, shape ``(..., 2, 2)``."""
    out = np.empty(np.shape(lower) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = diag
    out[..., 0, 1] = upper
    out[..., 1, 0] = lower
    return out


def one_particle_h(c: Couplings, theta) -> np.ndarray:
    """Doubled-space one-particle Hamiltonian, shape ``(..., 2, 2)``."""
    z = np.asarray(z_theta(c, theta))
    return _blocks(0.0, -2j * np.conj(z), 2j * z)


def covariance(z, beta: float) -> np.ndarray:
    """Gibbs covariance ``2*(exp(beta*h(z))+1)^(-1)`` at the energy symbol ``z``.

    ``[[1, i*conj(p)], [-i*p, 1]]`` with ``p = (z/|z|)*tanh(beta*|z|)`` and
    ``p = 0`` at the removable zero ``|z| <= _EPS_Z``; shape ``(..., 2, 2)``,
    Hermitian, eigenvalues ``1 +- tanh(beta*|z|)``.  ``beta`` is in
    ``(0, inf]``.
    """
    z = np.asarray(z, dtype=complex)
    absz = np.abs(z)
    live = absz > _EPS_Z
    thermal = 1.0 if math.isinf(beta) else np.tanh(beta * absz)
    p = np.where(live, z / np.where(live, absz, 1.0) * thermal, 0.0)
    return _blocks(1.0, 1j * np.conj(p), -1j * p)


def propagator(z, tau: float) -> np.ndarray:
    """Time evolution ``exp(i*tau*h(z))`` at the energy symbol ``z``.

    ``cos(2 tau|z|) I + i sin(2 tau|z|) h(z)/(2|z|)``, with the removable
    ``|z| -> 0`` limit ``sin(2 tau|z|)/(2|z|) -> tau``; shape ``(..., 2, 2)``.
    """
    z = np.asarray(z, dtype=complex)
    absz = np.abs(z)
    live = absz > _EPS_Z
    phase = 2.0 * tau * absz
    sfac = np.where(live, np.sin(phase) / (2.0 * np.where(live, absz, 1.0)), tau)
    return _blocks(np.cos(phase), 2.0 * sfac * np.conj(z), -2.0 * sfac * z)


def covariance_lattice(c: Couplings, theta) -> np.ndarray:
    """Lattice Gibbs covariance: :func:`covariance` at ``z_theta(c, theta)``."""
    return covariance(z_theta(c, theta), c.beta)


def gibbs_covariance(c: Couplings, theta) -> np.ndarray:
    """Independent spectral route to the same covariance.

    Diagonalizes ``h(theta)`` numerically and applies the Fermi weight
    ``2/(exp(beta*lambda)+1)`` eigenvalue by eigenvalue (occupation of the
    negative-energy mode at ``beta = inf``).  Exists solely as a cross-check
    for :func:`covariance_lattice`; quadratic in matrix size, per-point.
    """
    h = one_particle_h(c, theta)
    lam, vec = np.linalg.eigh(h)
    if math.isinf(c.beta):
        w = np.where(lam < 0, 2.0, np.where(lam > 0, 0.0, 1.0))
    else:
        w = 2.0 / (np.exp(c.beta * lam) + 1.0)
    return np.einsum("...ij,...j,...kj->...ik", vec, w, np.conj(vec))


def covariance_critical_limit(k) -> np.ndarray:
    """Scaling-limit covariance at criticality, :func:`covariance` at
    ``z = -i*k``, ``beta = inf``: ``[[1, -sign k], [-sign k, 1]]``."""
    return covariance(-1j * np.asarray(k, dtype=float), math.inf)


def covariance_massive_thermal(k, mu0: float, beta0: float, t: float = 1.0) -> np.ndarray:
    """Massive/thermal scaling-limit covariance: :func:`covariance` at the
    limit symbol ``z = t*(mu0 - i*k)`` and ``beta0``.

    Dispersion ``|z| = t*sqrt(mu0^2 + k^2)``, thermal factor
    ``tanh(beta0*|z|)``.  ``mu0 = 0, beta0 = inf`` is the critical kernel
    for every ``t``.  Needs a finite ``mu0``, ``beta0`` in ``(0, inf]`` and
    a positive, finite ``t``.
    """
    _check_limit_symbol(mu0, beta0, t)
    return covariance(t * (mu0 - 1j * np.asarray(k, dtype=float)), beta0)


def _check_limit_symbol(mu0: float, beta0: float, t: float) -> None:
    """Reject a limit symbol ``t*(mu0 - i*k)`` at ``beta0`` naming no state."""
    if not math.isfinite(mu0):
        raise ValueError("mu0 must be finite")
    if not (beta0 > 0):
        raise ValueError("beta0 must be positive (math.inf allowed)")
    if not (0 < t < math.inf):
        raise ValueError("t must be positive and finite")
