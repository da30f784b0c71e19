"""The invariants ``isingrg verify`` re-checks, each defined once.

``SUITES`` maps each suite name, in run order, to a function ``(filt, rng,
grid)`` that yields one ``(name, value, bound, detail)`` per record, which
passes iff ``value < bound``.  The errorbounds suite returns the reports of
its sweep over ``SWEEP_GRIDS[grid]``, which the CLI writes as a table, or
none if the sweep raised one of its two documented errors (all points fail).
"""

from __future__ import annotations

import math

import numpy as np

from .correlators import (pfaffian, pfaffian_matchings, spin_spin_correlation,
                          toeplitz_correlation)
from .errorbounds import (InadmissibleFilterError, OscillationResolutionError, bound_sweep,
                          sup_constants)
from .kernels import (Couplings, SelfDualVector, SiteVector, covariance_lattice,
                      gibbs_covariance)
from .lattice_oracle import (TorusSpec, partition_function_brute, partition_function_tensor,
                             partition_function_transfer)
from .rgflow import QuasiFreeState, classify_flow, limit_two_point, renormalized_two_point
from .wavelet import m0


#: The errorbounds sweep's depths and times, by grid name.
SWEEP_GRIDS = {"small": ((2, 4), (0.0, 0.5)), "full": ((2, 4, 6, 8), (0.0, 0.5, 1.0))}


def _wavelet(filt, rng, grid):
    tap_sum = float(np.sum(filt.taps))
    yield ("tap-sum equals sqrt(2)", abs(tap_sum - math.sqrt(2.0)), 1e-12,
           f"sum h_n = {tap_sum!r}")
    th = np.linspace(-math.pi, math.pi, 257)
    qmf = np.abs(np.abs(m0(filt, th)) ** 2 + np.abs(m0(filt, th + math.pi)) ** 2
                 - 1.0).max()
    yield "quadrature-mirror identity", qmf, 1e-12, f"max residual {qmf:.3e}"
    worst = max((abs(float(np.dot(filt.taps, np.roll(filt.taps, 2 * s))))
                 for s in range(1, filt.order)), default=0.0)
    yield "orthonormal even shifts", worst, 1e-12, f"worst overlap {worst:.3e}"


def _kernels(filt, rng, grid):
    c = Couplings(1.0, 0.7, 2.5)
    th = np.linspace(-math.pi, math.pi, 65)
    closed = covariance_lattice(c, th)
    dev = float(np.abs(closed - gibbs_covariance(c, th)).max())
    yield "closed-form vs spectral covariance", dev, 1e-12, f"max deviation {dev:.3e}"
    herm = float(np.abs(closed - np.conj(np.swapaxes(closed, -1, -2))).max())
    yield "covariance Hermitian", herm, 1e-13, f"max asymmetry {herm:.3e}"
    eig = np.linalg.eigvalsh(closed)
    yield ("covariance spectrum in [0, 2]", max(-eig.min(), eig.max() - 2.0), 1e-12,
           f"range [{eig.min():.6f}, {eig.max():.6f}]")


def _rgflow(filt, rng, grid):
    c = Couplings.critical()
    delta = SiteVector.delta(0)
    s1 = 2.0 * renormalized_two_point(c, filt, 0, delta, delta, "adag_a").real - 1.0
    dev = abs(s1 - 2.0 / math.pi)
    yield ("depth-0 transverse field 2/pi", dev, 1e-12,
           f"2 Re<a*a> - 1 = {s1!r}, deviation {dev:.3e}")
    lim = limit_two_point(filt, delta, delta, "a_adag")
    errs = [abs(renormalized_two_point(c, filt, m, delta, delta, "a_adag") - lim)
            for m in (4, 6)]
    yield ("flow error shrinks m=4 -> m=6", errs[1], errs[0],
           f"errors {errs[0]:.3e} -> {errs[1]:.3e}")
    cls = classify_flow(Couplings(1.0, 0.5))
    yield ("disorder coupling classified", int(cls.label != "disorder"), 1,
           f"classified {cls.label!r}, closest distance {min(cls.distances.values()):.3e}")


def _correlators(filt, rng, grid):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4)) * 2
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        worst = max(worst, abs(pfaffian(a) - pfaffian_matchings(a)),
                    abs(pfaffian(a) ** 2 - np.linalg.det(a)))
    yield "Pfaffian routes and Pf^2 = det", worst, 1e-10, f"worst deviation {worst:.3e}"
    v = spin_spin_correlation(QuasiFreeState.lattice(Couplings.critical()), (0, 1))
    yield ("nearest-neighbor closed form 2/pi", abs(v - 2.0 / math.pi), 1e-10,
           f"value {float(v.real)!r}")
    lim = QuasiFreeState.critical_limit(filt)
    delta = abs(spin_spin_correlation(lim, (0, 3)) - toeplitz_correlation(lim, 3))
    yield "Pfaffian equals Toeplitz (limit, d=3)", delta, 1e-10, f"delta {delta:.3e}"


def _errorbounds(filt, rng, grid):
    rep = sup_constants(0.25, 0)
    dev12 = max(abs(rep.values[0] - 0.5), abs(rep.values[1] - 0.5))
    yield "static sup-constants equal 1/2", dev12, 1e-6, f"max deviation {dev12:.3e}"
    ms, t0s = SWEEP_GRIDS[grid]
    try:
        reports = bound_sweep(ms, t0s, 1.0, SelfDualVector.position_diff(0),
                              SelfDualVector.position_sum(1), filt)
    except (OscillationResolutionError, InadmissibleFilterError) as exc:
        yield ("empirical error within certified bound", len(ms) * len(t0s), 1,
               f"sweep raised {type(exc).__name__}: {exc}")
        return
    met = sum(r.satisfied for r in reports)
    yield ("empirical error within certified bound", len(reports) - met, 1,
           f"{met}/{len(reports)} grid points")
    return reports


def _oracle(filt, rng, grid):
    spec = TorusSpec(2, 2, 0.4407, 0.4407)
    zt, zb, zx = (partition_function_transfer(spec), partition_function_brute(spec),
                  partition_function_tensor(spec))
    rel = max(abs(zt - zb), abs(zx - zb)) / zb
    yield "partition triple-route identity", rel, 1e-12, f"relative spread {rel:.3e}"


SUITES = {"wavelet": _wavelet, "kernels": _kernels, "rgflow": _rgflow,
          "correlators": _correlators, "errorbounds": _errorbounds, "oracle": _oracle}
