"""Acceptance gate: the ten primary criteria, one test (and one printed
pass/fail line) each, at their stated tolerances and runtime budgets.

Two criteria fail honestly rather than being weakened:

* criterion 4: the two time-dependent closed-form sup constants are exactly
  16x larger than the true suprema (which the implementation measures);
  the test prints the measured/claimed analysis and asserts the stated
  equality, which fails.
* criterion 7: the naive log-log decay exponent of the smeared-limit
  correlator cannot equal -1/4 for any orthonormal filter, because the
  smearing inserts an exponential factor in the Toeplitz symbol; the test
  prints the corrected-fit analysis (which does recover -1/4) and the
  bare-chain control, then asserts the stated naive band, which fails.
"""

import math
import time

import numpy as np
import pytest

from isingrg.correlators import (
    pfaffian,
    pfaffian_matchings,
    spin_spin_correlation,
    toeplitz_correlation,
)
from isingrg.errorbounds import bound_sweep, empirical_error, sup_constants
from isingrg.kernels import Couplings, SelfDualVector, SiteVector
from isingrg.lattice_oracle import (
    TorusSpec,
    coarse_grain_channel,
    disentangler_matrix,
    partition_function_brute,
    partition_function_tensor,
    partition_function_transfer,
    trotter_defect,
)
from isingrg.rgflow import (
    QuasiFreeState,
    calibrated_couplings,
    classify_flow,
    limit_two_point,
    massive_thermal_two_point,
    renormalized_two_point,
)
from isingrg.wavelet import make_daubechies_filter

DELTA0 = SiteVector.delta(0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_oracle_identity():
    # nothing is compiled: this call only fills the 1x1 torus's count cache
    partition_function_brute(TorusSpec(1, 1, 0.3, 0.3))
    shapes = [(M, N) for M in range(1, 7) for N in range(1, 7) if M * N <= 6]
    assert len(shapes) == 14  # every torus with at most 24 spins
    start = time.perf_counter()
    worst = 0.0
    for (M, N) in shapes:
        for K in (0.1, 0.4407, 1.0):
            spec = TorusSpec(M, N, K, K)
            zt = partition_function_transfer(spec)
            zb = partition_function_brute(spec)
            zx = partition_function_tensor(spec)
            worst = max(worst, abs(zb - zt) / zt, abs(zx - zt) / zt)
    runtime = time.perf_counter() - start
    ok = worst < 1e-12 and runtime < 1.0
    report(1, ok, f"42 identities, worst rel err {worst:.2e} (<1e-12), "
                  f"runtime {runtime:.2f}s (<1s)")
    assert worst < 1e-12
    assert runtime < 1.0


def test_criterion_02_channel_correctness():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_u = worst_tr = worst_dual = 0.0
    for taps in (2, 4):
        filt = make_daubechies_filter(taps // 2)
        for n_fine in (4, 8):
            u = disentangler_matrix(filt, n_fine)
            worst_u = max(worst_u, float(np.abs(u.conj().T @ u
                                                - np.eye(n_fine)).max()))
            chan = coarse_grain_channel(filt, n_fine)
            dim = 2 ** n_fine
            for _ in range(5):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                out = chan.apply(rho)
                worst_tr = max(worst_tr,
                               abs(complex(np.trace(out)) - 1.0))
                xi = rng.normal(size=chan.n_coarse) \
                    + 1j * rng.normal(size=chan.n_coarse)
                eta = rng.normal(size=chan.n_coarse) \
                    + 1j * rng.normal(size=chan.n_coarse)
                worst_dual = max(worst_dual, chan.duality_defect(rho, xi, eta))
    runtime = time.perf_counter() - start
    ok = worst_u < 1e-12 and worst_tr < 1e-13 and worst_dual < 1e-11 \
        and runtime < 10.0
    report(2, ok, f"unitarity {worst_u:.2e} (<1e-12), trace "
                  f"{worst_tr:.2e} (<1e-13), duality over 20 pairs "
                  f"{worst_dual:.2e} (<1e-11), runtime {runtime:.1f}s (<10s)")
    assert worst_u < 1e-12
    assert worst_tr < 1e-13
    assert worst_dual < 1e-11
    assert runtime < 10.0


def test_criterion_03_critical_convergence():
    c = Couplings.critical()
    start = time.perf_counter()
    details = []
    ok = True
    for p in (2, 4):
        filt = make_daubechies_filter(p)
        lim = limit_two_point(filt, DELTA0, DELTA0, "a_adag")
        errs = [abs(renormalized_two_point(c, filt, m, DELTA0, DELTA0,
                                           "a_adag") - lim)
                for m in (4, 6, 8, 10)]
        mono = all(b < a for a, b in zip(errs, errs[1:]))
        slope = math.log2(errs[-1] / errs[0]) / 6.0
        details.append(f"{filt.name}: slope {slope:+.3f}, m=10 err "
                       f"{errs[-1]:.1e}")
        ok = ok and mono and abs(slope + 1.0) <= 0.3 and errs[-1] < 1e-3
        assert mono
        assert slope == pytest.approx(-1.0, abs=0.3)
        assert errs[-1] < 1e-3
    runtime = time.perf_counter() - start
    ok = ok and runtime < 30.0
    report(3, ok, "; ".join(details) + f"; runtime {runtime:.1f}s (<30s)")
    assert runtime < 30.0


def test_criterion_04_sup_constants():
    start = time.perf_counter()
    reports = {tt: sup_constants(tt, 0) for tt in (0.25, 1.0)}
    runtime = time.perf_counter() - start
    static_dev = max(max(r.deviations()[:2]) for r in reports.values())
    dynamic_dev = max(max(r.deviations()[2:]) for r in reports.values())
    ok = static_dev < 1e-6 and dynamic_dev < 1e-4 and runtime < 5.0
    report(4, ok, f"static pair dev {static_dev:.2e} (<1e-6) ok; dynamic "
                  f"pair dev {dynamic_dev:.2e} (<1e-4) FAILS — see analysis")
    for tt, r in reports.items():
        c = 2.0 * tt
        print(f"  t0*t={tt}: measured sup3={r.values[2]:.8f} "
              f"(= c^2/24 = {c * c / 24.0:.8f}), claimed {r.claimed[2]:.8f}, "
              f"ratio {r.claimed[2] / r.values[2]:.6f}")
        print(f"            measured sup4={r.values[3]:.8f} "
              f"(= c/24 = {c / 24.0:.8f}), claimed {r.claimed[3]:.8f}, "
              f"ratio {r.claimed[3] / r.values[3]:.6f}")
    print("  the claimed closed forms for the two propagator-difference "
          "suprema are exactly 16x the true suprema (measured maximizers "
          "sit in the k->0 limit, where the ratios converge to c^2/24 and "
          "c/24; the claimed values remain valid upper bounds, so the "
          "assembled certified bound is unaffected)")
    assert runtime < 5.0
    assert static_dev < 1e-6
    assert dynamic_dev < 1e-4  # honest red: measured/claimed differ by 16x


def test_criterion_05_certified_bound_grid():
    d8 = make_daubechies_filter(4)
    v1 = SelfDualVector.position_diff(0)
    v2 = SelfDualVector.position_sum(1)
    start = time.perf_counter()
    reports = bound_sweep([2, 4, 6, 8], [0.0, 0.5, 1.0], 1.0, v1, v2, d8, 0.5)
    violations = [r for r in reports if not r.satisfied]
    errs = {m: empirical_error(m, 0.5, 1.0, v1, v2, d8)
            for m in range(5, 11)}
    slope = float(np.polyfit(sorted(errs),
                             [math.log2(errs[m]) for m in sorted(errs)], 1)[0])
    runtime = time.perf_counter() - start
    ok = not violations and abs(slope + 1.0) <= 0.2 and runtime < 120.0
    report(5, ok, f"12-point grid: {len(violations)} violations; decay slope "
                  f"{slope:+.4f} (-1 +- 0.2); runtime {runtime:.0f}s (<120s)")
    assert not violations
    assert slope == pytest.approx(-1.0, abs=0.2)
    assert runtime < 120.0


def test_criterion_06_pfaffian_machinery():
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    worst_pair = worst_det = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g - g.T
        fast = pfaffian(a)
        ref = pfaffian_matchings(a)
        det = complex(np.linalg.det(a))
        scale = max(1.0, abs(ref))
        worst_pair = max(worst_pair, abs(fast - ref) / scale)
        worst_det = max(worst_det, abs(fast * fast - det) / max(1.0, abs(det)))
    runtime = time.perf_counter() - start
    ok = worst_pair < 1e-10 and worst_det < 1e-10 and runtime < 5.0
    report(6, ok, f"100 random dims 2-8: route agreement {worst_pair:.2e} "
                  f"(<1e-10), Pf^2=det {worst_det:.2e} (<1e-10), runtime "
                  f"{runtime:.1f}s (<5s)")
    assert worst_pair < 1e-10
    assert worst_det < 1e-10
    assert runtime < 5.0


def test_criterion_07_spin_correlator_consistency():
    d8 = make_daubechies_filter(4)
    state = QuasiFreeState.critical_limit(d8)
    start = time.perf_counter()
    worst_route = 0.0
    values = {}
    for sep in range(1, 13):
        val = complex(toeplitz_correlation(state, sep))
        values[sep] = val
        assert abs(val.imag) < 1e-9
        assert -1.0 <= val.real <= 1.0
        if sep <= 10:
            pf = complex(spin_spin_correlation(state, [0, sep]))
            worst_route = max(worst_route, abs(pf - val))
    odd = spin_spin_correlation(state, [0, 3, 7])
    assert odd == 0j
    ds = np.arange(6, 13, dtype=float)
    mags = np.array([abs(values[int(d)]) for d in ds])
    naive = float(np.polyfit(np.log(ds), np.log(mags), 1)[0])
    # corrected three-parameter fit and the bare-chain control
    X = np.column_stack([np.ones_like(ds), ds, np.log(ds)])
    coef, *_ = np.linalg.lstsq(X, np.log(mags), rcond=None)
    g_fit, x_fit = math.exp(coef[1]), float(coef[2])
    lattice = QuasiFreeState.lattice(Couplings.critical())
    lat_mags = [abs(complex(toeplitz_correlation(lattice, int(d))))
                for d in ds]
    control = float(np.polyfit(np.log(ds), np.log(lat_mags), 1)[0])
    runtime = time.perf_counter() - start
    exponent_ok = abs(naive + 0.25) <= 0.05
    ok = worst_route < 1e-10 and exponent_ok and runtime < 120.0
    report(7, ok, f"Pf=Toeplitz sep 1-10 {worst_route:.2e} (<1e-10) ok; odd "
                  f"exactly 0 ok; real/range ok; naive exponent {naive:+.4f} "
                  f"vs -1/4 +- 0.05 FAILS — see analysis; runtime "
                  f"{runtime:.0f}s (<120s)")
    print(f"  the smeared limit symbol vanishes at the folded half-band "
          f"edge for every orthonormal filter, inserting an exponential "
          f"G^d into the determinant; measured naive slope {naive:+.4f}")
    print(f"  three-parameter fit |ss(d)| = c G^d d^x over d in [6,12]: "
          f"G = {g_fit:.5f}, x = {x_fit:+.4f} (within -1/4 +- 0.05)")
    print(f"  bare-chain control (no smearing): naive slope {control:+.4f} "
          f"(within -1/4 +- 0.05) — the universal exponent is recovered "
          f"exactly where no exponential factor is present")
    assert worst_route < 1e-10
    assert control == pytest.approx(-0.25, abs=0.05)
    assert x_fit == pytest.approx(-0.25, abs=0.05)
    assert runtime < 120.0
    assert exponent_ok  # honest red: the naive slope is ~ -3.1, not -1/4


def test_criterion_08_instability_classification():
    start = time.perf_counter()
    cases = [((1.0, 0.5), "disorder"), ((0.5, 1.0), "order"),
             ((1.0, 1.0), "critical")]
    details = []
    for (t1, t3), want in cases:
        rep = classify_flow(Couplings(t1, t3))
        assert rep.label == want
        d12 = rep.distances[12]
        details.append(f"({t1},{t3})->{rep.label} d12={d12:.1e}")
        if want != "critical":
            assert d12 < 1e-4
    runtime = time.perf_counter() - start
    report(8, True, "; ".join(details) + f"; runtime {runtime:.1f}s (<30s)")
    assert runtime < 30.0


def test_criterion_09_trotter_convergence():
    start = time.perf_counter()
    defects = [trotter_defect(2, 1.0, n, 1.0, 1.0) for n in (8, 16, 32, 64)]
    runtime = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    report(9, decreasing and runtime < 10.0,
           "defects " + " > ".join(f"{d:.2e}" for d in defects)
           + f"; runtime {runtime:.1f}s (<10s)")
    assert decreasing
    assert runtime < 10.0


def test_criterion_10_massive_thermal_flow():
    d8 = make_daubechies_filter(4)
    mu0, beta0 = 1.0, 2.0
    start = time.perf_counter()
    target = massive_thermal_two_point(d8, DELTA0, DELTA0, "a_adag",
                                       mu0=mu0, beta0=beta0)
    errs = []
    for m in (4, 6, 8):
        c = calibrated_couplings(1.0, mu0, beta0, m)
        val = renormalized_two_point(c, d8, m, DELTA0, DELTA0, "a_adag")
        errs.append(abs(val - target))
    runtime = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] < 1e-2 and runtime < 60.0
    report(10, ok, "calibrated errors " + " > ".join(f"{e:.2e}" for e in errs)
                   + f", final <1e-2; runtime {runtime:.1f}s (<60s)")
    assert decreasing
    assert errs[-1] < 1e-2
    assert runtime < 60.0
