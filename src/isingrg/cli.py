"""Deterministic batch command-line surface for the renormalization engine.

Subcommands
-----------
``filters``
    Tap table (low-pass and mirror high-pass) for a Daubechies family
    member.
``kernel``
    Covariance kernel entries over a momentum grid.
``flow``
    Renormalized two-point values at depth ``m`` against their scaling
    limit.
``spincorr``
    Longitudinal spin correlators with imaginary-residue and
    Pfaffian-versus-Toeplitz diagnostics.
``oracle``
    Exact small-torus partition cross-checks (transfer, tensor, brute
    force).
``verify``
    Invariant suites; pass/fail JSON report, exit 0 iff everything passed.

Every output file embeds the resolved run configuration and the package
version, contains no timestamps, and is written through a temporary file
and rename — identical configurations yield byte-identical files and a
failing run leaves no partial output.  The only environment influence is
``ISINGRG_OUTDIR``, which redirects relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errorbounds import (
    bound_sweep,
    sup_constants,
    write_bound_sweep_csv,
)
from .correlators import (
    QuasiFreeState,
    pfaffian,
    pfaffian_matchings,
    spin_spin_correlation,
    toeplitz_correlation,
)
from .kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
    gibbs_covariance,
)
from .lattice_oracle import (
    TorusSpec,
    export_fixtures,
    partition_function_brute,
    partition_function_tensor,
    partition_function_transfer,
)
from .rgflow import classify_flow, limit_two_point, renormalized_two_point
from .wavelet import Filter, high_pass, m0, make_daubechies_filter

_KINDS = ("a_adag", "adag_adag", "a_a", "adag_a")


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI run.

    Serializes losslessly to JSON (``math.inf`` as the string ``"inf"``)
    and is embedded into every output file, so results carry their own
    provenance and reruns are reproducible.
    """

    command: str
    filter_taps: int = 8
    t1: float = 1.0
    t3: float = 1.0
    beta: float = math.inf
    m: int = 0
    out: Optional[str] = None
    format: str = "csv"
    seed: int = 0
    options: Tuple[Tuple[str, str], ...] = ()

    def to_mapping(self) -> Dict:
        d = asdict(self)
        d["beta"] = "inf" if math.isinf(self.beta) else self.beta
        d["options"] = {k: v for k, v in self.options}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), sort_keys=True)

    @classmethod
    def from_mapping(cls, d: Dict) -> "RunConfig":
        d = dict(d)
        if d.get("beta") == "inf":
            d["beta"] = math.inf
        d["options"] = tuple(sorted((str(k), str(v))
                                    for k, v in d.get("options", {}).items()))
        return cls(**d)

    @classmethod
    def from_json(cls, s: str) -> "RunConfig":
        return cls.from_mapping(json.loads(s))


def _parse_filter(name: str) -> int:
    """Filter flag -> tap count.  Accepts ``haar`` and ``d<2p>``."""
    low = name.strip().lower()
    if low == "haar":
        return 2
    if low.startswith("d") and low[1:].isdigit():
        taps = int(low[1:])
        if taps >= 2 and taps % 2 == 0 and taps <= 20:
            return taps
    raise argparse.ArgumentTypeError(
        f"unknown filter {name!r}: use 'haar' or 'd<taps>' with an even tap "
        "count between 2 and 20 (d2, d4, ..., d20)")


def _filter_from_config(cfg: RunConfig) -> Filter:
    return make_daubechies_filter(cfg.filter_taps // 2)


# ---------------------------------------------------------------------------
# output plumbing


def _resolve_path(cfg: RunConfig, default_name: str) -> Path:
    out = cfg.out if cfg.out else default_name
    path = Path(out)
    outdir = os.environ.get("ISINGRG_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _render_table(cfg: RunConfig, columns: Sequence[str],
                  rows: Sequence[Sequence]) -> str:
    """Render a table in the configured format with embedded provenance."""
    if cfg.format == "csv":
        buf = io.StringIO()
        buf.write(f"# isingrg {__version__}\n")
        buf.write(f"# config: {cfg.to_json()}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    payload = {
        "version": __version__,
        "config": cfg.to_mapping(),
        "columns": list(columns),
        "rows": [[_jsonable(v) for v in row] for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else str(v)


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _emit(cfg: RunConfig, default_name: str, columns: Sequence[str],
          rows: Sequence[Sequence]) -> Path:
    path = _resolve_path(cfg, default_name)
    _atomic_write_text(path, _render_table(cfg, columns, rows))
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_filters(cfg: RunConfig) -> Path:
    """Tap table ``n, h_n, g_n`` plus transfer-function spot values."""
    filt = _filter_from_config(cfg)
    g = high_pass(filt)
    rows: List[Sequence] = []
    for n in range(0, 2 * filt.order + 2):
        hv = float(filt.taps[n]) if n < filt.taps.size else 0.0
        off = n - g.support_offset
        gv = float(g.taps[off]) if 0 <= off < g.taps.size else 0.0
        rows.append((n, hv, gv))
    return _emit(cfg, f"filters_{filt.name}.{cfg.format}",
                 ("n", "h_n", "g_n"), rows)


def _kernel_rows(cfg: RunConfig, opts: Dict[str, str], kind: str):
    kmax = float(opts.get("kmax", math.pi if kind == "lattice" else 10.0))
    grid = np.linspace(-kmax, kmax, int(opts.get("points", "101")))
    if kind == "lattice":
        mats = covariance_lattice(Couplings(cfg.t1, cfg.t3, cfg.beta), grid)
    elif kind == "critical-limit":
        mats = covariance_critical_limit(grid)
    else:
        mats = covariance_massive_thermal(grid, float(opts.get("mu0", "1.0")),
                                          float(opts.get("beta0", "inf")), cfg.t1)
    rows = []
    for k, mat in zip(grid, mats):
        rows.append((float(k), float(np.sign(k)),
                     mat[0, 0].real, mat[0, 0].imag,
                     mat[0, 1].real, mat[0, 1].imag,
                     mat[1, 0].real, mat[1, 0].imag,
                     mat[1, 1].real, mat[1, 1].imag))
    return rows


def cmd_kernel(cfg: RunConfig) -> Path:
    """Covariance kernel table over a symmetric momentum grid."""
    opts = dict(cfg.options)
    kind = opts.get("kind", "critical-limit")
    rows = _kernel_rows(cfg, opts, kind)
    return _emit(cfg, f"kernel_{kind}.{cfg.format}",
                 ("k", "sign_k",
                  "c00_re", "c00_im", "c01_re", "c01_im",
                  "c10_re", "c10_im", "c11_re", "c11_im"), rows)


def cmd_flow(cfg: RunConfig) -> Path:
    """Renormalized two-point values at depth ``m`` (plus limit if critical)."""
    filt = _filter_from_config(cfg)
    c = Couplings(cfg.t1, cfg.t3, cfg.beta)
    delta = SiteVector.delta(0)
    critical = (cfg.t1 == cfg.t3) and math.isinf(cfg.beta)
    rows = []
    for kind in _KINDS:
        ren = renormalized_two_point(c, filt, cfg.m, delta, delta, kind)
        if critical:
            lim = limit_two_point(filt, delta, delta, kind)
            rows.append((kind, ren.real, ren.imag, lim.real, lim.imag,
                         abs(ren - lim)))
        else:
            rows.append((kind, ren.real, ren.imag, None, None, None))
    return _emit(cfg, f"flow_m{cfg.m}.{cfg.format}",
                 ("kind", "renormalized_re", "renormalized_im",
                  "limit_re", "limit_im", "abs_error"), rows)


def _spincorr_state(cfg: RunConfig, opts: Dict[str, str]) -> QuasiFreeState:
    kind = opts.get("state", "critical-limit")
    filt = _filter_from_config(cfg)
    if kind == "lattice":
        return QuasiFreeState.lattice(Couplings(cfg.t1, cfg.t3, cfg.beta))
    if kind == "renormalized":
        return QuasiFreeState.renormalized(Couplings(cfg.t1, cfg.t3, cfg.beta),
                                           filt, cfg.m)
    if kind == "critical-limit":
        return QuasiFreeState.critical_limit(filt)
    if kind == "massive-thermal":
        return QuasiFreeState.massive_thermal(
            filt, float(opts.get("mu0", "1.0")), float(opts.get("beta0", "inf")),
            cfg.t1)
    raise ValueError(f"unknown state kind {kind!r}")


def cmd_spincorr(cfg: RunConfig) -> Path:
    """Spin correlator table with diagnostics.

    Default: separations ``1..d_max`` of the two-site correlator with the
    imaginary residue and (up to ``pf_check_max``) the
    Pfaffian-versus-Toeplitz delta.  ``sites`` requests a single explicit
    multi-site product instead; an odd number of sites reports the exact
    zero.  ``check_exponent`` appends the fitted log-log slope of the
    computed values over separations ``6..min(12, d_max)``.
    """
    opts = dict(cfg.options)
    state = _spincorr_state(cfg, opts)
    columns = ("separation", "value", "imag_residue", "pf_toeplitz_delta")
    rows: List[Sequence] = []
    if "sites" in opts:
        sites = tuple(int(s) for s in opts["sites"].split(","))
        val = spin_spin_correlation(state, sites)
        rows.append(("sites:" + ",".join(str(s) for s in sites),
                     val.real, abs(val.imag), None))
        return _emit(cfg, f"spincorr_sites.{cfg.format}", columns, rows)

    d_max = int(opts.get("dmax", "8"))
    pf_check_max = int(opts.get("pf_check_max", "10"))
    values = []
    for d in range(1, d_max + 1):
        val = toeplitz_correlation(state, d)
        values.append(val.real)
        delta = None
        if d <= pf_check_max:
            pf = spin_spin_correlation(state, (0, d))
            delta = abs(pf - val)
        rows.append((d, val.real, abs(val.imag), delta))
    if opts.get("check_exponent") == "1":
        lo, hi = 6, min(12, d_max)
        ds = np.arange(lo, hi + 1)
        mags = np.abs(np.asarray(values[lo - 1:hi]))
        slope = float(np.polyfit(np.log(ds), np.log(mags), 1)[0])
        rows.append(("exponent_fit", slope, None, None))
    return _emit(cfg, f"spincorr_d{d_max}.{cfg.format}", columns, rows)


def cmd_oracle(cfg: RunConfig) -> Path:
    """Partition-function cross-check table on small tori."""
    opts = dict(cfg.options)
    if "fixtures" in opts:
        path = Path(opts["fixtures"])
        outdir = os.environ.get("ISINGRG_OUTDIR")
        if outdir and not path.is_absolute():
            path = Path(outdir) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        fixtures = export_fixtures(str(path) + ".tmp")
        payload = {"version": __version__, "config": cfg.to_mapping(),
                   "fixtures": fixtures}
        os.remove(str(path) + ".tmp")
        _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return path
    shapes = ((1, 2), (2, 2), (2, 3))
    ks = (0.1, 0.4407, 1.0)
    rows = []
    for (M, N) in shapes:
        for K in ks:
            spec = TorusSpec(M, N, K, K)
            zt = partition_function_transfer(spec)
            zb = partition_function_brute(spec)
            zx = partition_function_tensor(spec)
            rows.append((M, N, K, zt, zb, zx,
                         abs(zt - zb) / zb, abs(zx - zb) / zb))
    return _emit(cfg, f"oracle_partition.{cfg.format}",
                 ("M", "N", "K", "Z_transfer", "Z_brute", "Z_tensor",
                  "rel_err_transfer", "rel_err_tensor"), rows)


# ---------------------------------------------------------------------------
# verify


def _record(records: List[Dict], suite: str, name: str, passed: bool,
            detail: str) -> None:
    records.append({"suite": suite, "name": name,
                    "passed": bool(passed), "detail": detail})


def _verify_wavelet(records: List[Dict], filt: Filter) -> None:
    tap_sum = float(np.sum(filt.taps))
    _record(records, "wavelet", "tap-sum equals sqrt(2)",
            abs(tap_sum - math.sqrt(2.0)) < 1e-12,
            f"sum h_n = {tap_sum!r}")
    th = np.linspace(-math.pi, math.pi, 257)
    qmf = np.abs(np.abs(m0(filt, th)) ** 2 +
                 np.abs(m0(filt, th + math.pi)) ** 2 - 1.0).max()
    _record(records, "wavelet", "quadrature-mirror identity",
            qmf < 1e-12, f"max residual {qmf:.3e}")
    shifts = [float(np.dot(filt.taps, np.roll(filt.taps, 2 * s)))
              for s in range(1, filt.order)]
    worst = max((abs(v) for v in shifts), default=0.0)
    _record(records, "wavelet", "orthonormal even shifts",
            worst < 1e-12, f"worst overlap {worst:.3e}")


def _verify_kernels(records: List[Dict]) -> None:
    c = Couplings(1.0, 0.7, 2.5)
    th = np.linspace(-math.pi, math.pi, 65)
    closed = covariance_lattice(c, th)
    spectral = gibbs_covariance(c, th)
    dev = float(np.abs(closed - spectral).max())
    _record(records, "kernels", "closed-form vs spectral covariance",
            dev < 1e-12, f"max deviation {dev:.3e}")
    herm = float(np.abs(closed - np.conj(np.swapaxes(closed, -1, -2))).max())
    _record(records, "kernels", "covariance Hermitian",
            herm < 1e-13, f"max asymmetry {herm:.3e}")
    eig = np.linalg.eigvalsh(closed)
    _record(records, "kernels", "covariance spectrum in [0, 2]",
            bool((eig > -1e-12).all() and (eig < 2 + 1e-12).all()),
            f"range [{eig.min():.6f}, {eig.max():.6f}]")


def _verify_rgflow(records: List[Dict], filt: Filter) -> None:
    c = Couplings.critical()
    delta = SiteVector.delta(0)
    occ = renormalized_two_point(c, filt, 0, delta, delta, "adag_a")
    s1 = 2.0 * occ.real - 1.0
    _record(records, "rgflow", "depth-0 transverse field 2/pi",
            abs(s1 - 2.0 / math.pi) < 1e-12,
            f"2 Re<a*a> - 1 = {s1!r}, deviation {abs(s1 - 2.0 / math.pi):.3e}")
    errs = []
    for m in (4, 6):
        ren = renormalized_two_point(c, filt, m, delta, delta, "a_adag")
        lim = limit_two_point(filt, delta, delta, "a_adag")
        errs.append(abs(ren - lim))
    _record(records, "rgflow", "flow error shrinks m=4 -> m=6",
            errs[1] < errs[0], f"errors {errs[0]:.3e} -> {errs[1]:.3e}")
    cls = classify_flow(Couplings(1.0, 0.5))
    dist = min(cls.distances.values())
    _record(records, "rgflow", "disorder coupling classified",
            cls.label == "disorder",
            f"classified {cls.label!r}, closest distance {dist:.3e}")


def _verify_correlators(records: List[Dict], filt: Filter,
                        rng: np.random.Generator) -> None:
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4)) * 2
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        worst = max(worst, abs(pfaffian(a) - pfaffian_matchings(a)))
        worst = max(worst, abs(pfaffian(a) ** 2 - np.linalg.det(a)))
    _record(records, "correlators", "Pfaffian routes and Pf^2 = det",
            worst < 1e-10, f"worst deviation {worst:.3e}")
    lat = QuasiFreeState.lattice(Couplings.critical())
    v = spin_spin_correlation(lat, (0, 1))
    _record(records, "correlators", "nearest-neighbor closed form 2/pi",
            abs(v - 2.0 / math.pi) < 1e-10, f"value {float(v.real)!r}")
    lim = QuasiFreeState.critical_limit(filt)
    d = 3
    pf = spin_spin_correlation(lim, (0, d))
    tp = toeplitz_correlation(lim, d)
    _record(records, "correlators", "Pfaffian equals Toeplitz (limit, d=3)",
            abs(pf - tp) < 1e-10, f"delta {abs(pf - tp):.3e}")


def _verify_errorbounds(records: List[Dict], filt: Filter, grid: str,
                        report_path: Path) -> None:
    rep = sup_constants(0.25, 0)
    dev12 = max(abs(rep.values[0] - 0.5), abs(rep.values[1] - 0.5))
    _record(records, "errorbounds", "static sup-constants equal 1/2",
            dev12 < 1e-6, f"max deviation {dev12:.3e}")
    v1 = SelfDualVector.position_diff(0)
    v2 = SelfDualVector.position_sum(1)
    ms = (2, 4) if grid == "small" else (2, 4, 6, 8)
    t0s = (0.0, 0.5) if grid == "small" else (0.0, 0.5, 1.0)
    reports = bound_sweep(ms, t0s, 1.0, v1, v2, filt)
    ok = all(r.satisfied for r in reports)
    _record(records, "errorbounds", "empirical error within certified bound",
            ok, f"{sum(r.satisfied for r in reports)}/{len(reports)} grid points")
    csv_path = report_path.parent / f"bound_sweep_{grid}.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = csv_path.with_name(csv_path.name + ".tmp")
    write_bound_sweep_csv(tmp, reports)
    os.replace(tmp, csv_path)
    _record(records, "errorbounds", "bound sweep CSV emitted", True,
            str(csv_path))


def _verify_oracle(records: List[Dict]) -> None:
    spec = TorusSpec(2, 2, 0.4407, 0.4407)
    zt = partition_function_transfer(spec)
    zb = partition_function_brute(spec)
    zx = partition_function_tensor(spec)
    rel = max(abs(zt - zb), abs(zx - zb)) / zb
    _record(records, "oracle", "partition triple-route identity",
            rel < 1e-12, f"relative spread {rel:.3e}")


def cmd_verify(cfg: RunConfig) -> Tuple[Path, int]:
    """Run invariant suites; write the JSON report; exit 0 iff all passed."""
    opts = dict(cfg.options)
    suite = opts.get("suite", "all")
    grid = opts.get("grid", "small")
    rng = np.random.default_rng(cfg.seed)
    filt = _filter_from_config(cfg)
    if opts.get("corrupt_filter") == "1":
        filt = Filter(name=filt.name + "-corrupt", order=filt.order,
                      taps=np.asarray(filt.taps) * 1.01)

    path = _resolve_path(cfg, "verify_report.json")
    records: List[Dict] = []
    if suite in ("all", "wavelet"):
        _verify_wavelet(records, filt)
    if suite in ("all", "kernels"):
        _verify_kernels(records)
    if suite in ("all", "rgflow"):
        _verify_rgflow(records, filt)
    if suite in ("all", "correlators"):
        _verify_correlators(records, filt, rng)
    if suite in ("all", "errorbounds"):
        _verify_errorbounds(records, filt, grid, path)
    if suite in ("all", "oracle"):
        _verify_oracle(records)

    passed = all(r["passed"] for r in records)
    payload = {
        "version": __version__,
        "config": cfg.to_mapping(),
        "passed": passed,
        "records": records,
    }
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['suite']}: {r['name']} — {r['detail']}")
    return path, 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingrg",
        description="Batch tables and verification for the wavelet "
                    "renormalization engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--filter", type=_parse_filter, default=8,
                       dest="filter_taps",
                       help="filter name: haar or d<taps>, d2..d20 (default d8)")
        p.add_argument("--t1", type=float, default=1.0)
        p.add_argument("--t3", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=math.inf)
        p.add_argument("--critical", action="store_true",
                       help="force t3 = t1 and beta = inf")
        p.add_argument("--m", type=int, default=0,
                       help="renormalization depth")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("filters", help="filter tap table")
    common(p)

    p = sub.add_parser("kernel", help="covariance kernel table")
    common(p)
    p.add_argument("--kind",
                   choices=("lattice", "critical-limit", "massive-thermal"),
                   default="critical-limit")
    p.add_argument("--mu0", type=float, default=1.0)
    p.add_argument("--beta0", type=float, default=math.inf)
    p.add_argument("--kmax", type=float, default=None,
                   help="grid half-width (default pi for lattice, else 10)")
    p.add_argument("--points", type=int, default=101)

    p = sub.add_parser("flow", help="renormalized two-point flow table")
    common(p)

    p = sub.add_parser("spincorr", help="spin correlator table")
    common(p)
    p.add_argument("--state",
                   choices=("lattice", "renormalized", "critical-limit",
                            "massive-thermal"),
                   default="critical-limit")
    p.add_argument("--dmax", type=int, default=8)
    p.add_argument("--pf-check-max", type=int, default=10)
    p.add_argument("--sites", default=None,
                   help="comma-separated site list for one explicit product")
    p.add_argument("--check-exponent", action="store_true",
                   help="append fitted log-log slope over separations 6..12")
    p.add_argument("--mu0", type=float, default=1.0)
    p.add_argument("--beta0", type=float, default=math.inf)

    p = sub.add_parser("oracle", help="exact torus cross-checks")
    common(p)
    p.add_argument("--fixtures", default=None,
                   help="write the golden fixture JSON to this path instead")

    p = sub.add_parser("verify", help="invariant suites, exit 0 iff pass")
    common(p)
    p.add_argument("--suite",
                   choices=("all", "wavelet", "kernels", "rgflow",
                            "correlators", "errorbounds", "oracle"),
                   default="all")
    p.add_argument("--grid", choices=("small", "full"), default="small")
    p.add_argument("--corrupt-filter", action="store_true",
                   help="negative-test hook: perturb the filter taps")

    return parser


_OPTION_KEYS = {
    "kernel": ("kind", "mu0", "beta0", "kmax", "points"),
    "spincorr": ("state", "dmax", "pf_check_max", "sites", "check_exponent",
                 "mu0", "beta0"),
    "oracle": ("fixtures",),
    "verify": ("suite", "grid", "corrupt_filter"),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    t3 = args.t1 if args.critical else args.t3
    beta = math.inf if args.critical else args.beta
    options = []
    for key in _OPTION_KEYS.get(args.command, ()):
        val = getattr(args, key, None)
        if val is None or val is False:
            continue
        if val is True:
            val = "1"
        elif isinstance(val, float) and math.isinf(val):
            val = "inf"
        options.append((key, str(val)))
    return RunConfig(
        command=args.command,
        filter_taps=args.filter_taps,
        t1=args.t1,
        t3=t3,
        beta=beta,
        m=args.m,
        out=args.out,
        format=args.format,
        seed=args.seed,
        options=tuple(sorted(options)),
    )


_TABLE_COMMANDS = {
    "filters": cmd_filters,
    "kernel": cmd_kernel,
    "flow": cmd_flow,
    "spincorr": cmd_spincorr,
    "oracle": cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "spincorr" and getattr(args, "check_exponent", False)
            and args.dmax < 8):
        parser.error("--check-exponent needs --dmax >= 8 to fit a slope")
    cfg = _config_from_args(args)
    try:
        if cfg.command == "verify":
            path, code = cmd_verify(cfg)
            print(f"report: {path}")
            return code
        path = _TABLE_COMMANDS[cfg.command](cfg)
        print(f"wrote: {path}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
