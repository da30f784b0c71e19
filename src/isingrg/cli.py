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
    force), or the golden fixture JSON.
``verify``
    Invariant suites of the registry in :mod:`isingrg._invariants`;
    pass/fail JSON report, exit 0 iff everything passed.

The parsed argument namespace is the run configuration: each ``cmd_*``
reads its typed flags from it, and every output file records it as-is --
``command`` plus exactly the flags that command parses, with ``--critical``
already applied to ``t3`` and ``beta``, a ``kernel`` run's default
``kmax`` resolved, and infinities written as ``"inf"``.  CSV tables carry
it on a ``# config:`` line under ``# isingrg <version>``; JSON files under
the ``config`` key next to ``version``.  Files contain no timestamps and are
written through a temporary file and rename, so identical configurations
yield byte-identical files and a failing run leaves no partial output.  The
only environment influence is ``ISINGRG_OUTDIR``, which redirects relative
output paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from ._invariants import SUITES, SWEEP_GRIDS
from .correlators import _MAX_STRING, spin_spin_correlation, toeplitz_correlation
from .kernels import (Couplings, SiteVector, covariance_critical_limit, covariance_lattice,
                      covariance_massive_thermal)
from .lattice_oracle import (TorusSpec, export_fixtures, partition_function_brute,
                             partition_function_tensor, partition_function_transfer)
from .rgflow import _KINDS, QuasiFreeState, limit_two_point, renormalized_two_point
from .wavelet import _HIGH_PASS_OFFSET, Filter, high_pass, make_daubechies_filter

# separations up to this one also carry the Pfaffian-versus-Toeplitz delta
_PF_CHECK_MAX = 10


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


def _parse_sites(text: str) -> Tuple[int, ...]:
    """Site flag ``0,3,5`` -> ``(0, 3, 5)``."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid site list {text!r}: use comma-separated integers") from None


# ---------------------------------------------------------------------------
# output plumbing


def _resolve_path(args: argparse.Namespace, default_name: str) -> Path:
    path = Path(args.out if args.out else default_name)
    outdir = os.environ.get("ISINGRG_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


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


def _write(args: argparse.Namespace, path: Path, fmt: str, **body) -> Path:
    """Write ``body`` under the run's provenance header, atomically.

    ``fmt`` ``"csv"`` renders ``body["columns"]`` and ``body["rows"]`` below
    the ``# isingrg`` and ``# config:`` lines; ``"json"`` writes ``body``'s
    keys next to ``version`` and ``config``.
    """
    config = {k: _jsonable(v) for k, v in vars(args).items()}
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# isingrg {__version__}\n")
        buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(body["columns"])
        for row in body["rows"]:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    else:
        if "rows" in body:
            body["rows"] = [[_jsonable(v) for v in row] for row in body["rows"]]
        payload = {"version": __version__, "config": config, **body}
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def _emit(args: argparse.Namespace, default_name: str, columns: Sequence[str],
          rows: Sequence[Sequence]) -> Path:
    """Write a table in the run's ``--format`` to ``--out`` or ``default_name``."""
    return _write(args, _resolve_path(args, default_name), args.format,
                  columns=list(columns), rows=rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_filters(args: argparse.Namespace) -> Path:
    """Tap table ``n, h_n, g_n`` plus transfer-function spot values."""
    filt = make_daubechies_filter(args.filter_taps // 2)
    g = high_pass(filt)
    rows: List[Sequence] = []
    for n in range(0, 2 * filt.order + 2):
        hv = float(filt.taps[n]) if n < filt.taps.size else 0.0
        off = n - _HIGH_PASS_OFFSET
        gv = float(g[off]) if 0 <= off < g.size else 0.0
        rows.append((n, hv, gv))
    return _emit(args, f"filters_{filt.name}.{args.format}",
                 ("n", "h_n", "g_n"), rows)


def cmd_kernel(args: argparse.Namespace) -> Path:
    """Covariance kernel table over a symmetric momentum grid."""
    if not (0 < args.kmax < math.inf):
        raise ValueError("--kmax must be positive and finite")
    if args.points < 2:
        raise ValueError("--points must be at least 2 (the grid spans "
                         "-kmax to kmax)")
    grid = np.linspace(-args.kmax, args.kmax, args.points)
    if args.kind == "lattice":
        mats = covariance_lattice(Couplings(args.t1, args.t3, args.beta), grid)
    elif args.kind == "critical-limit":
        mats = covariance_critical_limit(grid)
    else:
        mats = covariance_massive_thermal(grid, args.mu0, args.beta0, args.t1)
    rows = []
    for k, mat in zip(grid, mats):
        rows.append((float(k), float(np.sign(k)),
                     mat[0, 0].real, mat[0, 0].imag,
                     mat[0, 1].real, mat[0, 1].imag,
                     mat[1, 0].real, mat[1, 0].imag,
                     mat[1, 1].real, mat[1, 1].imag))
    return _emit(args, f"kernel_{args.kind}.{args.format}",
                 ("k", "sign_k",
                  "c00_re", "c00_im", "c01_re", "c01_im",
                  "c10_re", "c10_im", "c11_re", "c11_im"), rows)


def cmd_flow(args: argparse.Namespace) -> Path:
    """Renormalized two-point values at depth ``m`` (plus limit if critical)."""
    filt = make_daubechies_filter(args.filter_taps // 2)
    c = Couplings(args.t1, args.t3, args.beta)
    delta = SiteVector.delta(0)
    critical = (args.t1 == args.t3) and math.isinf(args.beta)
    rows = []
    for kind in _KINDS:
        ren = renormalized_two_point(c, filt, args.m, delta, delta, kind)
        if critical:
            lim = limit_two_point(filt, delta, delta, kind)
            rows.append((kind, ren.real, ren.imag, lim.real, lim.imag,
                         abs(ren - lim)))
        else:
            rows.append((kind, ren.real, ren.imag, None, None, None))
    return _emit(args, f"flow_m{args.m}.{args.format}",
                 ("kind", "renormalized_re", "renormalized_im",
                  "limit_re", "limit_im", "abs_error"), rows)


# the flags each spincorr state reads; a table also reads dmax and check_exponent
_STATE_FLAGS = {"lattice": ("t1", "t3", "beta", "critical"),
                "renormalized": ("t1", "t3", "beta", "critical", "filter_taps", "m"),
                "critical-limit": ("filter_taps",),
                "massive-thermal": ("filter_taps", "mu0", "beta0", "t1")}


def _spincorr_state(args: argparse.Namespace) -> QuasiFreeState:
    """The requested state, once every flag it does not read is at its default."""
    reads = {"command", "state", "sites", "format", "out", *_STATE_FLAGS[args.state],
             *(("dmax", "check_exponent") if args.sites is None else ())}
    unread = sorted(k for k, v in vars(args).items()
                    if k not in reads and v != _spincorr_defaults()[k])
    if unread:
        flags = ", ".join("--" + k.removesuffix("_taps").replace("_", "-") for k in unread)
        raise ValueError(f"this spincorr run does not read {flags}; leave it at its default")
    filt = make_daubechies_filter(args.filter_taps // 2)
    if args.state == "lattice":
        return QuasiFreeState.lattice(Couplings(args.t1, args.t3, args.beta))
    if args.state == "renormalized":
        return QuasiFreeState.renormalized(
            Couplings(args.t1, args.t3, args.beta), filt, args.m)
    if args.state == "critical-limit":
        return QuasiFreeState.critical_limit(filt)
    return QuasiFreeState.massive_thermal(filt, args.mu0, args.beta0, args.t1)


def cmd_spincorr(args: argparse.Namespace) -> Path:
    """Spin correlator table with diagnostics.

    Default: separations ``1..dmax`` of the two-site correlator with the
    imaginary residue and (up to separation 10) the Pfaffian-versus-Toeplitz
    delta.  ``sites`` requests a single explicit multi-site product instead;
    an odd number of sites reports the exact zero.  ``check_exponent``
    appends the fitted log-log slope of the computed values over
    separations ``6..min(12, dmax)``.
    """
    state = _spincorr_state(args)
    columns = ("separation", "value", "imag_residue", "pf_toeplitz_delta")
    rows: List[Sequence] = []
    if args.sites is not None:
        val = spin_spin_correlation(state, args.sites)
        rows.append(("sites:" + ",".join(str(s) for s in args.sites),
                     val.real, abs(val.imag), None))
        return _emit(args, f"spincorr_sites.{args.format}", columns, rows)

    if args.dmax < 1:
        raise ValueError("--dmax must be at least 1")
    if args.dmax > _MAX_STRING:
        raise ValueError(f"--dmax must be at most {_MAX_STRING} (the string cap)")
    values = []
    for d in range(1, args.dmax + 1):
        val = toeplitz_correlation(state, d)
        values.append(val.real)
        delta = None
        if d <= _PF_CHECK_MAX:
            pf = spin_spin_correlation(state, (0, d))
            delta = abs(pf - val)
        rows.append((d, val.real, abs(val.imag), delta))
    if args.check_exponent:
        lo, hi = 6, min(12, args.dmax)
        ds = np.arange(lo, hi + 1)
        mags = np.abs(np.asarray(values[lo - 1:hi]))
        slope = float(np.polyfit(np.log(ds), np.log(mags), 1)[0])
        rows.append(("exponent_fit", slope, None, None))
    return _emit(args, f"spincorr_d{args.dmax}.{args.format}", columns, rows)


def cmd_oracle(args: argparse.Namespace) -> Path:
    """Partition-function cross-check table on small tori, or (``fixtures``)
    the golden oracle values as JSON."""
    if args.fixtures:
        return _write(args, _resolve_path(args, "fixtures.json"), "json",
                      fixtures=export_fixtures())
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
    return _emit(args, f"oracle_partition.{args.format}",
                 ("M", "N", "K", "Z_transfer", "Z_brute", "Z_tensor",
                  "rel_err_transfer", "rel_err_tensor"), rows)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> Tuple[Path, int]:
    """Run the ``--suite`` suites of the invariant registry; write the JSON
    report (and the errorbounds sweep table); exit 0 iff all passed."""
    rng = np.random.default_rng(args.seed)
    filt = make_daubechies_filter(args.filter_taps // 2)
    if args.corrupt_filter:
        filt = Filter(name=filt.name + "-corrupt", order=filt.order,
                      taps=np.asarray(filt.taps) * 1.01)

    path = _resolve_path(args, "verify_report.json")
    records: List[Dict] = []

    def run(checks):
        """The suite's records, then the sweep table's if it returns a sweep."""
        reports = yield from checks(filt, rng, args.grid)
        if reports is not None:
            yield "bound sweep CSV emitted", 0, 1, str(_write(
                args, path.parent / f"bound_sweep_{args.grid}.csv", "csv",
                columns=["m", "t0", "empirical", "bound", "term_order1",
                         "term_order2", "term_order3", "term_order4"],
                rows=[(r.m, r.t0, r.empirical_error, r.certified_bound, *r.components)
                      for r in reports]))

    for suite, checks in SUITES.items():
        if args.suite in ("all", suite):
            records += ({"suite": suite, "name": name, "passed": bool(value < bound),
                         "detail": detail}
                        for name, value, bound, detail in run(checks))
    passed = all(r["passed"] for r in records)
    _write(args, path, "json", passed=passed, records=records)
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

    def add(name: str, summary: str, *flags) -> argparse.ArgumentParser:
        """A subcommand with the flag groups it reads, plus ``--out``."""
        p = sub.add_parser(name, help=summary)
        for group in flags:
            group(p)
        p.add_argument("--out", default=None, help="output path")
        return p

    def filter_flag(p):
        p.add_argument("--filter", type=_parse_filter, default=8,
                       dest="filter_taps",
                       help="filter name: haar or d<taps>, d2..d20 (default d8)")

    def coupling_flags(p):
        p.add_argument("--t1", type=float, default=1.0)
        p.add_argument("--t3", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=math.inf)
        p.add_argument("--critical", action="store_true",
                       help="force t3 = t1 and beta = inf")

    def massive_flags(p):
        p.add_argument("--mu0", type=float, default=1.0)
        p.add_argument("--beta0", type=float, default=math.inf)

    def depth_flag(p):
        p.add_argument("--m", type=int, default=0, help="renormalization depth")

    def format_flag(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    add("filters", "filter tap table", filter_flag, format_flag)

    p = add("kernel", "covariance kernel table", coupling_flags, massive_flags,
            format_flag)
    p.add_argument("--kind",
                   choices=("lattice", "critical-limit", "massive-thermal"),
                   default="critical-limit")
    p.add_argument("--kmax", type=float, default=None,
                   help="grid half-width (default pi for lattice, else 10)")
    p.add_argument("--points", type=int, default=101)

    model = (filter_flag, coupling_flags, depth_flag, format_flag)
    add("flow", "renormalized two-point flow table", *model)

    p = add("spincorr", "spin correlator table", *model, massive_flags)
    p.add_argument("--state", choices=tuple(_STATE_FLAGS), default="critical-limit")
    p.add_argument("--dmax", type=int, default=8)
    p.add_argument("--sites", type=_parse_sites, default=None,
                   help="comma-separated site list for one explicit product")
    p.add_argument("--check-exponent", action="store_true",
                   help="append fitted log-log slope over separations 6..12")

    p = add("oracle", "exact torus cross-checks", format_flag)
    p.add_argument("--fixtures", action="store_true",
                   help="write the golden fixture JSON instead")

    p = add("verify", "invariant suites, exit 0 iff pass", filter_flag)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--grid", choices=tuple(SWEEP_GRIDS), default="small")
    p.add_argument("--corrupt-filter", action="store_true",
                   help="negative-test hook: perturb the filter taps")

    return parser


_parser = lru_cache(maxsize=1)(build_parser)
_spincorr_defaults = lru_cache(maxsize=1)(lambda: vars(_parser().parse_args(["spincorr"])))

_TABLE_COMMANDS = {
    "filters": cmd_filters,
    "kernel": cmd_kernel,
    "flow": cmd_flow,
    "spincorr": cmd_spincorr,
    "oracle": cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "critical", False):
        args.t3, args.beta = args.t1, math.inf
    if args.command == "kernel" and args.kmax is None:
        args.kmax = math.pi if args.kind == "lattice" else 10.0
    if args.command == "spincorr" and args.check_exponent and args.dmax < 8:
        parser.error("--check-exponent needs --dmax >= 8 to fit a slope")
    try:
        if args.command == "verify":
            path, code = cmd_verify(args)
            print(f"report: {path}")
            return code
        path = _TABLE_COMMANDS[args.command](args)
        print(f"wrote: {path}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
