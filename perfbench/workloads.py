"""Seeded workloads: op generation, execution against isingrg, result checks.

A workload runs in rounds.  Every round holds the same fixed cells -- the
input properties that set an op's cost (filter, depth, dmax, torus size,
time-separation band) -- and the seed draws everything else inside each
cell: couplings, masses, temperatures, smearing vectors, site offsets, the
exact ``t0`` within its band, and the order of the ops where the order does
not change their cost.  Runs with different seeds therefore execute
different inputs of the same cost profile, which is what lets their
throughputs be compared.

Op generation is pure Python (``random.Random`` seeded by a string), so an
op list is a JSON document that hashes the same on every interpreter.  An
op carries every input the program receives; ``execute`` maps it onto one
public call of the package and returns the observed result, and ``check``
compares that result against an independent route and returns the list of
violated conditions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("spincorr", "certify", "flow", "oracle")

# Filters each workload builds in set-up, and the ones whose limit states
# need the momentum cutoff (certify integrates on a fixed window instead).
FILTERS = {
    "spincorr": ("d4", "d6", "d8"),
    "certify": ("d4", "d6", "d8"),
    "flow": ("d4", "d8"),
    "oracle": ("haar", "d4"),
}
CUTOFF_FILTERS = {
    "spincorr": ("d4", "d6", "d8"),
    "certify": (),
    "flow": ("d4", "d8"),
    "oracle": (),
}

_KINDS = ("a_adag", "adag_a", "adag_adag", "a_a")

# times an op's call into the package; the worker swaps in a clock that
# leaves out host-speed sampling (``hostspeed.Sampler.clock``)
clock = time.perf_counter

# tolerances of the checks (criterion 1, criterion 2 and the CLI diagnostics)
PF_TOEPLITZ_TOL = 1e-10
IMAG_TOL = 1e-9
PARTITION_TOL = 1e-12
UNITARITY_TOL = 1e-12
TRACE_TOL = 1e-13
DUALITY_TOL = 1e-11
SUP_TOL = 1e-6
CAR_TOL = 1e-12
QUAD_SLACK = 1e-12


def filter_order(name: str) -> int:
    """``haar`` -> 1, ``d<2p>`` -> p."""
    return 1 if name == "haar" else int(name[1:]) // 2


# ---------------------------------------------------------------------------
# op generation


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _beta(rng: random.Random, lo: float, hi: float, p_inf: float) -> float:
    return math.inf if rng.random() < p_inf else rng.uniform(lo, hi)


def _complex_list(rng: random.Random, n: int) -> List[List[float]]:
    return [[round(rng.gauss(0.0, 1.0), 6), round(rng.gauss(0.0, 1.0), 6)]
            for _ in range(n)]


def _spincorr_round(rng: random.Random, round_index: int) -> List[Dict]:
    ops = []

    def table(state: str, filt: str, dmax: int, **extra) -> Dict:
        return dict(kind="spincorr", state=state, filter=filt, dmax=dmax, **extra)

    def massive() -> Dict:
        return dict(mu0=round(rng.uniform(0.25, 2.0), 6),
                    beta0=_beta(rng, 0.5, 8.0, 0.25))

    for filt, dmax in (("d4", 2), ("d6", 2), ("d8", 1)):
        ops.append(table("critical-limit", filt, 2))
        ops.append(table("massive-thermal", filt, dmax, **massive()))
    # 4-site products: two strings of length 1, a fixed gap apart (the gap
    # sets the widest lag and so the cost); the offset is free by
    # translation invariance
    for filt, state, gap in (("d6", "critical-limit", 2),
                             ("d4", "massive-thermal", 3)):
        s = rng.randrange(-8, 9)
        op = dict(kind="spincorr", state=state, filter=filt,
                  sites=[s, s + 1, s + gap, s + gap + 1])
        if state == "massive-thermal":
            op.update(massive())
        ops.append(op)
    s = rng.randrange(-8, 9)
    ops.append(dict(kind="spincorr", state="critical-limit", filter="d8",
                    sites=sorted(rng.sample(range(s, s + 6), 3))))
    ops.append(table("lattice", "d8", 4, t1=1.0,
                     t3=round(rng.uniform(0.5, 1.5), 6),
                     beta=_beta(rng, 0.5, 5.0, 0.5)))
    ops.append(table("renormalized", "d4", 3, m=rng.randrange(1, 4), t1=1.0,
                     t3=round(rng.uniform(0.5, 1.5), 6),
                     beta=_beta(rng, 0.5, 5.0, 0.5)))
    return ops


def _majorana(rng: random.Random) -> List:
    return [rng.choice(("sum", "diff")), rng.randrange(0, 3)]


def _certify_round(rng: random.Random, round_index: int) -> List[Dict]:
    # (filter, depth, t0 band, gamma band).  The pairing nodes grow with t0
    # and the renormalized window with 2^m, so both are pinned per cell; the
    # bands spread the cells over t0 in [0, 1].  d4 is inadmissible below
    # Sobolev weight ~0.36, so its gamma band is narrower.
    cells = (("d4", 3, (0.95, 1.0), (0.4, 0.6)),
             ("d6", 5, (0.45, 0.5), (0.3, 0.7)),
             ("d8", 8, (0.0, 0.05), (0.3, 0.7)))
    ops = []
    for filt, m, (lo, hi), (glo, ghi) in cells:
        ops.append(dict(kind="bound_report", filter=filt, m=m,
                        t0=round(rng.uniform(lo, hi), 6), t=1.0,
                        gamma=round(rng.uniform(glo, ghi), 6),
                        v1=_majorana(rng), v2=_majorana(rng)))
    # a second grid point of the d8 sweep: same vectors and gamma, so its
    # Sobolev norms come from the cache; its t0 band makes it cost about as
    # much as the other points, so the median op is one of four alike
    ops.append(dict(ops[-1], m=2, t0=round(rng.uniform(0.6, 0.65), 6)))
    ops.append(dict(kind="sup_constants",
                    t0_times_t=round(rng.uniform(0.05, 1.0), 6)))
    return ops


def _site_vector(rng: random.Random, start: int, length: int) -> Dict:
    return dict(start=start, values=_complex_list(rng, length))


def _flow_vectors(rng: random.Random) -> Tuple[Dict, Dict]:
    """Two overlapping vectors inside sites [-2, 2], one touching an end.

    The widest site sets the oscillation panels, so it is pinned to keep
    the cost of an op independent of the draw.
    """
    v1 = _site_vector(rng, rng.choice((-2, 1)), 2)
    length = rng.randrange(1, 4)
    lo = max(-2, v1["start"] - length + 1)
    hi = min(2 - length + 1, v1["start"] + 1)
    v2 = _site_vector(rng, rng.randrange(lo, hi + 1), length)
    return v1, v2


def _flow_round(rng: random.Random, round_index: int) -> List[Dict]:
    # (filter, depth, coupling class): a critical or massive op also
    # computes its limit reference, so the class is part of the cell.  The
    # three d4 reference ops at m 2, 4 and 6 cost about the same and are the
    # middle three of the eleven, so the median op is one of them.
    cells = (("d4", 2, "critical"), ("d4", 4, "massive"), ("d4", 6, "massive"),
             ("d4", 8, "off"), ("d4", 10, "critical"), ("d4", 12, "off"),
             ("d8", 3, "off"), ("d8", 5, "off"), ("d8", 7, "off"),
             ("d8", 9, "critical"), ("d8", 11, "off"))
    ops = []
    for filt, m, cls in cells:
        v1, v2 = _flow_vectors(rng)
        op = dict(kind="flow", filter=filt, m=m, coupling=cls, v1=v1, v2=v2)
        if cls == "critical":
            t = round(rng.uniform(0.5, 2.0), 6)
            op.update(t1=t, t3=t, beta=math.inf)
        elif cls == "off":
            op.update(t1=1.0, t3=round(rng.uniform(0.5, 1.5), 6),
                      beta=_beta(rng, 0.5, 10.0, 0.5))
        else:
            op.update(t=round(rng.uniform(0.5, 2.0), 6),
                      mu0=round(rng.uniform(0.25, 2.0), 6),
                      beta0=_beta(rng, 0.5, 5.0, 0.5))
        ops.append(op)
    return ops


# Tori of 8 and 16 spins.  The fifteen 16-spin tori (five of each shape,
# all about 20 ms) are the middle of every round's latencies, so the median
# op is one of them; as many as fifteen keep that median steady although
# one 20 ms op among heavy ones spreads by a fifth
_SMALL_TORI = ((1, 2), (2, 1)) + ((1, 4), (4, 1), (2, 2)) * 5
_TORI_20 = ((1, 5), (5, 1))
_TORI_24 = ((1, 6), (6, 1), (2, 3), (3, 2))


def _oracle_round(rng: random.Random, round_index: int) -> List[Dict]:
    def torus(M: int, N: int) -> Dict:
        return dict(kind="partition", M=M, N=N,
                    K1=round(rng.uniform(0.1, 1.0), 6),
                    K2=round(rng.uniform(0.1, 1.0), 6))

    ops = [torus(M, N) for M, N in _SMALL_TORI + _TORI_20]
    # the 24-spin shapes differ in cost by up to a tenth and the torus is
    # most of a round's time, so the shape goes by round, not by seed
    ops.append(torus(*_TORI_24[round_index % len(_TORI_24)]))
    # d4 at n_fine 8 is left out: its channel build is bound by page faults
    # (3.3M minor faults; 3.7 s in one run, 8.5-10 s in others on a 2-core
    # shared VM) and would swamp the spread; haar at 8 runs the same 8-mode
    # second quantization
    for filt, n_fine in (("haar", 4), ("haar", 8), ("d4", 4)):
        ops.append(dict(kind="channel", filter=filt, n_fine=n_fine,
                        seed=rng.randrange(2 ** 31), densities=3))
    return ops


_ROUNDS = {"spincorr": _spincorr_round, "certify": _certify_round,
           "flow": _flow_round, "oracle": _oracle_round}


def _oracle_rank(op: Dict) -> int:
    """Largest torus first, then the channels, then the small tori."""
    return -(4 * op["M"] * op["N"] if op["kind"] == "partition" else 18)


def round_ops(workload: str, seed: int, round_index: int) -> List[Dict]:
    """The ops of one round, in seeded order except where the order sets cost."""
    rng = _rng(workload, seed, round_index)
    ops = _ROUNDS[workload](rng, round_index)
    if workload == "certify":
        # built order: the second d8 point reuses the Sobolev norms of the
        # first, and the first point of a process runs about 1 s slower, so
        # a seeded order would change which points pay and move the median
        return ops
    if workload == "oracle":
        # a 16-spin torus runs in 0.020 s in a fresh process and in 0.014 s
        # once any larger torus has freed its arrays (the allocator's state
        # changes); largest first puts every small torus after that change,
        # where a seeded order would move the median op between the speeds
        return sorted(ops, key=_oracle_rank)
    rng.shuffle(ops)
    return ops


def pair_lookups(op) -> int:
    """Pair expectations a spin-correlation op asks for (cached or not)."""
    if op["kind"] != "spincorr":
        return 0
    if "sites" in op:
        sites = sorted(op["sites"])
        if len(sites) % 2:
            return 0
        n = 2 * sum(sites[i + 1] - sites[i] for i in range(0, len(sites), 2))
        return n * (n - 1) // 2
    # Toeplitz lags -d..d-2 plus the Pfaffian of 2d string factors, per d
    return sum((2 * d - 1) + d * (2 * d - 1) for d in range(1, op["dmax"] + 1))


def canonical(ops: List[Dict]) -> str:
    """Byte-stable JSON text of an op list."""
    return json.dumps(ops, sort_keys=True, separators=(",", ":"))


def ops_digest(ops: List[Dict]) -> str:
    return hashlib.sha256(canonical(ops).encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up and execution


def setup(lib, workload: str) -> Dict:
    """Build the workload's filters and their first momentum cutoffs."""
    filters = {name: lib.wavelet.make_daubechies_filter(filter_order(name))
               for name in FILTERS[workload]}
    for name in CUTOFF_FILTERS[workload]:
        lib.rgflow.momentum_cutoff(filters[name])
    return {"filters": filters}


def _site_vec(lib, spec: Dict):
    return lib.kernels.SiteVector(tuple(complex(re, im) for re, im in spec["values"]),
                                  spec["start"])


def _majorana_vec(lib, spec: List):
    tag, site = spec
    cls = lib.kernels.SelfDualVector
    return cls.position_sum(site) if tag == "sum" else cls.position_diff(site)


def _num(x: float) -> str:
    return "inf" if math.isinf(x) else repr(float(x))


def spincorr_argv(op: Dict, out: str) -> List[str]:
    """The ``isingrg spincorr`` command line of an op."""
    argv = ["spincorr", "--filter", op["filter"], "--state", op["state"],
            "--format", "json", "--out", out]
    if "sites" in op:
        argv.append("--sites=" + ",".join(str(s) for s in op["sites"]))
    else:
        argv += ["--dmax", str(op["dmax"])]
    for key in ("mu0", "beta0", "t1", "t3", "beta"):
        if key in op:
            argv += [f"--{key}", _num(op[key])]
    if "m" in op:
        argv += ["--m", str(op["m"])]
    return argv


def _exec_spincorr(lib, ctx, op):
    out = str(Path(ctx["outdir"]) / f"op{ctx['counter']}.json")
    ctx["counter"] += 1
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = lib.cli.main(spincorr_argv(op, out))
        except SystemExit as exc:  # argument errors exit through argparse
            code = exc.code
        dt = clock() - t0
    path = Path(out)
    rows = json.loads(path.read_text())["rows"] if path.exists() else []
    path.unlink(missing_ok=True)
    return dt, {"exit": code, "rows": rows}


def _exec_bound_report(lib, ctx, op):
    filt = ctx["filters"][op["filter"]]
    v1, v2 = _majorana_vec(lib, op["v1"]), _majorana_vec(lib, op["v2"])
    t0 = clock()
    rep = lib.errorbounds.bound_report(op["m"], op["t0"], op["t"], v1, v2, filt,
                                       op["gamma"])
    dt = clock() - t0
    return dt, {"satisfied": bool(rep.satisfied),
                "empirical": rep.empirical_error,
                "bound": rep.certified_bound}


def _exec_sup_constants(lib, ctx, op):
    t0 = clock()
    rep = lib.errorbounds.sup_constants(op["t0_times_t"], 0)
    dt = clock() - t0
    return dt, {"values": list(rep.values)}


def _inner(v1: Dict, v2: Dict) -> complex:
    a = {v1["start"] + j: complex(re, -im) for j, (re, im) in enumerate(v1["values"])}
    return sum(a.get(v2["start"] + j, 0.0) * complex(re, im)
               for j, (re, im) in enumerate(v2["values"]))


def _l1(v: Dict) -> float:
    return sum(math.hypot(re, im) for re, im in v["values"])


def flow_couplings(lib, op: Dict):
    if op["coupling"] == "massive":
        return lib.rgflow.calibrated_couplings(op["t"], op["mu0"], op["beta0"],
                                               op["m"])
    return lib.kernels.Couplings(op["t1"], op["t3"], op["beta"])


def _exec_flow(lib, ctx, op):
    filt = ctx["filters"][op["filter"]]
    v1, v2 = _site_vec(lib, op["v1"]), _site_vec(lib, op["v2"])
    rg = lib.rgflow
    # ordered pairs per kind: adag_a is taken on (v2, v1) so that it pairs
    # with a_adag(v1, v2) in the anticommutator
    pairs = {"a_adag": (v1, v2), "adag_a": (v2, v1),
             "adag_adag": (v1, v2), "a_a": (v1, v2)}
    t0 = clock()
    c = flow_couplings(lib, op)
    ren = {k: rg.renormalized_two_point(c, filt, op["m"], *pairs[k], k)
           for k in _KINDS}
    lim = None
    tail = None
    if op["coupling"] == "critical":
        lim = {k: rg.limit_two_point(filt, *pairs[k], k) for k in _KINDS}
    elif op["coupling"] == "massive":
        lim = {k: rg.massive_thermal_two_point(filt, *pairs[k], k, mu0=op["mu0"],
                                               beta0=op["beta0"], t=op["t"])
               for k in _KINDS}
    if lim is not None:
        tail = rg.momentum_cutoff(filt).tail
    label = rg.classify_flow(c).label
    dt = clock() - t0
    return dt, {"renormalized": ren, "limit": lim, "tail": tail, "label": label,
                "flow_parameter": c.flow_parameter}


def _exec_partition(lib, ctx, op):
    lo = lib.lattice_oracle
    spec = lo.TorusSpec(op["M"], op["N"], op["K1"], op["K2"])
    t0 = clock()
    z = {"transfer": lo.partition_function_transfer(spec),
         "brute": lo.partition_function_brute(spec),
         "tensor": lo.partition_function_tensor(spec)}
    dt = clock() - t0
    return dt, z


def channel_inputs(np, op: Dict):
    """Seeded random densities and coarse test vectors of a channel op."""
    rng = np.random.default_rng(op["seed"])
    dim, nc = 2 ** op["n_fine"], op["n_fine"] // 2
    out = []
    for _ in range(op["densities"]):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        xi = rng.normal(size=nc) + 1j * rng.normal(size=nc)
        eta = rng.normal(size=nc) + 1j * rng.normal(size=nc)
        out.append((rho, xi, eta))
    return out


def _exec_channel(lib, ctx, op):
    np = lib.np
    lo = lib.lattice_oracle
    filt = ctx["filters"][op["filter"]]
    inputs = channel_inputs(np, op)
    t0 = clock()
    u = lo.disentangler_matrix(filt, op["n_fine"])
    chan = lo.coarse_grain_channel(filt, op["n_fine"])
    traces, duals = [], []
    for rho, xi, eta in inputs:
        traces.append(complex(np.trace(chan.apply(rho))))
        duals.append(float(chan.duality_defect(rho, xi, eta)))
    dt = clock() - t0
    unitarity = float(np.abs(u.conj().T @ u - np.eye(op["n_fine"])).max())
    return dt, {"unitarity": unitarity, "traces": traces, "duality": duals}


_EXEC = {"spincorr": _exec_spincorr, "bound_report": _exec_bound_report,
         "sup_constants": _exec_sup_constants, "flow": _exec_flow,
         "partition": _exec_partition, "channel": _exec_channel}


def execute(lib, ctx: Dict, op: Dict):
    """Run one op; return (seconds spent in the package, observed result)."""
    return _EXEC[op["kind"]](lib, ctx, op)


def attempt(lib, ctx: Dict, op: Dict):
    """Execute and check one op: (seconds or None if it raised, violations)."""
    try:
        dt, result = execute(lib, ctx, op)
    except Exception as exc:  # an op that raises is a failed op
        return None, [f"{type(exc).__name__}: {exc}"]
    return dt, check(op, result)


# ---------------------------------------------------------------------------
# checks


def _check_spincorr(op, res) -> List[str]:
    bad = []
    if res["exit"] != 0:
        bad.append(f"exit code {res['exit']}")
    for row in res["rows"]:
        label, value, imag, delta = row
        if "sites" in op and len(op["sites"]) % 2:
            if value != 0.0 or imag != 0.0:
                bad.append(f"odd product {label} = {value!r} + {imag!r}i, not 0")
            continue
        if not abs(value) <= 1.0:
            bad.append(f"|value| {value!r} > 1 at {label}")
        if not imag <= IMAG_TOL:
            bad.append(f"imaginary residue {imag!r} at {label}")
        if "sites" not in op and not (delta is not None and delta <= PF_TOEPLITZ_TOL):
            bad.append(f"Pf - Toeplitz {delta!r} at {label}")
    expected = 1 if "sites" in op else op["dmax"]
    if len(res["rows"]) != expected:
        bad.append(f"{len(res['rows'])} rows, expected {expected}")
    return bad


def _check_bound_report(op, res) -> List[str]:
    if res["satisfied"] and res["empirical"] <= res["bound"] + 1e-8:
        return []
    return [f"empirical {res['empirical']!r} above bound {res['bound']!r}"]


def _check_sup_constants(op, res) -> List[str]:
    dev = max(abs(res["values"][0] - 0.5), abs(res["values"][1] - 0.5))
    return [] if dev <= SUP_TOL else [f"static sup-constants off 1/2 by {dev!r}"]


def _check_flow(op, res) -> List[str]:
    bad = []
    v1, v2 = op["v1"], op["v2"]
    inner = _inner(v1, v2)
    scale = _l1(v1) * _l1(v2)
    ren = res["renormalized"]
    car = abs(ren["a_adag"] + ren["adag_a"] - inner)
    if not car <= CAR_TOL * scale:
        bad.append(f"renormalized CAR residual {car!r}")
    if res["limit"] is not None:
        lim = res["limit"]
        car = abs(lim["a_adag"] + lim["adag_a"] - inner)
        if not car <= res["tail"] * scale + QUAD_SLACK:
            bad.append(f"limit CAR residual {car!r} above tail bound "
                       f"{res['tail'] * scale!r}")
    lam = res["flow_parameter"]
    want = "critical" if abs(lam) < 1e-14 else ("disorder" if lam > 0 else "order")
    if res["label"] != want:
        bad.append(f"classified {res['label']!r}, flow parameter {lam!r}")
    return bad


def _check_partition(op, res) -> List[str]:
    zb = res["brute"]
    spread = max(abs(res["transfer"] - zb), abs(res["tensor"] - zb)) / zb
    return [] if spread <= PARTITION_TOL else [f"route spread {spread!r}"]


def _check_channel(op, res) -> List[str]:
    bad = []
    if not res["unitarity"] <= UNITARITY_TOL:
        bad.append(f"unitarity defect {res['unitarity']!r}")
    tr = max(abs(t - 1.0) for t in res["traces"])
    if not tr <= TRACE_TOL:
        bad.append(f"trace defect {tr!r}")
    dual = max(res["duality"])
    if not dual <= DUALITY_TOL:
        bad.append(f"duality defect {dual!r}")
    return bad


_CHECK = {"spincorr": _check_spincorr, "bound_report": _check_bound_report,
          "sup_constants": _check_sup_constants, "flow": _check_flow,
          "partition": _check_partition, "channel": _check_channel}


def check(op: Dict, result: Dict) -> List[str]:
    """Violated conditions of one op's result (empty when it is correct)."""
    return _CHECK[op["kind"]](op, result)
