"""One benchmark process: import isingrg, set up, then run rounds of ops.

Started by ``run.py`` in a fresh interpreter, from the root of a checkout.
``--mode setup`` stops once the first op is ready (a set-up sample);
``--mode run`` then executes whole rounds of seeded ops, one at a time,
until ``--seconds`` of package time (reference seconds) is used.  The last
line of standard output is one JSON object.  Set-up is reported as the monotonic time at
which the first op was ready, with a host-speed sample taken then; the
parent subtracts its spawn time.  Host-speed samples are also taken after
every op and, in untraced runs, on a timer while ops run; the reported
latencies are in reference seconds (see ``hostspeed.py``) and the raw ones
are kept beside them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_package(root: Path):
    """Import isingrg from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("isingrg")
    if Path(pkg.__file__).resolve().parent != (src / "isingrg").resolve():
        raise ImportError(f"isingrg imported from {pkg.__file__}, not {src}")
    lib = types.SimpleNamespace(package=pkg)
    for name in ("wavelet", "kernels", "rgflow", "correlators", "errorbounds",
                 "lattice_oracle", "cli", "_accel"):
        setattr(lib, name.lstrip("_"), importlib.import_module(f"isingrg.{name}"))
    lib.np = importlib.import_module("numpy")
    return lib


def provenance(root: Path, lib, seed: int) -> dict:
    import mpmath
    import scipy

    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "has_numba": bool(lib.accel.HAS_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "seed": seed,
    }


def run(args) -> dict:
    root = Path.cwd()
    lib = load_package(root)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib.package)
    t_setup = time.perf_counter()
    ctx = workloads.setup(lib, args.workload)
    setup_inproc = time.perf_counter() - t_setup
    ready = time.monotonic()
    speed = speed_at_ready = hostspeed.sample()
    if args.mode == "setup":
        return {"ready": ready, "speed_at_ready": speed}

    outdir = root / ".perfbench_out" / f"tmp-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    ctx.update(outdir=str(outdir), counter=0)
    # the traced run samples only between ops: a sample on the timer would
    # land inside the spans and count as package time
    sampler = hostspeed.Sampler()
    workloads.clock = sampler.clock
    if not tracer:
        sampler.start()
    latencies, by_op, failures, executed = [], [], [], []
    busy = busy_ref = 0.0
    round_index = 0
    try:
        # whole rounds keep every run at the same input mix; stop before a
        # round that would overrun the budget by more than half its length.
        # The budget is in reference seconds, so that the number of rounds
        # does not follow the host's speed
        while (round_index == 0
               or busy_ref + 0.5 * busy_ref / round_index < args.seconds):
            for op in workloads.round_ops(args.workload, args.seed, round_index):
                executed.append(op)
                if tracer:
                    tracer.begin_op()
                sampler.take()
                dt, bad = workloads.attempt(lib, ctx, op)
                after = hostspeed.sample()
                if dt is not None:
                    ref = dt * hostspeed.scale([speed] + sampler.take() + [after])
                    busy += dt
                    busy_ref += ref
                    latencies.append(ref)
                    by_op.append([op["kind"], op.get("filter"), op.get("m"),
                                  round(dt, 4), round(ref, 4)])
                speed = after
                if bad:
                    failures.append({"op": len(executed) - 1, "kind": op["kind"],
                                     "why": bad})
            round_index += 1
    finally:
        sampler.stop()
        shutil.rmtree(outdir, ignore_errors=True)

    ok = len(executed) - len(failures)
    out = {
        "ready": ready,
        "speed_at_ready": speed_at_ready,
        "attempted": len(executed),
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": round_index,
        "busy_s": busy,
        "busy_ref_s": busy_ref,
        "ops_per_s": ok / busy_ref if busy_ref > 0 else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_samples": len(latencies),
        "op_latencies": by_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_sha256": workloads.ops_digest(executed),
        "provenance": provenance(root, lib, args.seed),
    }
    if tracer:
        tracer.uninstall()
        layers = tracing.layer_metrics(
            tracer, sum(workloads.pair_lookups(op) for op in executed))
        program_s = setup_inproc + busy
        attributed = sum(tracer.self_times())
        layers["trace.unattributed_s"] = program_s - attributed
        layers["trace.unattributed_ratio"] = (program_s - attributed) / program_s
        # layer times in reference seconds, at the run's mean host speed
        to_ref = busy_ref / busy if busy > 0 else 1.0
        for key in layers:
            if key.endswith("_s"):
                layers[key] *= to_ref
        out["layers"] = layers
        spans_path = root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans()))
        out["spans"] = str(spans_path.relative_to(root))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
