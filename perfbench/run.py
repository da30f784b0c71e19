"""Seeded closed-loop benchmark of isingrg; the last output line is the result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spincorr --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh interpreter (``worker.py``) with one
client issuing one op at a time and BLAS held to one thread.  With
``--trace 0`` the result holds the end-to-end metrics: ``setup_s`` is the
median over several fresh interpreters of the time from spawn to the first
op being ready; the rest come from the measuring interpreter, which is the
first of those samples.  With ``--trace 1`` an untraced and a
traced interpreter run the same ops and the result holds the per-layer
metrics, the tracing overhead and the unattributed remainder.  Every time
is in reference seconds: scaled by host-speed samples taken around it, so
that the drift of a shared host cancels (``hostspeed.py``).

Full details -- provenance, op-list hash, failures, sample counts -- go to
``.perfbench_out/`` and the second-to-last output line.  The exit code is 2
when the checkout holds no ``src/isingrg`` to benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up samples per run: at least MIN, more while they sum to under
# SAMPLE_BUDGET_S seconds (cheap set-ups are noisier), at most MAX
SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES, SETUP_SAMPLE_BUDGET_S = 3, 7, 4.0
WORKER_TIMEOUT_S = 170.0
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "peak_rss_mb": "MB"}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(Path.cwd() / ".perfbench_out")
    return env


def spawn(args, mode: str, trace: int, deadline: float) -> dict:
    """Run one worker to completion; its set-up time is measured from here.

    Set-up is scaled to reference seconds by host-speed samples taken just
    before the spawn and in the worker once it is ready.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--trace", str(trace)]
    speed = hostspeed.sample()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_raw_s"] = res["ready"] - spawned
    res["setup_s"] = res["setup_raw_s"] * hostspeed.scale(
        [speed, res["speed_at_ready"]])
    return res


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src" / "isingrg"
    if not (src / "__init__.py").is_file():
        print(f"error: no isingrg package under {root / 'src'}", file=sys.stderr)
        return 2
    # set-up is timed from a fresh interpreter with bytecode already compiled
    compileall.compile_dir(str(src), quiet=1)
    (root / ".perfbench_out").mkdir(exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    try:
        if args.trace:
            base = spawn(args, "run", 0, deadline)
            res = spawn(args, "run", 1, deadline)
            metrics = {k: metric(v, "ratio" if "ratio" in k else
                                 "s" if k.endswith("_s") else "count")
                       for k, v in res["layers"].items()}
            metrics["trace.overhead_ratio"] = metric(
                res["ops_per_s"] / base["ops_per_s"], "ratio")
            names = tracing.layer_metric_names() + [
                "trace.unattributed_s", "trace.unattributed_ratio",
                "trace.overhead_ratio"]
            metrics = {k: metrics[k] for k in names}
            runs = [base, res]
        else:
            res = spawn(args, "run", 0, deadline)
            samples = [res["setup_s"]]
            while len(samples) < SETUP_MIN_SAMPLES or (
                    len(samples) < SETUP_MAX_SAMPLES
                    and sum(samples) < SETUP_SAMPLE_BUDGET_S):
                samples.append(spawn(args, "setup", 0, deadline)["setup_s"])
            metrics = {"setup_s": metric(statistics.median(samples), "s")}
            for key in ("ops_per_s", "op_p50_s", "peak_rss_mb"):
                metrics[key] = metric(res[key], E2E_UNITS[key])
            runs = [res]
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "runs": [{k: r[k] for k in ("attempted", "failed", "failures", "rounds",
                                    "busy_s", "busy_ref_s", "ops_per_s",
                                    "op_p50_s", "op_samples", "op_latencies",
                                    "ops_sha256", "setup_s", "setup_raw_s")}
                 for r in runs],
        "setup_samples_s": None if args.trace else samples,
        "fail_ratio": res["failed"] / res["attempted"],
        "provenance": res["provenance"],
        "spans": res.get("spans"),
        "metrics": metrics,
    }
    path = root / ".perfbench_out" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(detail, sort_keys=True))
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
