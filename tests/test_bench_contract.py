"""The benchmark's use of the package: every workload's cheapest op of each
kind runs through ``perfbench/workloads.py`` with no violated check, and the
methods the tracer wraps exist.  Catches a package change that breaks the
benchmark's API or its output checks before the benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def worker():
    """``perfbench/worker.py`` loaded by path; it imports ``workloads`` and
    ``tracing`` beside it.  ``sys.path`` is restored afterwards."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_worker", ROOT / "perfbench" / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.lib = module.load_package(ROOT)
    finally:
        sys.path[:] = saved
    return module


def _cost(op):
    """Rank of an op's cost within its kind: lags tabled, pairing time band,
    depth, torus size, fine sites."""
    return (op.get("dmax") or len(op.get("sites", ())), abs(op.get("t0", 0.0)),
            op.get("m", 0), op.get("M", 0) * op.get("N", 0), op.get("n_fine", 0))


@pytest.mark.parametrize("workload", ["spincorr", "certify", "flow", "oracle"])
def test_cheapest_ops_pass_their_checks(worker, workload, tmp_path):
    workloads = worker.workloads
    assert workload in workloads.WORKLOADS
    ctx = workloads.setup(worker.lib, workload)
    ctx.update(outdir=str(tmp_path), counter=0)
    cheapest = {}
    for op in workloads.round_ops(workload, 1, 0):
        if op["kind"] not in cheapest or _cost(op) < _cost(cheapest[op["kind"]]):
            cheapest[op["kind"]] = op
    for op in cheapest.values():
        dt, bad = workloads.attempt(worker.lib, ctx, op)
        assert dt is not None and bad == [], (op, bad)


def test_traced_methods_exist(worker):
    for layer, classes in worker.tracing.METHODS.items():
        module = importlib.import_module(f"isingrg.{layer}")
        for cls_name, methods in classes.items():
            for meth in methods:
                assert meth in vars(getattr(module, cls_name)), (layer, cls_name, meth)
