"""The benchmark's use of the package: every workload's cheapest op of each
kind runs through ``perfbench/workloads.py`` with no violated check, and the
methods the tracer wraps exist, and the same ops run under the installed
tracer.  Catches a package change that breaks the benchmark's API, its
output checks or its traced run before the benchmark runs."""

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


def _cheapest_ops(workloads, workload):
    """The cheapest op of each kind in round 0 of seed 1."""
    cheapest = {}
    for op in workloads.round_ops(workload, 1, 0):
        if op["kind"] not in cheapest or _cost(op) < _cost(cheapest[op["kind"]]):
            cheapest[op["kind"]] = op
    return list(cheapest.values())


WORKLOADS = ["spincorr", "certify", "flow", "oracle"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cheapest_ops_pass_their_checks(worker, workload, tmp_path):
    workloads = worker.workloads
    assert workload in workloads.WORKLOADS
    ctx = workloads.setup(worker.lib, workload)
    ctx.update(outdir=str(tmp_path), counter=0)
    for op in _cheapest_ops(workloads, workload):
        dt, bad = workloads.attempt(worker.lib, ctx, op)
        assert dt is not None and bad == [], (op, bad)


def _oracle_bindings():
    """Every place the package binds a ``lattice_oracle`` function: module
    globals, values of module-level dicts and the traced class methods."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("isingrg"):
            continue
        for holder in [vars(mod)] + [v for v in vars(mod).values()
                                     if isinstance(v, dict)]:
            for key, val in holder.items():
                if callable(val) and not isinstance(val, type) and \
                        getattr(val, "__module__", None) == "isingrg.lattice_oracle":
                    out.append((holder, key, val))
    cls = sys.modules["isingrg.lattice_oracle"].CoarseGrainChannel
    out += [(vars(cls), key, vars(cls)[key]) for key in vars(cls)
            if callable(vars(cls)[key])]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cheapest_ops(worker, workload, tmp_path):
    workloads, tracing = worker.workloads, worker.tracing
    ops = _cheapest_ops(workloads, workload)
    bindings = _oracle_bindings()
    tracer = tracing.Tracer()
    tracer.install(worker.lib.package)
    try:
        ctx = workloads.setup(worker.lib, workload)
        ctx.update(outdir=str(tmp_path), counter=0)
        for op in ops:
            tracer.begin_op()
            dt, bad = workloads.attempt(worker.lib, ctx, op)
            assert dt is not None and bad == [], (op, bad)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(
        tracer, pair_lookups=sum(workloads.pair_lookups(op) for op in ops))
    assert list(metrics) == tracing.layer_metric_names()
    assert [holder[key] is val for holder, key, val in bindings] == \
        [True] * len(bindings)
    if workload == "oracle":
        assert metrics["lattice_oracle.duality_defect.self_s"] > 0


def test_traced_methods_exist(worker):
    for layer, classes in worker.tracing.METHODS.items():
        module = importlib.import_module(f"isingrg.{layer}")
        for cls_name, methods in classes.items():
            for meth in methods:
                assert meth in vars(getattr(module, cls_name)), (layer, cls_name, meth)
