"""Tests of the benchmark itself: determinism, negative controls, tracing.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_package  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def lib():
    return load_package(ROOT)


@pytest.fixture
def ctx(lib, tmp_path):
    c = workloads.setup(lib, "oracle")
    c["filters"].update(workloads.setup(lib, "certify")["filters"])
    c.update(outdir=str(tmp_path), counter=0)
    return c


def _cheapest(workload, kind, **match):
    for op in workloads.round_ops(workload, 5, 0):
        if op["kind"] == kind and all(op.get(k) == v for k, v in match.items()):
            return op
    raise LookupError((workload, kind, match))


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_ops(workload):
    for r in (0, 1):
        a = workloads.canonical(workloads.round_ops(workload, 42, r))
        b = workloads.canonical(workloads.round_ops(workload, 42, r))
        assert a.encode() == b.encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_or_round_gives_other_inputs(workload):
    base = workloads.canonical(workloads.round_ops(workload, 42, 0))
    assert workloads.canonical(workloads.round_ops(workload, 43, 0)) != base
    assert workloads.canonical(workloads.round_ops(workload, 42, 1)) != base


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_the_cost_cells(workload):
    """Seeds change values, never the cells that set an op's cost."""
    def cells(seed):
        keys = ("kind", "filter", "state", "dmax", "n_fine")
        return sorted(json.dumps([op.get("M", 0) * op.get("N", 0)]
                                 + [op.get(k) for k in keys])
                      for op in workloads.round_ops(workload, seed, 0))
    assert cells(1) == cells(2) == cells(3)


def test_program_receives_only_the_generated_inputs(lib, ctx):
    """An op rebuilt from its JSON text gives the identical result."""
    ops = [_cheapest("spincorr", "spincorr", state="lattice"),
           _cheapest("certify", "sup_constants"),
           _cheapest("flow", "flow", m=2),
           _cheapest("oracle", "partition", M=1, N=2)]
    for op in ops:
        rebuilt = json.loads(workloads.canonical([op]))[0]
        assert rebuilt == op
        _, first = workloads.execute(lib, ctx, op)
        _, again = workloads.execute(lib, ctx, rebuilt)
        assert first == again
        assert workloads.check(op, first) == []
    argv = workloads.spincorr_argv(ops[0], "out.json")
    assert argv[:2] == ["spincorr", "--filter"]
    assert repr(ops[0]["t3"]) in argv


# -- negative controls: a wrong answer counts as a failed op -------------------


def test_spincorr_perturbed_result_fails(lib, ctx):
    op = _cheapest("spincorr", "spincorr", state="lattice")
    _, res = workloads.execute(lib, ctx, op)
    assert workloads.check(op, res) == []
    bad = copy.deepcopy(res)
    bad["rows"][0][3] = 1e-6  # Pfaffian and Toeplitz disagree
    assert workloads.check(op, bad)
    bad = copy.deepcopy(res)
    bad["rows"][-1][1] = 1.01  # |correlation| above 1
    assert workloads.check(op, bad)
    odd = _cheapest("spincorr", "spincorr", filter="d8", state="critical-limit")
    assert workloads.check(dict(odd, sites=[0, 1, 2]),
                           {"exit": 0, "rows": [["sites:0,1,2", 1e-300, 0.0, None]]})


def test_certify_perturbed_results_fail(lib, ctx):
    op = _cheapest("certify", "sup_constants")
    _, res = workloads.execute(lib, ctx, op)
    assert workloads.check(op, res) == []
    assert workloads.check(op, {"values": [0.5 * 1.01] + res["values"][1:]})
    rep = _cheapest("certify", "bound_report")
    assert workloads.check(rep, {"satisfied": False, "empirical": 2.0, "bound": 1.0})


def test_flow_corrupted_filter_fails(lib, ctx):
    op = _cheapest("flow", "flow", m=2)
    assert workloads.attempt(lib, ctx, op)[1] == []
    good = ctx["filters"][op["filter"]]
    ctx["filters"][op["filter"]] = lib.wavelet.Filter(
        name=good.name + "-corrupt", order=good.order, taps=good.taps * 1.01)
    dt, bad = workloads.attempt(lib, ctx, op)
    assert any("CAR" in b for b in bad)


def test_oracle_perturbed_and_corrupted_fail(lib, ctx):
    op = _cheapest("oracle", "partition", M=1, N=2)
    _, res = workloads.execute(lib, ctx, op)
    assert workloads.check(op, res) == []
    assert workloads.check(op, dict(res, transfer=res["transfer"] * (1 + 1e-9)))
    chan = _cheapest("oracle", "channel", filter="d4", n_fine=4)
    assert workloads.attempt(lib, ctx, chan)[1] == []
    good = ctx["filters"]["d4"]
    ctx["filters"]["d4"] = lib.wavelet.Filter(name="db2-corrupt", order=2,
                                              taps=good.taps * 1.01)
    dt, bad = workloads.attempt(lib, ctx, chan)
    assert dt is None and bad  # the disentangler refuses a non-unitary filter


def test_exception_counts_as_failed(lib, ctx):
    op = dict(_cheapest("certify", "bound_report"), gamma=1.5)
    dt, bad = workloads.attempt(lib, ctx, op)
    assert dt is None and bad[0].startswith("ValueError")


# -- host-speed scaling ------------------------------------------------------------


def test_hostspeed_scale_cancels_a_uniform_slowdown():
    assert hostspeed.scale([hostspeed.REF_S, hostspeed.REF_S]) == 1.0
    # an op that took 3 s while the kernel ran at half speed is 1.5 s
    slow = 2 * hostspeed.REF_S
    assert math.isclose(3.0 * hostspeed.scale([slow, slow, slow]), 1.5)
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.sample(reps=3) > 0


def test_sampler_samples_during_an_op_and_leaves_it_out_of_the_clock():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 4 * hostspeed.TICK_S:
            sum(range(1000))
        wall, clocked = time.perf_counter() - t0, sampler.clock() - c0
    finally:
        sampler.stop()
    samples = sampler.take()
    assert len(samples) >= 2 and sampler.take() == []
    assert 0 < clocked < wall


# -- tracing ---------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores(lib, ctx):
    pkg = lib.package
    original = pkg.wavelet.s_hat
    tr = tracing.Tracer()
    tr.install(pkg)
    try:
        wrapped = pkg.wavelet.s_hat
        assert wrapped is not original
        for mod in (pkg.rgflow, pkg.correlators, pkg.errorbounds, pkg):
            assert mod.s_hat is wrapped
        assert pkg.cli._TABLE_COMMANDS["spincorr"].__wrapped__ is not None
        op = _cheapest("spincorr", "spincorr", state="lattice")
        dt, bad = workloads.attempt(lib, ctx, op)
        assert bad == []
    finally:
        tr.uninstall()
    assert pkg.wavelet.s_hat is original and pkg.rgflow.s_hat is original
    names = set(tr.names)
    assert {"cli.main", "cli.cmd_spincorr", "correlators.toeplitz_correlation",
            "correlators.pfaffian", "_quadrature.integrate"} <= names
    own = tr.self_times()
    assert min(own) > -1e-9
    assert math.isclose(sum(own), sum(e - s for s, e, p in
                                      zip(tr.start, tr.end, tr.parent) if p < 0))
    layers = tracing.layer_metrics(tr, pair_lookups=10)
    assert set(layers) == set(tracing.layer_metric_names())
    assert layers["cli.main.self_s"] > 0
    assert layers["correlators.pfaffian.dim"] > 0
