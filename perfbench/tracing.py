"""Out-of-tree tracing of isingrg: spans around every public function.

``Tracer.install`` replaces each public function of the package's modules
(and the few public methods named in ``METHODS``) by a wrapper that records
a span ``(name, start, end, parent)``.  Modules bind each other's functions
with ``from .x import y`` and the CLI dispatches through a dict, so every
binding of an original -- module globals, and values of module-level dicts
-- is patched, not only the defining module's.  ``uninstall`` restores them.
The source tree is not modified.

Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers,
where a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import types
from typing import Dict, List

LAYERS = ("wavelet", "_quadrature", "kernels", "_accel", "rgflow",
          "correlators", "errorbounds", "lattice_oracle", "cli")

# public methods traced besides module-level functions
METHODS = {
    "kernels": {"SiteVector": ("hat",),
                "SelfDualVector": ("weight", "weight_conj_reflected")},
    "lattice_oracle": {"CoarseGrainChannel": ("apply", "duality_defect", "embed")},
}


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter: ``_quadrature`` -> ``quadrature``."""
    return layer.lstrip("_")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _size_of(name: str, args, kwargs, result) -> int:
    """Work count of one call: nodes, node-levels, configurations, dim."""
    if name in ("wavelet.s_hat", "wavelet.m0"):
        return _size(args[1])
    if name == "kernels.SiteVector.hat":
        return _size(args[1])
    if name == "_accel.cascade_abs2":
        return _size(args[1]) * int(args[2])
    if name == "_accel.partition_brute":
        return 1 << (int(args[2]) * int(args[3]))
    if name == "_quadrature.symmetric_nodes":
        return _size(result[0])
    if name == "correlators.pfaffian":
        a = args[0]
        return int(getattr(a, "dim", None) or a.shape[0])
    return 0


class Tracer:
    """Span recorder for one process; install once, read out at the end."""

    def __init__(self):
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.size: List[int] = []
        self.touched_s_hat: List[bool] = []
        self.repeated: List[bool] = []
        self.unmet: List[int] = []
        self._stack: List[int] = []
        self._seen: set = set()
        self._patches: List = []

    # -- recording --------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new op: ``s_hat`` repeats are counted within one op."""
        self._seen = set()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.size.append(0)
            tracer.touched_s_hat.append(name == "wavelet.s_hat")
            tracer.repeated.append(False)
            if name == "_quadrature.integrate":
                f = args[0]

                def counted(x):
                    tracer.size[idx] += _size(x)
                    return f(x)
                args = (counted,) + tuple(args[1:])
            if name == "wavelet.s_hat":
                key = (hashlib.blake2b(args[0].taps.tobytes(), digest_size=8).digest(),
                       hashlib.blake2b(memoryview(_contiguous(args[1])),
                                       digest_size=16).digest())
                tracer.repeated[idx] = key in tracer._seen
                tracer._seen.add(key)
            tracer._stack.append(idx)
            tracer.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                parent = tracer.parent[idx]
                if parent >= 0 and tracer.touched_s_hat[idx]:
                    tracer.touched_s_hat[parent] = True
            if name != "_quadrature.integrate":
                tracer.size[idx] = _size_of(name, args, kwargs, result)
            if name == "rgflow.momentum_cutoff" and not result.met:
                tracer.unmet.append(idx)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions at every binding."""
        originals: Dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not callable(val):
                    continue
                if isinstance(val, type):
                    continue
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if not isinstance(val, types.FunctionType) and not hasattr(val, "__wrapped__"):
                    continue
                originals[id(val)] = (val, self._wrap(f"{layer}.{attr}", val))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, fn,
                              self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__
                                   or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    self._set(mod, attr, val, originals[id(val)][1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._set_item(val, key, item, originals[id(item)][1])

    def _set(self, obj, attr, old, new) -> None:
        setattr(obj, attr, new)
        self._patches.append(lambda: setattr(obj, attr, old))

    def _set_item(self, mapping, key, old, new) -> None:
        mapping[key] = new
        self._patches.append(lambda: mapping.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._patches:
            self._patches.pop()()

    # -- read-out ---------------------------------------------------------

    def self_times(self) -> List[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def spans(self) -> List[List]:
        return [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.start, self.end, self.parent)]


def _contiguous(x):
    import numpy as np
    return np.ascontiguousarray(x, dtype=float)


# span name -> the sums reported for it
_FUNCTION_METRICS = (
    ("wavelet.s_hat", ("calls", "self_s", "nodes")),
    ("wavelet.m0", ("calls", "self_s", "nodes")),
    ("_quadrature.integrate", ("calls", "self_s", "nodes")),
    ("_quadrature.symmetric_nodes", ("self_s",)),
    ("_accel.cascade_abs2", ("calls", "self_s", "node_levels")),
    ("_accel.partition_brute", ("self_s", "configs")),
    ("rgflow.renormalized_two_point", ("calls", "self_s")),
    ("rgflow.limit_two_point", ("calls", "self_s")),
    ("rgflow.momentum_cutoff", ("self_s",)),
    ("correlators.self_dual_two_point", ("calls", "self_s")),
    ("correlators.pfaffian", ("self_s", "dim")),
    ("correlators.toeplitz_correlation", ("self_s",)),
    ("errorbounds.sobolev_norm", ("calls", "self_s")),
    ("errorbounds.dynamical_pairing", ("calls", "self_s")),
    ("errorbounds.empirical_error", ("self_s",)),
    ("errorbounds.sup_constants", ("self_s",)),
    ("lattice_oracle.partition_function_transfer", ("self_s",)),
    ("lattice_oracle.partition_function_tensor", ("self_s",)),
    ("lattice_oracle.second_quantized", ("calls", "self_s")),
)

_RENAMED = {
    "lattice_oracle.CoarseGrainChannel.apply": "lattice_oracle.channel_apply",
    "lattice_oracle.CoarseGrainChannel.duality_defect": "lattice_oracle.duality_defect",
}


def layer_metric_names() -> List[str]:
    """Every per-layer metric ``layer_metrics`` reports, in order."""
    return list(layer_metrics(Tracer(), pair_lookups=0))


def layer_metrics(tr: Tracer, pair_lookups: int) -> Dict[str, float]:
    """Per-layer numbers from the recorded spans.

    ``pair_lookups`` is the number of pair expectations the ops' inputs
    imply.  A cutoff or Sobolev call that evaluated no ``s_hat`` below it
    was served from the package's cache.
    """
    own = tr.self_times()
    by_name: Dict[str, List[int]] = {}
    for i, n in enumerate(tr.names):
        by_name.setdefault(n, []).append(i)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        if layer == "cli":
            continue
        out[f"{metric_prefix(layer)}.self_s"] = sum(
            own[i] for i, n in enumerate(tr.names) if n.split(".")[0] == layer)
    for name, kinds in _FUNCTION_METRICS:
        idx = by_name.get(name, [])
        prefix = metric_prefix(name)
        for kind in kinds:
            if kind == "calls":
                out[f"{prefix}.calls"] = len(idx)
            elif kind == "self_s":
                out[f"{prefix}.self_s"] = sum(own[i] for i in idx)
            else:
                out[f"{prefix}.{kind}"] = sum(tr.size[i] for i in idx)
    hats = by_name.get("kernels.SiteVector.hat", [])
    out["kernels.hat.calls"] = len(hats)
    out["kernels.hat.nodes"] = sum(tr.size[i] for i in hats)
    s_hat = by_name.get("wavelet.s_hat", [])
    out["wavelet.s_hat.repeat_ratio"] = (
        sum(tr.repeated[i] for i in s_hat) / len(s_hat) if s_hat else 0.0)
    dyn = set(by_name.get("errorbounds.dynamical_pairing", []))
    out["errorbounds.dynamical_pairing.nodes"] = sum(
        tr.size[i] for i in by_name.get("_quadrature.symmetric_nodes", [])
        if tr.parent[i] in dyn)
    sob = by_name.get("errorbounds.sobolev_norm", [])
    out["errorbounds.sobolev_norm.hit_ratio"] = (
        sum(not tr.touched_s_hat[i] for i in sob) / len(sob) if sob else 0.0)
    cut = by_name.get("rgflow.momentum_cutoff", [])
    out["rgflow.momentum_cutoff.misses"] = sum(tr.touched_s_hat[i] for i in cut)
    out["rgflow.momentum_cutoff.unmet"] = sum(tr.touched_s_hat[i] for i in tr.unmet)
    integrals = len(by_name.get("correlators.self_dual_two_point", []))
    out["correlators.pair_cache.hit_ratio"] = (
        1.0 - integrals / pair_lookups if pair_lookups else 0.0)
    for src, dst in _RENAMED.items():
        out[f"{dst}.self_s"] = sum(own[i] for i in by_name.get(src, []))
    out["cli.main.self_s"] = sum(own[i] for i, n in enumerate(tr.names)
                                 if n.startswith("cli."))
    return out
