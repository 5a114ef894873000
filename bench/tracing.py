"""Spans around the calls between baylime's modules, recorded from outside.

baylime's modules call each other through module globals (``from .perturb
import build_perturbation_set`` binds a name in ``baylime.explainer``) and
methods through their classes. Both are looked up at call time, so
replacing the binding with a timing wrapper puts a span on every call that
crosses from one module into another, without editing the package.

A span is (name, layer, start, end, parent, op, info); its layer is the
module that defines the called function. Self time is the span's duration
minus the time its direct children cover, so summing self time per layer
splits an op's wall time between the layers, and whatever no layer claims
is the op's unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from time import perf_counter

LAYERS = ("perturb", "blackbox", "kernel", "regression", "types",
          "explainer", "metrics", "cli")
MODULES = ("baylime",) + tuple(f"baylime.{layer}" for layer in LAYERS)
FIT_MODES = ("lime", "non_informative", "partial", "full")

# Functions that matter as spans although their callers live in the same
# module: the sampling step inside build_perturbation_set.
SAME_MODULE = (("baylime.perturb", "perturb_matrix"),)

HYPER_LIMITS = (1e-10, 1e10)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _perturb_info(args, kwargs, result):
    interp, original = result
    return ("bytes", interp.nbytes + original.nbytes)


def _ridge_info(args, kwargs, result):
    return ("fit", "lime", 0, False)


def _surrogate_info(args, kwargs, result):
    prior = args[1] if len(args) > 1 else kwargs["prior"]
    clamped = any(v in HYPER_LIMITS
                  for v in (result.alpha_used, result.lambda_used))
    return ("fit", prior.mode, result.iterations, clamped)


# What a span records about the call, keyed by function name: the bytes a
# perturbation computes, and for a surrogate fit its mode, evidence
# iterations and whether a hyperparameter sits at a clamp limit.
INFO = {
    "perturb_matrix": _perturb_info,
    "ridge_fit": _ridge_info,
    "fit_surrogate": _surrogate_info,
}


class Tracer:
    """In-memory span recorder; records only while an op is open.

    Spans are kept column-wise in flat lists of strings and numbers, which
    the garbage collector does not track, so a long traced run does not
    make collections slower as spans pile up.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.infos: dict[int, tuple] = {}
        self._stack: list[int] = []
        self.op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if info is not None:
                tracer.infos[index] = info(args, kwargs, result)
            return result

        return traced

    def run_op(self, op: int, fn, *args):
        """Call ``fn(*args)`` as op ``op`` under a root span."""
        self.op = op
        self._stack = []
        index = self._open("op", "bench")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.op = None

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every cross-module function binding and every class method."""
        modules = [importlib.import_module(name) for name in MODULES]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("baylime.") or (
                        home == module.__name__
                        and (home, attr) not in SAME_MODULE):
                    continue
                self._replace(module, attr,
                              self.wrap(obj, f"{_layer(module.__name__)}."
                                        f"{attr}", _layer(home),
                                        INFO.get(attr)))
        for module in modules[1:]:
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    self._install_class(cls, _layer(module.__name__))

    def _install_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr != "__post_init__" and attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                wrapped = classmethod(self.wrap(member.__func__, name, layer))
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(self.wrap(member.__func__, name, layer))
            elif inspect.isfunction(member):
                wrapped = self.wrap(member, name, layer)
            else:
                continue
            self._replace(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def write(self, path) -> None:
        """One JSON line per span: name, layer, start, end, parent, op, info."""
        columns = zip(self.names, self.layers, self.starts, self.ends,
                      self.parents, self.ops)
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(columns):
                out.write(json.dumps(span + (self.infos.get(index),)) + "\n")


def layer_breakdown(tracer: Tracer) -> dict:
    """Totals over all traced ops: self time per layer and counts.

    Returns ``ops`` (number of root spans), ``op_s`` (their summed
    duration), ``self_s`` per layer, ``unattributed_s`` (op time no listed
    layer claims), fit time and count per mode, and summed counters:
    ``elicit_s``, ``model_s``, ``spawn_s``, ``kernel_calls``,
    ``perturb_bytes``, ``evidence_iters``, ``evidence_fits``,
    ``clamp_hits``.
    """
    names, layers, parents = tracer.names, tracer.layers, tracer.parents
    durations = [end - start for start, end in zip(tracer.starts,
                                                     tracer.ends)]
    child_s = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_s[parent] += durations[index]
    self_s = dict.fromkeys(LAYERS, 0.0)
    fit_s = dict.fromkeys(FIT_MODES, 0.0)
    fit_n = dict.fromkeys(FIT_MODES, 0)
    totals = dict.fromkeys(("elicit_s", "model_s", "spawn_s"), 0.0)
    totals.update(dict.fromkeys(("kernel_calls", "perturb_bytes",
                                 "evidence_iters", "evidence_fits",
                                 "clamp_hits"), 0))
    ops = 0
    op_s = 0.0
    for index, (name, layer) in enumerate(zip(names, layers)):
        duration = durations[index]
        if layer == "bench":
            ops += 1
            op_s += duration
            continue
        if layer in self_s:
            self_s[layer] += duration - child_s[index]
        if name == "cli.explain":
            totals["elicit_s"] += duration
        elif name == "model":
            totals["model_s"] += duration
        elif name in ("PredictorHandle.spawn", "PredictorHandle.close"):
            totals["spawn_s"] += duration
        elif name.endswith(".apply_weights"):
            totals["kernel_calls"] += 1
    for index, info in tracer.infos.items():
        if info[0] == "bytes":
            totals["perturb_bytes"] += info[1]
            continue
        _, mode, iterations, clamped = info
        fit_s[mode] += durations[index]
        fit_n[mode] += 1
        if mode in ("partial", "non_informative"):
            totals["evidence_iters"] += iterations
            totals["evidence_fits"] += 1
        totals["clamp_hits"] += clamped
    attributed = math.fsum(self_s.values())
    return {"ops": ops, "op_s": op_s, "self_s": self_s,
            "unattributed_s": op_s - attributed, "fit_s": fit_s,
            "fit_n": fit_n, **totals}
