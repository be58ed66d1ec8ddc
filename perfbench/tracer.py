"""Span tracing of greentx layers from outside the package.

``Tracer.install`` replaces named functions and methods with timing
wrappers and ``Tracer.restore`` puts the originals back. Targets are
resolved by name when installed, so a name that a later version of the
package removes or renames is reported in ``Tracer.absent`` instead of
failing the run. A module-level function is replaced in every greentx
module that binds it, because ``from .planner import value_iteration``
copies the reference into the importing module.

Each span records its name, start, end and parent span, so a layer's self
time is its duration minus the time covered by its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped name: a span, or (``count``) an entry counter without timing."""

    span: str
    module: str
    qualname: str
    kind: str = "span"  # "span" | "count"
    entries: str = "one"  # count targets: "one" per call, or the call's "return"


# The run loop calls act, step, learn and metrics once per slot; everything
# else the loop does between the first two act calls is "loop_other".
SLOT_SPANS = ("learners.act", "env.step", "learners.learn", "harness.metrics")

TARGETS = (
    Target("model.build", "greentx.model", "JointModel.__init__"),
    Target("planner.vi", "greentx.planner", "value_iteration"),
    Target("pds.fp", "greentx.pds", "pds_value_iteration"),
    Target("pds.init", "greentx.pds", "init_pds_values"),
    Target("pds.slice", "greentx.pds", "FactoredDynamics.state_values_slice"),
    Target("learners.act", "greentx.learners", "QLearner.act"),
    Target("learners.act", "greentx.learners", "PdsLearner.act"),
    Target("learners.act", "greentx.harness", "SuboptimalActor.act"),
    Target("learners.learn", "greentx.learners", "QLearner.learn"),
    Target("learners.learn", "greentx.learners", "PdsLearner.learn"),
    Target("learners.learn", "greentx.harness", "SuboptimalActor.learn"),
    Target("learners.entries", "greentx.learners", "ve_batch_update", "count", "return"),
    Target("learners.entries", "greentx.learners", "pds_update", "count"),
    Target("learners.entries", "greentx.learners", "q_update", "count"),
    Target("env.step", "greentx.env", "Environment.step"),
    Target("harness.metrics", "greentx.harness", "MetricsAccumulator.update"),
    Target("harness.csv", "greentx.harness", "emit_metrics_csv"),
    Target("harness.tables", "greentx.harness", "serialize_tables"),
)


class Tracer:
    """In-memory span recorder; ``spans`` rows are [name, start, end, parent, sweeps]."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list = []
        self.entries = 0
        self.absent: list[str] = []
        self.no_sweep_hook: list[str] = []
        self._stack: list[int] = []
        self._count_depth = 0
        self._patches: list = []  # (owner, attribute, original)

    # ---- install / restore ------------------------------------------------

    def install(self) -> None:
        self.absent = []
        self.no_sweep_hook = []
        for t in self.targets:
            try:
                owner, attr, original = _resolve(t.module, t.qualname)
            except (ImportError, AttributeError):
                self.absent.append(f"{t.module}:{t.qualname}")
                continue
            if t.kind == "count":
                wrapper = self._counter(original, t.entries == "return")
            else:
                wrapper = self._timer(original, t.span, t.qualname)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in _package_modules(t.module):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def clear(self) -> None:
        self.spans.clear()
        self.entries = 0

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # ---- wrappers -----------------------------------------------------------

    def _timer(self, fn, span: str, qualname: str):
        spans, stack = self.spans, self._stack
        residuals_at = _parameter_position(fn, "residuals") if span == "planner.vi" else None
        if span == "planner.vi" and residuals_at is None:
            self.no_sweep_hook.append(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = None
            if residuals_at is not None:
                trace = kwargs.get("residuals")
                if len(args) > residuals_at:
                    trace = args[residuals_at]
                elif trace is None:
                    trace = kwargs["residuals"] = []
            before = len(trace) if trace is not None else 0
            idx = len(spans)
            row = [span, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(row)
            stack.append(idx)
            row[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
                if trace is not None:
                    row[4] = len(trace) - before

        return wrapper

    def _counter(self, fn, from_return: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # only the outermost update counts: a batch update that falls back
            # to a single-entry update must not count that entry twice
            tracer._count_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._count_depth -= 1
            if tracer._count_depth == 0:
                tracer.entries += int(result) if from_return else 1
            return result

        return wrapper


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    if not callable(original):
        raise AttributeError(f"{module}:{qualname} is not callable")
    return owner, attr, original


def _package_modules(module: str):
    package = module.split(".")[0]
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def _parameter_position(fn, name: str):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index(name) if name in params else None


# ---------------------------------------------------------------------------
# Aggregation of one traced call
# ---------------------------------------------------------------------------


@dataclass
class CallProfile:
    """Per-span totals of one traced entry-point call, plus its slot times.

    ``slot_self_s`` and ``slot_calls`` count only spans that run inside one
    of the four per-slot spans of a complete slot, so set-up work (an
    offline init that calls the same functions) stays out of per-slot
    figures.
    """

    self_s: dict
    incl_s: dict
    calls: dict
    sweeps: int
    slot_self_s: dict
    slot_calls: dict
    slot_s: list  # durations of complete slots
    slot_other_s: float  # complete-slot time not covered by the four slot spans


def profile(spans) -> CallProfile:
    # A slot runs from one top-level act span to the next; the last slot has
    # no closing act and is left out of every per-slot figure.
    roots = [i for i, row in enumerate(spans) if row[3] < 0]
    starts = [k for k, i in enumerate(roots) if spans[i][0] == SLOT_SPANS[0]]
    slot_s = []
    slot_other = 0.0
    for k0, k1 in zip(starts, starts[1:]):
        dur = spans[roots[k1]][1] - spans[roots[k0]][1]
        covered = sum(
            spans[i][2] - spans[i][1] for i in roots[k0:k1] if spans[i][0] in SLOT_SPANS
        )
        slot_s.append(dur)
        slot_other += dur - covered
    first, last = (roots[starts[0]], roots[starts[-1]]) if starts else (0, 0)

    child = [0.0] * len(spans)
    for row in spans:
        if row[3] >= 0:
            child[row[3]] += row[2] - row[1]
    self_s: dict = {}
    incl_s: dict = {}
    calls: dict = {}
    slot_self_s: dict = {}
    slot_calls: dict = {}
    sweeps = 0
    top = []  # index of each span's top-level ancestor
    for i, (name, t0, t1, parent, sw) in enumerate(spans):
        top.append(i if parent < 0 else top[parent])
        own = (t1 - t0) - child[i]
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        sweeps += sw
        if first <= i < last and spans[top[i]][0] in SLOT_SPANS:
            slot_self_s[name] = slot_self_s.get(name, 0.0) + own
            slot_calls[name] = slot_calls.get(name, 0) + 1
    return CallProfile(self_s, incl_s, calls, sweeps, slot_self_s, slot_calls, slot_s, slot_other)
