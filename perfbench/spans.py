"""In-memory span tracer and the layer wrappers of the traced run.

Tracing is installed from the benchmark's own files: :func:`install`
replaces the public functions of each layer, as callers see them, with
timing wrappers.  Every span records its name, start, end, parent and
the id of the op it belongs to; spans stay in memory until the run ends
and can be written out as Chrome trace-event JSON.

The simulator has no public codegen entry point, but codegen is cached
per compiled program.  So the first run of a program on a backend is
split in two: a clone of the simulator, taken before that run, is run
again afterwards on the warm cache.  The repeat gives the execute time,
the rest of the first run is codegen.  Clone and repeat run on a paused
clock, outside every span.
"""

import copy
import json
import os
import threading
import time


class Tracer:
    """Spans and counts of one traced leg.

    Times come from a clock that stops while :meth:`paused` is active,
    so measurement work done by the wrappers themselves never shows in
    any span.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._paused_s = 0.0
        self._local = threading.local()
        self._next_op = 0
        self._lock = threading.Lock()

    def reset(self):
        """Drop every span and count recorded so far."""
        with self._lock:
            self.spans = []
            self.counts = {}
            self._next_op = 0

    def now(self):
        return time.perf_counter() - self._paused_s

    def paused(self):
        return _Pause(self)

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, op=False):
        """Context manager recording one span; ``op=True`` opens a new op
        (or, nested inside one, records a plain span of it)."""
        return _Span(self, name, op)

    def add(self, name, start, end):
        """Record a finished child span of the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "name": name, "start": start, "end": end,
            "parent": parent["index"] if parent else None,
            "op": parent["op"] if parent else None,
        }
        with self._lock:
            record["index"] = len(self.spans)
            self.spans.append(record)

    def self_times(self):
        """``{span name: summed self time}``: each span's duration minus
        the part its direct children cover."""
        covered = {}
        for record in self.spans:
            if record["parent"] is not None:
                duration = record["end"] - record["start"]
                covered[record["parent"]] = (
                    covered.get(record["parent"], 0.0) + duration
                )
        totals = {}
        for record in self.spans:
            own = (record["end"] - record["start"]
                   - covered.get(record["index"], 0.0))
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def inclusive_times(self, name):
        """Summed duration of the outermost spans called *name*."""
        return sum(record["end"] - record["start"] for record in self.spans
                   if record["name"] == name
                   and not self.within(record, name))

    def within(self, record, name):
        """Whether an ancestor span of *record* is called *name*."""
        parent = record["parent"]
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor["name"] == name:
                return True
            parent = ancestor["parent"]
        return False

    def dump(self, path):
        """Write the spans (Chrome trace-event JSON) and counts."""
        events = [
            {"name": r["name"], "ph": "X", "pid": 1, "tid": 1,
             "ts": r["start"] * 1e6, "dur": (r["end"] - r["start"]) * 1e6,
             "args": {"op": r["op"], "parent": r["parent"]}}
            for r in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "counts": self.counts,
                       "spans": self.spans}, handle)

    @classmethod
    def load(cls, *paths):
        """One tracer holding the spans and counts of every dump in
        *paths* (span indices and op ids renumbered to stay unique)."""
        tracer = cls()
        for path in paths:
            with open(path) as handle:
                data = json.load(handle)
            offset = len(tracer.spans)
            for record in data["spans"]:
                record["index"] += offset
                if record["parent"] is not None:
                    record["parent"] += offset
                if record["op"] is not None:
                    record["op"] += tracer._next_op
                tracer.spans.append(record)
            tracer._next_op = 1 + max(
                (r["op"] for r in data["spans"] if r["op"] is not None),
                default=tracer._next_op - 1)
            for name, amount in data["counts"].items():
                tracer.count(name, amount)
        return tracer


class _Pause:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *_exc):
        self.tracer._paused_s += time.perf_counter() - self.start


class _Span:
    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            op_id = parent["op"]
        elif self.op:
            with tracer._lock:
                op_id = tracer._next_op
                tracer._next_op += 1
        else:
            op_id = None
        self.record = {
            "name": self.name, "start": tracer.now(), "end": None,
            "parent": parent["index"] if parent else None, "op": op_id,
        }
        with tracer._lock:
            self.record["index"] = len(tracer.spans)
            tracer.spans.append(self.record)
        stack.append(self.record)
        return self.record

    def __exit__(self, *_exc):
        self.record["end"] = self.tracer.now()
        self.tracer._stack().pop()


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def rebind(original, wrapper):
    """Replace *original* by *wrapper* wherever a loaded ``repro`` module
    or class binds it, so every caller sees the wrapper."""
    import sys

    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _timed(tracer, name, function, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        tracer.count(name)
        if after is not None:
            after(result, args)
        return result

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", name)
    return wrapper


def _wrap_function(tracer, module, attribute, name, after=None):
    original = getattr(module, attribute)
    rebind(original, _timed(tracer, name, original, after))


def _wrap_method(tracer, cls, attribute, name, after=None):
    original = cls.__dict__[attribute]
    setattr(cls, attribute, _timed(tracer, name, original, after))


def _sim_wrapper(tracer, original, batch):
    """Wrap a simulator ``run``/``run_batch``: one ``sim.codegen`` span and
    one ``sim.execute`` span per outermost run (see the module doc)."""
    local = tracer._local

    def wrapper(self, *args, **kwargs):
        if getattr(local, "in_sim", False):
            return original(self, *args, **kwargs)
        program = self.program
        clone = None
        if type(self).backend_name != "interp":
            cache = getattr(program, "_codegen_cache", None) or {}
            qualname = type(self).__qualname__
            if not any(key[0] == qualname for key in cache):
                with tracer.paused():
                    memo = {id(program): program,
                            id(program.module): program.module}
                    clone = copy.deepcopy(self, memo)
        local.in_sim = True
        try:
            start = tracer.now()
            result = original(self, *args, **kwargs)
            end = tracer.now()
            split = start
            if clone is not None:
                with tracer.paused():
                    repeat_start = time.perf_counter()
                    original(clone, *args, **kwargs)
                    execute = time.perf_counter() - repeat_start
                split = max(start, end - execute)
                tracer.add("sim.codegen", start, split)
            tracer.add("sim.execute", split, end)
        finally:
            local.in_sim = False
        tracer.count("sim.runs")
        if batch:
            cycles = sum(o.result.cycles for o in result if o.error is None)
        else:
            cycles = result.cycles
        tracer.count("sim.cycles", cycles)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def install(tracer):
    """Wrap every layer's public functions for *tracer*; returns nothing.

    Import every layer first so that all aliases are rebound.
    """
    import repro.compiler.compaction as compaction
    import repro.compiler.pipeline as pipeline
    import repro.compiler.regalloc as regalloc
    import repro.evaluation.parallel as parallel
    import repro.evaluation.runner as runner
    import repro.fuzz.campaign  # noqa: F401  (binds check_recipe)
    import repro.fuzz.generator as generator
    import repro.fuzz.oracle as oracle
    import repro.partition.strategies as strategies
    import repro.serve.jobs  # noqa: F401  (binds _compile_cached)
    import repro.serve.service  # noqa: F401  (binds execute_group)
    from repro.ir.interp import IRInterpreter
    from repro.serve.store import ArtifactStore
    from repro.sim.batchsim import BatchSimulator
    from repro.sim.fastsim import FastSimulator
    from repro.sim.loopjit import LoopJitSimulator
    from repro.sim.simulator import Simulator
    from repro.workloads.base import Workload
    from repro.workloads.registry import all_workloads

    builders = set()
    for workload in all_workloads().values():
        builders.add(next(cls for cls in type(workload).__mro__
                          if "build" in cls.__dict__))
    for cls in builders:
        _wrap_method(tracer, cls, "build", "frontend.build")
    _wrap_function(tracer, generator, "build_module", "frontend.build")
    _wrap_method(tracer, Workload, "verify", "workloads.verify")
    _wrap_function(tracer, runner, "module_fingerprint", "ir.fingerprint")
    _wrap_method(tracer, IRInterpreter, "run", "ir.interp")
    _wrap_function(tracer, strategies, "run_allocation", "partition.allocate")
    _wrap_function(tracer, pipeline, "compile_module", "compiler.compile")
    _wrap_function(tracer, compaction, "compact_block", "compiler.schedule")
    _wrap_function(tracer, regalloc, "allocate_registers",
                   "compiler.regalloc")

    _wrap_function(tracer, runner, "_compile_cached",
                   "evaluation.compile_cached")
    _wrap_function(tracer, parallel, "batch_map", "evaluation.batch_map")
    _wrap_function(tracer, generator, "generate_recipe", "fuzz.generate")
    _wrap_function(tracer, oracle, "check_recipe", "fuzz.oracle")

    def store_read(result, args):
        store, key = args[0], args[1]
        if result is None:
            tracer.count("store.misses")
        else:
            tracer.count("store.hits")
            tracer.count("store.bytes", _size(store.path_for(key)))

    def store_write(_result, args):
        store, key = args[0], args[1]
        tracer.count("store.bytes", _size(store.path_for(key)))

    _wrap_method(tracer, ArtifactStore, "get", "store.get", store_read)
    _wrap_method(tracer, ArtifactStore, "put", "store.put", store_write)

    for cls in (Simulator, FastSimulator, LoopJitSimulator, BatchSimulator):
        if "run" in cls.__dict__:
            cls.run = _sim_wrapper(tracer, cls.__dict__["run"], batch=False)
    BatchSimulator.run_batch = _sim_wrapper(
        tracer, BatchSimulator.__dict__["run_batch"], batch=True
    )


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


#: span name -> the per-layer self-time metric it feeds
SELF_TIME_METRICS = {
    "frontend.build": "frontend.build_s",
    "ir.fingerprint": "ir.fingerprint_s",
    "ir.interp": "ir.interp_s",
    "partition.allocate": "partition.allocate_s",
    "compiler.schedule": "compiler.schedule_s",
    "compiler.regalloc": "compiler.regalloc_s",
    "sim.codegen": "sim.codegen_s",
    "sim.execute": "sim.execute_s",
    "workloads.verify": "workloads.verify_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "evaluation.batch_map": "evaluation.batch_map_s",
    "fuzz.generate": "fuzz.generate_s",
    "fuzz.oracle": "fuzz.oracle_s",
}


def layer_metrics(tracer):
    """Per-layer metrics of a finished traced leg.

    Every ``*_s`` figure is a self time, except ``compiler.compile_s``,
    which includes its pass children (allocation, register allocation,
    scheduling).  ``other_s`` is the op time no layer span covers.
    """
    own = tracer.self_times()
    counts = tracer.counts
    metrics = {metric: own.get(span, 0.0)
               for span, metric in SELF_TIME_METRICS.items()}
    metrics["compiler.compile_s"] = tracer.inclusive_times("compiler.compile")
    # the cache-lookup span is measurement glue, not a layer
    metrics["other_s"] = (own.get("op", 0.0)
                          + own.get("evaluation.compile_cached", 0.0))
    metrics["frontend.builds"] = counts.get("frontend.build", 0)
    metrics["ir.fingerprints"] = counts.get("ir.fingerprint", 0)
    metrics["compiler.compiles"] = counts.get("compiler.compile", 0)
    metrics["sim.runs"] = counts.get("sim.runs", 0)
    metrics["sim.cycles"] = counts.get("sim.cycles", 0)
    execute = metrics["sim.execute_s"]
    metrics["sim.cycles_per_s"] = (
        metrics["sim.cycles"] / execute if execute else 0.0
    )
    for name in ("store.hits", "store.misses", "store.bytes"):
        metrics[name] = counts.get(name, 0)
    # a compile-cache lookup is a hit unless a compile ran under it
    lookups = counts.get("evaluation.compile_cached", 0)
    missed = sum(1 for record in tracer.spans
                 if record["name"] == "compiler.compile"
                 and tracer.within(record, "evaluation.compile_cached"))
    metrics["evaluation.cache_hit_ratio"] = (
        (lookups - missed) / lookups if lookups else 0.0
    )
    metrics["fuzz.seeds"] = counts.get("fuzz.seeds", 0)
    return metrics
