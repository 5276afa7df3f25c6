"""The four benchmark workloads.

Each workload does a fixed, seeded sequence of ops through the repo's
public entry points and returns an :class:`Outcome`.  The amount of
work follows from ``--seconds`` through a nominal per-op cost fixed
here, never from a speed measured at run time, so two runs with the
same arguments always do the same work.

``paper_cold``, ``paper_store`` and ``fuzz`` repeat their op list in
whole passes, each pass in a fresh child process, so nothing one pass
leaves behind in memory can make a later pass's ops warm.
"""

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time

from perfbench import serveload

#: seconds of ``--seconds`` per pass (sizing only).  A fuzz pass takes
#: about 4 s on a 2-core host; it is counted as 2 s so that each seed's
#: best time is taken over eight passes, enough to reach past the
#: host's slow spells, which last from one to about twenty seconds
NOMINAL_PASS_S = {
    "paper_cold": 2.2,   # Figures 7/8 and Table 3
    "paper_store": 1.6,  # the same, every compile read from the store
    "fuzz": 2.0,         # FUZZ_SEEDS seed checks
}

#: fuzz seeds checked in every pass
FUZZ_SEEDS = 16

#: most fuzz seeds are a fixed core starting here; the fresh sixteenth
#: of benchmark seed *n* starts at FUZZ_BASE + n * FUZZ_STRIDE
FUZZ_CORE = 1_000
FUZZ_FRESH_SHARE = 16
FUZZ_BASE = 1_000_000
FUZZ_STRIDE = 10_000

#: strategies the fuzz model count compiles each recipe under
FUZZ_MODEL_STRATEGIES = ("SINGLE_BANK", "CB", "CB_DUP", "IDEAL")

RUN_PY = os.path.join("perfbench", "run.py")


class Outcome:
    """What one timed sequence produced."""

    def __init__(self):
        #: per-op latency in seconds (None for an op that never finished)
        self.latencies = []
        self.attempted = 0
        self.failures = []
        #: ops that finished but missed the latency limit (serve only)
        self.slow = 0
        self.completed = 0
        #: completed ops per second (see each workload for its base)
        self.rate = 0.0
        self.peak_rss_mb = 0.0
        #: "<program>/<strategy>" -> (cycles, code words) per op output
        self.models = {}
        self.sim_cycles = 0
        self.code_words = 0
        #: output checks that failed (each makes the run incorrect)
        self.check_errors = []
        #: seconds of each set-up made in the run
        self.setups = []
        #: workload-specific figures for the per-layer report
        self.extra = {}


def paper_sequence():
    """``[(workload, strategies)]`` in the paper's order: the Figure 7
    kernels under CB and Ideal, then the Figure 8 / Table 3
    applications under CB, Pr, Dup, FullDup and Ideal (the single-bank
    baseline is always measured too)."""
    from repro.evaluation.paper_data import APPLICATION_ORDER, KERNEL_ORDER
    from repro.partition.strategies import Strategy
    from repro.workloads.registry import APPLICATIONS, KERNELS

    kernel = (Strategy.CB, Strategy.IDEAL)
    application = (Strategy.CB, Strategy.CB_PROFILE, Strategy.CB_DUP,
                   Strategy.FULL_DUP, Strategy.IDEAL)
    return ([(KERNELS[name], kernel) for name in KERNEL_ORDER]
            + [(APPLICATIONS[name], application)
               for name in APPLICATION_ORDER])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_child(workload, directory):
    """Set-up as a fresh process pays it: import the layers, build the
    registry and, for ``paper_store``, fill the artifact store."""
    from repro.evaluation import evaluate_workload
    from repro.fuzz.campaign import check_seed  # noqa: F401
    from repro.serve.store import ArtifactStore, CompileCache
    from repro.workloads.registry import all_workloads

    all_workloads()
    if workload == "paper_store":
        for source, strategies in paper_sequence():
            cache = CompileCache(store=ArtifactStore(directory))
            evaluate_workload(source, strategies, verify=False,
                              backend="jit", cache=cache)


def _timed_child(root, workload, directory):
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, RUN_PY, "--setup-child", workload,
         "--dir", directory],
        cwd=root, check=True, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def pass_child(workload, directory, seeds, trace_path):
    """One pass over the op list in this (fresh) process; returns a JSON
    record of per-op times, failures and model counts.  With
    *trace_path* the layer wrappers are installed and the spans written
    there."""
    tracer = None
    clock = time.perf_counter
    if trace_path:
        from perfbench.spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        clock = tracer.now  # stops while the wrappers measure themselves
    record = {"times": [], "failures": [], "models": {}, "store_misses": 0}
    if workload == "fuzz":
        _fuzz_pass(record, seeds, tracer, clock)
    else:
        _paper_pass(record, workload, directory, tracer, clock)
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(trace_path)
    return record


def _op_span(tracer):
    from contextlib import nullcontext

    return nullcontext() if tracer is None else tracer.span("op", op=True)


def _paper_pass(record, workload, directory, tracer, clock):
    from repro.evaluation import evaluate_workload
    from repro.serve.store import ArtifactStore, CompileCache

    for source, strategies in paper_sequence():
        cache = ({} if workload == "paper_cold"
                 else CompileCache(store=ArtifactStore(directory)))
        start = clock()
        try:
            with _op_span(tracer):
                evaluation = evaluate_workload(
                    source, strategies, verify=True, backend="jit",
                    cache=cache,
                )
        except Exception as error:  # a failed op is counted
            record["failures"].append("%s: %r" % (source.name, error))
            record["times"].append(None)
            continue
        record["times"].append(clock() - start)
        if workload == "paper_store":
            record["store_misses"] += cache.store.misses
        for strategy, measurement in evaluation.measurements.items():
            record["models"]["%s/%s" % (source.name, strategy.name)] = (
                measurement.cycles, measurement.code_size)


def _fuzz_pass(record, seeds, tracer, clock):
    from repro.fuzz.campaign import check_seed

    for fuzz_seed in seeds:
        start = clock()
        with _op_span(tracer):
            _seed, failure = check_seed(fuzz_seed)
        record["times"].append(clock() - start)
        if tracer is not None:
            tracer.count("fuzz.seeds")
        if failure is not None:
            record["failures"].append(
                "seed %d: %s: %s" % ((fuzz_seed,) + tuple(failure)))


class PassLoad:
    """A fixed op list repeated in whole passes, each pass in a fresh
    child process (``paper_cold``, ``paper_store``, ``fuzz``).

    Every pass does identical work, so time an op takes beyond its best
    is interference from the host: an op's latency is its best time over
    the passes, and the rate is that of one pass made of best times.
    """

    def __init__(self, name, root, work_dir, seed, seconds):
        self.name = name
        self.root = root
        self.work_dir = work_dir
        self.store_dir = None
        self._setups = 0
        self.seeds = None
        self.passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
        if name == "fuzz":
            fresh = max(1, FUZZ_SEEDS // FUZZ_FRESH_SHARE)
            first = FUZZ_BASE + seed * FUZZ_STRIDE
            core = FUZZ_SEEDS - fresh
            self.seeds = (list(range(FUZZ_CORE, FUZZ_CORE + core))
                          + list(range(first, first + fresh)))

    def setup(self):
        """One timed set-up; ``paper_store`` fills a fresh store."""
        self._setups += 1
        directory = os.path.join(self.work_dir, "store-%d" % self._setups)
        elapsed = _timed_child(self.root, self.name, directory)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir = directory
        return elapsed

    def _pass(self, trace_path=None):
        command = [sys.executable, RUN_PY, "--pass-child", self.name,
                   "--dir", self.store_dir]
        if self.seeds is not None:
            command += ["--seeds", ",".join(map(str, self.seeds))]
        if trace_path is not None:
            command += ["--trace-out", trace_path]
        completed = subprocess.run(
            command, cwd=self.root, check=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        return json.loads(completed.stdout.strip().splitlines()[-1])

    def run(self, setups=1, traced=False):
        """Make *setups* set-ups spread evenly over the passes (each
        before a pass, the first before the first) and run the passes;
        returns the :class:`Outcome`.

        With *traced*, every untraced pass is followed by a traced one
        and ``(untraced outcome, traced outcome, trace paths)`` is
        returned, so both legs see the same spells of host speed."""
        legs = (False, True) if traced else (False,)
        records = {leg: [] for leg in legs}
        paths = []
        before = [setup * self.passes // setups for setup in range(setups)]
        times = []
        for index in range(self.passes):
            times += [self.setup() for _ in range(before.count(index))]
            for leg in legs:
                path = None
                if leg:
                    path = os.path.join(self.work_dir, "trace-%d.json" % index)
                    paths.append(path)
                records[leg].append(self._pass(path))
        untraced = self._outcome(records[False])
        untraced.setups = times
        if not traced:
            return untraced
        return untraced, self._outcome(records[True]), paths

    def _outcome(self, records):
        outcome = Outcome()
        times = [[] for _ in records[0]["times"]]
        for record in records:
            outcome.attempted += len(record["times"])
            outcome.failures += record["failures"]
            outcome.peak_rss_mb = max(outcome.peak_rss_mb,
                                      record["peak_rss_mb"])
            for position, elapsed in enumerate(record["times"]):
                if elapsed is not None:
                    times[position].append(elapsed)
                    outcome.completed += 1
            for key, model in record["models"].items():
                previous = outcome.models.setdefault(key, tuple(model))
                if previous != tuple(model):
                    outcome.check_errors.append(
                        "%s changed between passes: %r then %r"
                        % (key, previous, tuple(model)))
        misses = sum(record["store_misses"] for record in records)
        if misses:
            outcome.check_errors.append(
                "%d compile(s) missed the filled store" % misses)
        outcome.latencies = [min(t) for t in times if t]
        outcome.rate = (len(outcome.latencies) / sum(outcome.latencies)
                        if outcome.latencies else 0.0)
        outcome.extra["op_times"] = times
        return outcome

    def check(self, outcome):
        """Model counts: each paper op's outputs as recorded; each fuzz
        seed's program compiled under the main strategies afterwards."""
        if self.seeds is not None:
            self._fuzz_models(outcome)
        for cycles, code_words in outcome.models.values():
            outcome.sim_cycles += cycles
            outcome.code_words += code_words

    def _fuzz_models(self, outcome):
        from repro.compiler import compile_module
        from repro.fuzz.generator import build_module, generate_recipe
        from repro.partition.strategies import Strategy
        from repro.sim.fastsim import make_simulator

        for fuzz_seed in self.seeds:
            recipe = generate_recipe(fuzz_seed)
            for name in FUZZ_MODEL_STRATEGIES:
                compiled = compile_module(build_module(recipe),
                                          strategy=Strategy[name])
                cycles = make_simulator(compiled.program,
                                        backend="jit").run().cycles
                outcome.models["seed%d/%s" % (fuzz_seed, name)] = (
                    cycles, compiled.code_size)

    def close(self):
        pass


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: replays of the serve schedule per run, each on a fresh service; the
#: schedule is sized so that all of them together take ``--seconds``
REPLAYS = 4

class ServeLoad:
    """A ``repro serve`` process under a seeded open-loop job mix (see
    :mod:`perfbench.serveload`).

    The schedule is replayed :data:`REPLAYS` times, each time on a fresh
    service started by its own set-up, and a request's latency is its
    best over the replays: every replay sends identical requests at
    identical offsets into an identical service, so time beyond a
    request's best is the host, as with the passes of :class:`PassLoad`.
    """

    def __init__(self, name, root, work_dir, seed, seconds, slo_ms=None):
        self.name = name
        self.root = root
        self.work_dir = work_dir
        self.slo_s = None if slo_ms is None else slo_ms / 1000.0
        self.schedule = serveload.timed_schedule(
            random.Random(seed),
            max(1, round(seconds * serveload.RATE / REPLAYS)),
        )
        self.service = None
        self._starts = 0

    def setup(self, traced_path=None):
        """Start a fresh service on a fresh store and run its warm-up
        pass; the previous service, if any, is stopped.  A traced
        service drops the warm-up's spans before this returns."""
        self.close()
        self._starts += 1
        directory = os.path.join(self.work_dir, "service-%d" % self._starts)
        os.makedirs(directory)
        start = time.perf_counter()
        self.service = serveload.Service(self.root, directory, traced_path)
        events = self.service.warm_up(serveload.warmup_jobs())
        elapsed = time.perf_counter() - start
        bad = [e for e in events if e.get("event") != "result"]
        if bad:
            raise RuntimeError("warm-up job failed: %r" % (bad[0],))
        if traced_path is not None:
            self.service.process.send_signal(signal.SIGUSR1)
            _wait_for(traced_path + ".reset")
        return elapsed

    def run(self, setups=1, traced_path=None):
        """Make *setups* set-ups (at least one per replay; the extra
        ones spread between the replays) and drive the schedule once on
        the service of each replay's set-up; returns the
        :class:`Outcome`.  With *traced_path* every replay's service is
        traced, each into its own file (``extra["trace_paths"]``)."""
        extra_setups = max(0, setups - REPLAYS)
        times = []
        replays = []
        trace_paths = []
        for replay in range(REPLAYS):
            times += [self.setup() for _ in range(
                (replay + 1) * extra_setups // REPLAYS
                - replay * extra_setups // REPLAYS)]
            path = None
            if traced_path is not None:
                path = "%s.%d" % (traced_path, replay)
                trace_paths.append(path)
            times.append(self.setup(path))
            replays.append(self._replay())
        self.close()  # a traced service writes its spans as it stops
        outcome = self._outcome(replays)
        outcome.setups = times
        outcome.extra["trace_paths"] = trace_paths
        return outcome

    def _replay(self):
        service = self.service
        before = service.stats()
        events, latencies, lateness, wall = serveload.run_open(
            service, self.schedule
        )
        after = service.stats()
        return {
            "events": events, "latencies": latencies, "lateness": lateness,
            "wall": wall, "peak_rss_mb": service.peak_rss_mb(),
            "stats": {key: after.get(key, 0) - before.get(key, 0)
                      for key in after},
        }

    def _outcome(self, replays):
        outcome = Outcome()
        best = [None] * len(self.schedule)
        samples = []
        for replay in replays:
            outcome.attempted += len(self.schedule)
            outcome.peak_rss_mb = max(outcome.peak_rss_mb,
                                      replay["peak_rss_mb"])
            for index, (event, latency) in enumerate(
                    zip(replay["events"], replay["latencies"])):
                kind = None if event is None else event.get("event")
                if kind != "result":
                    outcome.failures.append("request %d: %r"
                                            % (index, event))
                    continue
                outcome.completed += 1
                samples.append(latency)
                if best[index] is None or latency < best[index]:
                    best[index] = latency
                if self.slo_s is not None and latency > self.slo_s:
                    outcome.slow += 1
        wall = sum(replay["wall"] for replay in replays)
        outcome.latencies = best
        outcome.rate = outcome.completed / wall if wall else 0.0
        stats = {}
        for replay in replays:
            for key, value in replay["stats"].items():
                stats[key] = stats.get(key, 0) + value
        outcome.extra = {
            "stats": stats,
            "samples": samples,
            "lateness": [s for r in replays for s in r["lateness"]],
            "events": [r["events"] for r in replays],
        }
        return outcome

    def check(self, outcome):
        """Every result of every replay bit-identical (digest and
        cycles) to a direct ``execute_job`` of the same job; also the
        model counts, over the first replay's requests."""
        from repro.serve.jobs import compile_for_job, execute_job
        from repro.serve.protocol import validate_job

        cache = {}
        references = {}
        for replay, events in enumerate(outcome.extra["events"]):
            for (_due, job), event in zip(self.schedule, events):
                if event is None or event.get("event") != "result":
                    continue
                key = repr(sorted(job.items()))
                reference = references.get(key)
                if reference is None:
                    validated = validate_job(dict(job))
                    result = execute_job(validated, cache=cache)
                    compiled, _source = compile_for_job(validated, cache)
                    reference = (result, compiled.code_size)
                    references[key] = reference
                result, code_words = reference
                if (event["digest"] != result["digest"]
                        or event["cycles"] != result["cycles"]):
                    outcome.check_errors.append(
                        "replay %d, %s: served %s/%s, direct %s/%s"
                        % (replay, event["id"], event["cycles"],
                           event["digest"][:12], result["cycles"],
                           result["digest"][:12])
                    )
                if replay:
                    continue
                if job["kind"] == "recipe":
                    program = "recipe%d" % job["recipe"]["seed"]
                else:
                    program = job["workload"] + (
                        "+writes" if "writes" in job else "")
                outcome.models["%s/%s" % (
                    program, job.get("strategy", "CB"))] = (
                        result["cycles"], code_words)
                outcome.sim_cycles += result["cycles"]
                outcome.code_words += code_words
        del outcome.extra["events"]

    def close(self):
        if self.service is not None:
            self.service.stop()
            self.service = None


def _wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError("traced service never acknowledged reset")
        time.sleep(0.02)


LOADS = {
    "paper_cold": PassLoad,
    "paper_store": PassLoad,
    "fuzz": PassLoad,
    "serve": ServeLoad,
}
