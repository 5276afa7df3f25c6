"""Compiler front-end benchmark: emits ``BENCH_compiler.json``.

Three sections:

* **compile** — programs/second over the benchmark sweep (every store
  workload under SINGLE_BANK/CB/CB_DUP), cold (every program built and
  compiled from source) versus warm (the same sweep read back through a
  persistent artifact store by a fresh-memory cache).  ``warm_speedup``
  is the headline, gated at 3x — the same claim ``BENCH_serve.json``
  holds for the store, restated in compiler terms.
* **memory** — peak RSS of a subprocess that does nothing but the cold
  sweep: a clean ceiling unpolluted by the pytest harness, gated
  absolutely at :data:`RSS_CEILING_MB`.
* **payload** — per-task pickled bytes on the worker dispatch paths:
  a coalesced serve group fat (every member carrying its own recipe
  dict) versus lightened (members stripped to per-instance fields, the
  head's recipe swapped for a content-address ref —
  :func:`~repro.serve.jobs.lighten_group`), plus the live
  ``supervised_map`` dispatch accounting (its recorder's
  ``supervised.payload_bytes`` counter) for the lightened group.  The
  reduction is gated: hash-first dispatch must stay far below the
  inline-recipe baseline.

The pytest entry point doubles as the regression gate: machine-neutral
ratios (``warm_speedup``, ``reduction_percent``) are compared against
the committed JSON with a tolerance; absolute wall-clock throughput is
recorded for trend reading but not gated — it tracks the host.

Run either way:

    python benchmarks/bench_compiler.py
    pytest benchmarks/bench_compiler.py -q
"""

import json
import multiprocessing
import pickle
import shutil
import tempfile
import time
from pathlib import Path

from repro.compiler import CompileOptions
from repro.evaluation.parallel import supervised_map
from repro.evaluation.runner import _compile_cached
from repro.fuzz.generator import generate_recipe
from repro.obs.core import Recorder
from repro.partition.strategies import Strategy
from repro.serve.jobs import execute_group, lighten_group
from repro.serve.protocol import validate_job
from repro.serve.store import ArtifactStore, CompileCache, process_compile_cache
from repro.workloads.registry import get_workload

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_compiler.json"

#: the compile sweep both throughput legs time
WORKLOADS = ("fir_32_1", "iir_1_1", "mult_4_4", "latnrm_8_1",
             "lmsfir_8_1", "fir_256_64")
STRATEGIES = (Strategy.SINGLE_BANK, Strategy.CB, Strategy.CB_DUP)

#: warm rounds (the minimum is reported; round 1 pays page-cache warmup)
WARM_ROUNDS = 3

#: the warm headline gate: store reads must beat recompiling by 3x
WARM_SPEEDUP_GATE = 3.0

#: absolute peak-RSS ceiling for the cold sweep, in MiB
RSS_CEILING_MB = 512

#: minimum payload shrink of a lightened serve group vs the fat one
PAYLOAD_REDUCTION_GATE = 40.0

#: allowed relative drop of the gated ratios vs the committed baseline
REGRESSION_TOLERANCE = 0.25

#: coalesced members in the payload group (a realistic fan-out)
PAYLOAD_GROUP = 16


# ---------------------------------------------------------------------
# Compile throughput: cold vs warm programs/s
# ---------------------------------------------------------------------
def _sweep(cache):
    for name in WORKLOADS:
        workload = get_workload(name)
        for strategy in STRATEGIES:
            _compile_cached(workload, CompileOptions(strategy=strategy), cache)


def bench_compile(root):
    store_dir = str(Path(root) / "store")
    programs = len(WORKLOADS) * len(STRATEGIES)

    cold_cache = CompileCache(store=ArtifactStore(store_dir))
    start = time.perf_counter()
    _sweep(cold_cache)
    cold_s = time.perf_counter() - start
    assert cold_cache.store.misses == programs

    warm_s = None
    for _ in range(WARM_ROUNDS):
        warm_cache = CompileCache(store=ArtifactStore(store_dir))
        start = time.perf_counter()
        _sweep(warm_cache)
        elapsed = time.perf_counter() - start
        warm_s = elapsed if warm_s is None else min(warm_s, elapsed)
        assert warm_cache.store.misses == 0

    return {
        "workloads": list(WORKLOADS),
        "strategies": [s.name for s in STRATEGIES],
        "programs": programs,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_programs_per_s": round(programs / cold_s, 2),
        "warm_programs_per_s": round(programs / warm_s, 2),
        "warm_speedup": round(cold_s / warm_s, 3),
    }


# ---------------------------------------------------------------------
# Memory: peak RSS of the cold sweep in a clean subprocess
# ---------------------------------------------------------------------
def _rss_probe(_arg):
    """Worker body: run the cold sweep (no store) and report this
    process's peak RSS in MiB.  Top level so the spawn context can
    pickle it."""
    import resource

    _sweep({})
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_memory():
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        peak_mb = pool.map(_rss_probe, [None])[0]
    return {
        "peak_rss_mb": round(peak_mb, 1),
        "ceiling_mb": RSS_CEILING_MB,
    }


# ---------------------------------------------------------------------
# Payload: fat vs lightened serve groups, live dispatch accounting
# ---------------------------------------------------------------------
def _payload_group(seed=11):
    """A coalesced group whose members each carry their own copy of one
    full recipe body — the inline-recipe baseline the lightener beats."""
    recipe = generate_recipe(seed).to_dict()
    return [
        validate_job({
            "kind": "recipe",
            # deep copy per job: real submissions decode from separate
            # JSON lines, nothing is object-shared
            "recipe": json.loads(json.dumps(recipe)),
            "strategy": "CB",
            "id": "job-%d" % index,
        })
        for index in range(PAYLOAD_GROUP)
    ]


def bench_payload(root):
    cache_dir = str(Path(root) / "payload-store")
    jobs = _payload_group()
    fat_task = (jobs, cache_dir, 64)
    fat_bytes = len(pickle.dumps(fat_task))

    store = process_compile_cache(cache_dir).store
    light = lighten_group(jobs, store=store)
    light_task = (light, cache_dir, 64)
    light_bytes = len(pickle.dumps(light_task))

    # drive lightened groups through the real supervised pool (two
    # tasks, two workers — one task would take the serial shortcut) so
    # the per-task accounting reflects live wire bytes
    other = lighten_group(_payload_group(seed=13), store=store)
    recorder = Recorder()
    results = supervised_map(
        execute_group,
        [light_task, (other, cache_dir, 64)],
        jobs=2,
        observe=recorder,
    )
    tasks = recorder.counters["supervised.tasks"]
    for group_results in results:
        assert all(result["ok"] for result in group_results)

    return {
        "group_jobs": PAYLOAD_GROUP,
        "fat_task_bytes": fat_bytes,
        "light_task_bytes": light_bytes,
        "reduction_percent": round(100.0 * (1.0 - light_bytes / fat_bytes), 1),
        "supervised_tasks": tasks,
        "supervised_bytes_per_task": round(
            recorder.counters["supervised.payload_bytes"] / tasks, 1
        ),
    }


def collect():
    root = tempfile.mkdtemp(prefix="bench-compiler-")
    try:
        return {
            "compile": bench_compile(root),
            "memory": bench_memory(),
            "payload": bench_payload(root),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def assert_no_regression(baseline, report, tolerance=REGRESSION_TOLERANCE):
    """The machine-neutral ratios may not silently collapse: the warm
    compile speedup and the payload reduction must stay within
    *tolerance* of the committed numbers."""
    old_speedup = baseline.get("compile", {}).get("warm_speedup")
    if old_speedup:
        new = report["compile"]["warm_speedup"]
        assert new >= old_speedup * (1.0 - tolerance), (
            "warm compile speedup regressed: %.2fx, was %.2fx"
            % (new, old_speedup)
        )
    old_reduction = baseline.get("payload", {}).get("reduction_percent")
    if old_reduction:
        new = report["payload"]["reduction_percent"]
        assert new >= old_reduction * (1.0 - tolerance), (
            "payload reduction regressed: %.1f%%, was %.1f%%"
            % (new, old_reduction)
        )


def main():
    report = collect()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print("wrote %s" % OUTPUT)
    return report


def test_compiler_trajectory():
    """Regenerate the JSON and hold the compiler claims: warm store
    reads beat cold compiles by at least 3x, the cold sweep fits under
    the RSS ceiling, lightened dispatch payloads stay far below the
    inline-recipe baseline, and neither committed ratio has regressed."""
    baseline = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else None
    report = main()
    assert report["compile"]["warm_speedup"] >= WARM_SPEEDUP_GATE
    assert report["memory"]["peak_rss_mb"] <= RSS_CEILING_MB
    assert report["payload"]["light_task_bytes"] < report["payload"]["fat_task_bytes"]
    assert report["payload"]["reduction_percent"] >= PAYLOAD_REDUCTION_GATE
    assert report["payload"]["supervised_tasks"] >= 1
    if baseline is not None:
        assert_no_regression(baseline, report)


if __name__ == "__main__":
    main()
