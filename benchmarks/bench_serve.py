"""Serving-layer benchmark: emits ``BENCH_serve.json``.

Three sections:

* **store** — the persistent artifact store's reason to exist: the same
  compile sweep (every benchmark workload under SINGLE_BANK/CB/CB_DUP)
  cold (empty store, every pair compiles) versus warm (fresh process
  memory, every pair unpickles from disk).  ``warm_speedup`` is the
  headline, gated at 3x: reading a compiled program back must be at
  least that much faster than recompiling it, or the store is overhead.
* **service** — an in-process :class:`~repro.serve.service.SimService`
  under a ~120-job mixed load (workloads x strategies x backends,
  recipes, per-instance writes) driven through the real socket path by
  :class:`~repro.serve.client.ServeClient`.  Reports sustained req/s and
  client-observed p50/p99 latency, and asserts the contract the numbers
  rest on: zero rejected submissions at the default queue limit and
  every result **bit-identical** (state digest) to a direct
  :func:`~repro.serve.jobs.execute_job` run of the same job.
* **service_journaled** — the same load with the write-ahead journal
  enabled (crash-safe serving), gated: journaling may cost at most 10%
  of sustained req/s (``journal_throughput_ratio`` ≥ 0.9), and every
  accepted job must have a completed journal record afterwards.

The pytest entry point doubles as the regression gate: machine-neutral
claims (``warm_speedup``, bit-identity, zero rejections) are asserted
absolutely, and ``warm_speedup`` is additionally compared against the
committed JSON with a tolerance so a store-layer regression cannot land
silently.  Absolute latencies are recorded for trend reading but not
gated — they track the host, not the code.

Run either way:

    python benchmarks/bench_serve.py
    pytest benchmarks/bench_serve.py -q
"""

import asyncio
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.compiler import CompileOptions
from repro.evaluation.runner import _compile_cached
from repro.partition.strategies import Strategy
from repro.serve.client import ServeClient
from repro.serve.jobs import execute_job
from repro.serve.protocol import validate_job
from repro.serve.service import SimService
from repro.serve.store import ArtifactStore, CompileCache
from repro.workloads.registry import get_workload

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: the compile sweep both store legs time
STORE_WORKLOADS = ("fir_32_1", "iir_1_1", "mult_4_4", "latnrm_8_1",
                   "lmsfir_8_1", "fir_256_64")
STORE_STRATEGIES = (Strategy.SINGLE_BANK, Strategy.CB, Strategy.CB_DUP)

#: warm rounds (the minimum is reported; round 1 pays page-cache warmup)
WARM_ROUNDS = 3

#: the warm-cache headline gate: unpickling must beat recompiling by 3x
WARM_SPEEDUP_GATE = 3.0

#: allowed relative drop of warm_speedup against the committed baseline
REGRESSION_TOLERANCE = 0.25

#: write-ahead journaling may cost at most 10% of sustained req/s
JOURNAL_THROUGHPUT_GATE = 0.9


# ---------------------------------------------------------------------
# Store: cold vs warm compile sweep
# ---------------------------------------------------------------------
def _sweep(cache):
    for name in STORE_WORKLOADS:
        workload = get_workload(name)
        for strategy in STORE_STRATEGIES:
            _compile_cached(workload, CompileOptions(strategy=strategy), cache)


def bench_store(root):
    store_dir = str(Path(root) / "store")
    pairs = len(STORE_WORKLOADS) * len(STORE_STRATEGIES)

    cold_cache = CompileCache(store=ArtifactStore(store_dir))
    start = time.perf_counter()
    _sweep(cold_cache)
    cold_s = time.perf_counter() - start
    assert cold_cache.store.misses == pairs

    warm_s = None
    for _ in range(WARM_ROUNDS):
        # a fresh CompileCache per round = a fresh process's first sweep:
        # empty memory tier, every lookup satisfied from disk
        warm_cache = CompileCache(store=ArtifactStore(store_dir))
        start = time.perf_counter()
        _sweep(warm_cache)
        elapsed = time.perf_counter() - start
        warm_s = elapsed if warm_s is None else min(warm_s, elapsed)
        assert warm_cache.store.hits == pairs
        assert warm_cache.store.misses == 0

    return {
        "workloads": list(STORE_WORKLOADS),
        "strategies": [s.name for s in STORE_STRATEGIES],
        "compiles": pairs,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 3),
        "store_bytes": ArtifactStore(store_dir).total_bytes(),
    }


# ---------------------------------------------------------------------
# Service: mixed load over the socket
# ---------------------------------------------------------------------
def _job_mix():
    """~115 mixed jobs: repeats drive coalescing, strategy/backend/
    recipe/writes variety drives distinct compile groups."""
    jobs = []
    for repeat in range(6):
        for name in ("fir_32_1", "iir_1_1", "mult_4_4", "latnrm_8_1"):
            for strategy in ("SINGLE_BANK", "CB", "CB_DUP"):
                jobs.append({"kind": "run", "workload": name,
                             "strategy": strategy})
        for backend in ("interp", "fast", "jit"):
            jobs.append({"kind": "run", "workload": "fir_32_1",
                         "backend": backend})
        for seed in (3, 5):
            jobs.append({"kind": "recipe", "recipe": {"seed": seed},
                         "strategy": "CB"})
        jobs.append({"kind": "run", "workload": "fir_32_1",
                     "writes": {"x": [float(repeat)] * 32},
                     "reads": ["y"]})
        jobs.append({"kind": "run", "workload": "mult_4_4",
                     "strategy": "CB_PROFILE"})
    return jobs


def _percentile(sorted_values, fraction):
    index = round(fraction * (len(sorted_values) - 1))
    return sorted_values[index]


def bench_service(root, journal=False):
    jobs = _job_mix()
    leg = "journaled" if journal else "plain"
    serve_dir = str(Path(root) / ("serve-cache-%s" % leg))
    journal_path = str(Path(root) / ("journal-%s.jsonl" % leg))
    direct_dir = str(Path(root) / "direct-cache")

    async def run_load():
        service = SimService(
            cache_dir=serve_dir,
            journal=journal_path if journal else None,
        )
        host, port = await service.start()
        loop = asyncio.get_event_loop()

        def client_leg():
            with ServeClient(host, port) as client:
                start = time.perf_counter()
                events = client.run_jobs(jobs)
                elapsed = time.perf_counter() - start
                stats = client.stats()
            return events, stats, elapsed

        try:
            return await loop.run_in_executor(None, client_leg)
        finally:
            await service.stop()

    events, stats, elapsed = asyncio.run(run_load())

    rejected = sum(1 for e in events if e["event"] == "rejected")
    errors = sum(1 for e in events if e["event"] == "error")
    bit_identical = True
    for job, event in zip(jobs, events):
        if event["event"] != "result":
            continue
        reference = execute_job(validate_job(dict(job)), cache_dir=direct_dir)
        if (event["digest"] != reference["digest"]
                or event["cycles"] != reference["cycles"]):
            bit_identical = False
    latencies = sorted(e["latency_s"] for e in events)
    journaled_terminals = None
    if journal:
        # the durability contract the throughput ratio is priced
        # against: every accepted job has a completed journal record
        from repro.evaluation.parallel import Journal

        log = Journal(journal_path)
        journaled_terminals = len(log.completed)
        log.close()
        assert journaled_terminals == len(jobs) - rejected
    return {
        "journal": journal,
        "journaled_terminals": journaled_terminals,
        "jobs": len(jobs),
        "rejected": rejected,
        "errors": errors,
        "bit_identical": bit_identical,
        "wall_clock_s": round(elapsed, 4),
        "req_per_s": round(len(jobs) / elapsed, 1),
        "latency_p50_s": round(_percentile(latencies, 0.50), 5),
        "latency_p99_s": round(_percentile(latencies, 0.99), 5),
        "coalesced": stats.get("serve.coalesced", 0),
        "dispatch_rounds": stats.get("serve.dispatches", 0),
        "groups": stats.get("serve.groups", 0),
        "store_misses": stats.get("serve.store_misses", 0),
        "store_hits": stats.get("serve.store_hits", 0),
    }


def collect():
    root = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        report = {
            "store": bench_store(root),
            "service": bench_service(root),
            "service_journaled": bench_service(root, journal=True),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    report["journal_throughput_ratio"] = round(
        report["service_journaled"]["req_per_s"]
        / report["service"]["req_per_s"],
        3,
    )
    return report


def assert_no_regression(baseline, report, tolerance=REGRESSION_TOLERANCE):
    """The machine-neutral store headline may not silently collapse:
    warm_speedup must stay within *tolerance* of the committed ratio."""
    old = baseline.get("store", {}).get("warm_speedup")
    if not old:
        return
    new = report["store"]["warm_speedup"]
    assert new >= old * (1.0 - tolerance), (
        "warm-cache speedup regressed: %.2fx, was %.2fx (tolerance %d%%)"
        % (new, old, round(tolerance * 100))
    )


def main():
    report = collect()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print("wrote %s" % OUTPUT)
    return report


def test_serve_trajectory():
    """Regenerate the JSON and hold the serving-layer claims: a warm
    artifact store beats recompiling by at least 3x, the mixed load is
    admitted in full (zero rejections at the default queue limit), every
    job terminates, every result is bit-identical to its direct run, and
    the committed warm-cache ratio has not regressed."""
    baseline = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else None
    report = main()
    assert report["store"]["warm_speedup"] >= WARM_SPEEDUP_GATE
    assert report["service"]["rejected"] == 0
    assert report["service"]["errors"] == 0
    assert report["service"]["bit_identical"]
    assert report["service"]["coalesced"] > 0
    assert report["service"]["req_per_s"] > 0
    # durability is near-free: the write-ahead journal may cost at most
    # 10% of sustained throughput (both legs run cold caches)
    assert report["service_journaled"]["bit_identical"]
    assert report["service_journaled"]["errors"] == 0
    assert report["journal_throughput_ratio"] >= JOURNAL_THROUGHPUT_GATE
    if baseline is not None:
        assert_no_regression(baseline, report)


if __name__ == "__main__":
    main()
