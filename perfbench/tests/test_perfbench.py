"""The benchmark's own tests: determinism, input hygiene, and the
metric sets ``BENCHMARK.json`` declares.

    python3 -m pytest perfbench/tests -q

The runs here are tiny (``--seconds 1``); they check what repeats, not
how fast anything is.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import loads, serveload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload, seed, trace, cwd=ROOT):
    completed = subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed


def _result(workload, seed, trace):
    completed = _run(workload, seed, trace)
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


#: count-type metrics that must repeat exactly at one seed
EXACT = ("sim_cycles", "code_words", "compiler.compiles", "store.hits",
         "store.misses", "fuzz.seeds", "frontend.builds", "ir.fingerprints",
         "sim.runs", "sim.cycles")

#: on serve, builds and runs follow the dispatcher's timing-dependent
#: grouping; compiles (one per fresh recipe) and model counts do not
SERVE_EXACT = ("sim_cycles", "code_words", "compiler.compiles",
               "store.misses")


@pytest.mark.parametrize("workload, exact", [
    ("paper_store", EXACT), ("fuzz", EXACT), ("serve", SERVE_EXACT)])
def test_traced_counts_repeat_at_one_seed(workload, exact):
    first_details, first = _result(workload, 3, 1)
    second_details, second = _result(workload, 3, 1)
    assert first["correct"] and second["correct"]
    for name in exact:
        assert _values(first)[name] == _values(second)[name], name
    assert first_details["models"] == second_details["models"]


def test_layer_map_holds_on_paper_store():
    _details, result = _result("paper_store", 1, 1)
    values = _values(result)
    assert values["compiler.compiles"] == 0
    assert values["store.misses"] == 0 and values["store.hits"] > 0


def test_paper_cold_bypasses_the_store():
    _details, result = _result("paper_cold", 1, 1)
    values = _values(result)
    for name in ("store.hits", "store.misses", "store.bytes", "store.get_s",
                 "store.put_s"):
        assert values[name] == 0, name
    assert values["compiler.compiles"] > 0


def test_metrics_match_the_declared_sets():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _details, result = _result("paper_cold", 2, trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_serve_schedule_is_seeded():
    one = serveload.timed_schedule(random.Random(5), 400)
    again = serveload.timed_schedule(random.Random(5), 400)
    other = serveload.timed_schedule(random.Random(6), 400)
    assert one == again
    assert [d for d, _ in one] != [d for d, _ in other]
    assert [j for _, j in one] != [j for _, j in other]
    # conditioned on its count: every seed offers the same load
    for schedule in (one, other):
        dues = [due for due, _job in schedule]
        assert dues == sorted(dues) and 0 <= dues[-1] <= 400 / serveload.RATE


def test_serve_latency_is_best_over_replays():
    load = loads.ServeLoad("serve", ROOT, None, 1, 1)
    load.schedule = load.schedule[:2]
    ok = {"event": "result"}

    def replay(latencies, events=(ok, ok)):
        return {"events": list(events), "latencies": latencies,
                "lateness": [0.0, 0.0], "wall": 1.0, "peak_rss_mb": 40.0,
                "stats": {"serve.results": 2}}

    outcome = load._outcome([replay([0.004, 0.002]),
                             replay([0.003, None], events=(ok, None))])
    assert outcome.latencies == [0.003, 0.002]
    assert sorted(outcome.extra["samples"]) == [0.002, 0.003, 0.004]
    assert (outcome.attempted, outcome.completed) == (4, 3)
    assert len(outcome.failures) == 1
    assert outcome.extra["stats"] == {"serve.results": 4}


def test_serve_mix_has_fixed_shares():
    def kinds(seed):
        shares = {}
        for _due, job in serveload.timed_schedule(random.Random(seed), 400):
            if "writes" in job:
                kind = "writes"
            elif job["kind"] == "run":
                kind = "run"
            elif job["recipe"]["seed"] in serveload.FRESH_SEEDS:
                kind = "fresh"
            else:
                kind = "recipe"
            shares[kind] = shares.get(kind, 0) + 1
        return shares

    # twenty units of bench_serve's 19-job mix plus one fresh recipe each
    assert kinds(1) == kinds(2) == {"run": 320, "recipe": 40, "fresh": 20,
                                    "writes": 20}
    assert len(serveload.timed_schedule(random.Random(1), 397)) == 397


def test_fuzz_seeds_follow_the_benchmark_seed():
    def seeds(seed):
        return loads.PassLoad("fuzz", ROOT, None, seed, 20).seeds

    one, other = seeds(1), seeds(2)
    assert one == seeds(1) and one != other
    fresh = max(1, len(one) // loads.FUZZ_FRESH_SHARE)
    assert one[:-fresh] == other[:-fresh]
    assert not set(one[-fresh:]) & set(other[-fresh:])


def test_program_never_sees_the_seed_or_workload_name(monkeypatch):
    """The fuzz oracle receives only generated fuzz seeds, and serve jobs
    carry only protocol fields."""
    import repro.fuzz.campaign as campaign

    received = []
    monkeypatch.setattr(campaign, "check_seed",
                        lambda seed: received.append(seed) or (seed, None))
    bench_seed = 7
    load = loads.PassLoad("fuzz", ROOT, None, bench_seed, 2)
    record = loads.pass_child("fuzz", None, load.seeds, None)
    assert received == load.seeds and len(record["times"]) == len(received)
    assert bench_seed not in received

    allowed = {"kind", "workload", "strategy", "backend", "recipe",
               "writes", "reads"}
    for _due, job in serveload.timed_schedule(random.Random(bench_seed), 200):
        assert set(job) <= allowed
        assert "serve" not in json.dumps(job)


def test_merged_traces_keep_spans_and_ops_apart(tmp_path):
    from perfbench.spans import Tracer

    paths = []
    for index in range(2):
        tracer = Tracer()
        with tracer.span("op", op=True):
            with tracer.span("compiler.compile"):
                pass
        tracer.count("compiler.compile")
        paths.append(str(tmp_path / ("t%d.json" % index)))
        tracer.dump(paths[-1])
    merged = Tracer.load(*paths)
    assert [r["index"] for r in merged.spans] == [0, 1, 2, 3]
    assert [r["parent"] for r in merged.spans] == [None, 0, None, 2]
    assert [r["op"] for r in merged.spans] == [0, 0, 1, 1]
    assert merged.counts == {"compiler.compile": 2}


def test_refuses_to_run_without_the_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("paper_cold", 1, 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
