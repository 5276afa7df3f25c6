"""Repo benchmark entry point.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 16 --trace 0

Runs one workload (``paper_store``, ``fuzz``, ``serve``, and
``paper_cold``, which ``BENCHMARK.json`` leaves out to keep a full
evaluation inside its time limit) from the root of a checkout against
the checkout's own ``src/``, and prints as its last stdout line one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload untraced and traced, and reports the
per-layer metrics.  The line before it holds
the run's details: per-op model counts, failures, the host probe.
``perfbench/README.md`` documents workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 7

#: the fixed hash seed every benchmark process runs under
HASH_SEED = "0"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(
        "paper_cold", "paper_store", "fuzz", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slo-ms", type=float, default=None,
        help="serve latency limit; slower requests miss the SLO")
    parser.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--pass-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--seeds", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--serve-traced", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("serve_args", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.workload is None and args.setup_child is None
            and args.pass_child is None and args.serve_traced is None):
        parser.error("--workload is required")
    return args


def _use_checkout():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit("perfbench: no src/repro under %s; run from a checkout"
                 % ROOT)
    sys.path.insert(0, source)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        sys.exit("perfbench: imported repro from %s, not the checkout"
                 % repro.__file__)


def _percentile(values, fraction):
    """Nearest-rank percentile of an already sorted list."""
    index = math.ceil(fraction * len(values)) - 1
    return values[max(0, min(len(values) - 1, index))]


def _latencies_ms(outcome):
    return sorted(1000.0 * s for s in outcome.latencies if s is not None)


def end_to_end(outcome):
    latencies = _latencies_ms(outcome) or [0.0]
    attempted = outcome.attempted
    return {
        "setup_s": statistics.median(outcome.setups),
        "throughput_ops_s": outcome.rate,
        "latency_p50_ms": _percentile(latencies, 0.50),
        "peak_rss_mb": outcome.peak_rss_mb,
        "ok_ratio": 1.0 - len(outcome.failures) / attempted,
        "slo_ok_ratio": (outcome.completed - outcome.slow) / attempted,
    }


def _work_s_per_job(stats):
    """Compile plus simulation seconds per served job."""
    return ((stats.get("serve.compile_s", 0.0) + stats.get("serve.sim_s", 0.0))
            / (stats.get("serve.results", 0) or 1))


def _serve_layers(untraced, traced):
    stats = traced.extra["stats"]
    results = stats.get("serve.results", 0) or 1
    dispatches = stats.get("serve.dispatches", 0) or 1
    groups = stats.get("serve.groups", 0) or 1
    lateness = sorted(1000.0 * s for s in traced.extra["lateness"])
    samples = sorted(1000.0 * s for s in untraced.extra["samples"])
    return {
        "serve.dispatches": stats.get("serve.dispatches", 0),
        "serve.jobs_per_dispatch": stats.get("serve.results", 0) / dispatches,
        "serve.coalesced_ratio": stats.get("serve.coalesced", 0) / results,
        "serve.store_hit_ratio":
            1.0 - stats.get("serve.store_misses", 0) / groups,
        "serve.compile_s_per_job": stats.get("serve.compile_s", 0.0) / results,
        "serve.sim_s_per_job": stats.get("serve.sim_s", 0.0) / results,
        "client.lateness_p99_ms": _percentile(lateness, 0.99),
        # tails over every replay's samples, so a stall in one shows
        "serve.latency_p90_ms": _percentile(samples, 0.90),
        "serve.latency_p99_ms": _percentile(samples, 0.99),
        # two sets of services, one after the other: under 1 means noise
        "trace.overhead_ratio": (
            _work_s_per_job(stats)
            / (_work_s_per_job(untraced.extra["stats"]) or 1.0)),
    }


def traced_run(name, load):
    """Run the workload untraced and traced; returns ``(untraced
    outcome, traced outcome, per-layer metrics)`` (the ``serve.*`` and
    client figures exist on ``serve`` only).

    Pass workloads interleave the legs pass by pass, so
    ``trace.overhead_ratio`` (traced over untraced rate at best-of-passes
    op times) compares the same ops under the same host."""
    from perfbench.spans import Tracer, layer_metrics

    if name == "serve":
        untraced = load.run()
        trace_path = os.path.join(load.work_dir, "serve-trace.json")
        traced = load.run(traced_path=trace_path)
        metrics = layer_metrics(Tracer.load(*traced.extra["trace_paths"]))
        metrics.update(_serve_layers(untraced, traced))
    else:
        untraced, traced, trace_paths = load.run(traced=True)
        metrics = layer_metrics(Tracer.load(*trace_paths))
        metrics["trace.overhead_ratio"] = untraced.rate / traced.rate
    load.check(untraced)
    metrics["sim_cycles"] = untraced.sim_cycles
    metrics["code_words"] = untraced.code_words
    return untraced, traced, metrics


def serve_traced(trace_path, serve_argv):
    """Run ``repro serve`` with the layer wrappers installed; each
    dispatched group is one op.  SIGUSR1 clears the spans (the end of
    the warm-up pass); the spans are written out on shutdown."""
    from perfbench.spans import Tracer, install, rebind

    import repro.serve.jobs as jobs
    from repro.__main__ import main

    tracer = Tracer()
    install(tracer)
    original = jobs.execute_group

    def execute_group(*args, **kwargs):
        with tracer.span("op", op=True):
            return original(*args, **kwargs)

    rebind(original, execute_group)

    def reset(_signum, _frame):
        tracer.reset()
        open(trace_path + ".reset", "w").close()

    signal.signal(signal.SIGUSR1, reset)
    try:
        return main(serve_argv)
    finally:
        tracer.dump(trace_path)


def _declared_units(section):
    """``{metric: unit}`` of one section of the root ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)[section]
    return {metric["name"]: metric["unit"] for metric in declared}


def _report(value):
    return value if isinstance(value, int) else float(value)


def main(argv=None):
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    _use_checkout()
    if args.setup_child is not None:
        from perfbench.loads import setup_child

        setup_child(args.setup_child, args.dir)
        return 0
    if args.pass_child is not None:
        from perfbench.loads import pass_child

        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
        record = pass_child(args.pass_child, args.dir, seeds, args.trace_out)
        print(json.dumps(record))
        return 0
    if args.serve_traced is not None:
        return serve_traced(args.serve_traced, args.serve_args)

    from perfbench.loads import LOADS
    from perfbench.probe import probe_ms

    # a terminated run still stops its service and removes its files
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    work_dir = os.path.join(ROOT, ".perfbench_work",
                            "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir)
    extra = {"slo_ms": args.slo_ms} if args.workload == "serve" else {}
    load = LOADS[args.workload](args.workload, ROOT, work_dir, args.seed,
                                args.seconds, **extra)
    try:
        if args.trace:
            probe_before = probe_ms()
            outcome, traced, measured = traced_run(args.workload, load)
            metrics = dict.fromkeys(_declared_units("per_layer"), 0)
            metrics.update(measured)
            probe_after = probe_ms()
            metrics["host.probe_ms"] = (probe_before + probe_after) / 2
            outcomes = (outcome, traced)
        else:
            probe_before = probe_ms()
            outcome = load.run(setups=SETUP_REPEATS)
            probe_after = probe_ms()
            load.check(outcome)
            metrics = end_to_end(outcome)
            outcomes = (outcome,)
    finally:
        load.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    failed = sum(len(o.failures) for o in outcomes)
    check_errors = [e for o in outcomes for e in o.check_errors]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": outcome.attempted,
        "latency_samples": len(_latencies_ms(outcome)),
        "host.probe_ms": [probe_before, probe_after],
        "failures": [f for o in outcomes for f in o.failures][:10],
        "check_errors": check_errors[:10],
        "sim_cycles": outcome.sim_cycles,
        "code_words": outcome.code_words,
        "latency_p90_ms": _percentile(_latencies_ms(outcome) or [0.0], 0.90),
        "latency_p99_ms": _percentile(_latencies_ms(outcome) or [0.0], 0.99),
        "models": dict(sorted(outcome.models.items())),
        "op_times": outcome.extra.get("op_times"),
        "setups": outcome.setups,
    }
    print(json.dumps(details, sort_keys=True))
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(units) ^ set(metrics)))
    result = {
        "correct": not failed and not check_errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {
            key: {"value": _report(value), "unit": units[key]}
            for key, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
