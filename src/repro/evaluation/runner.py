"""Compile-simulate-verify one workload under the paper's configurations.

Performance is measured exactly as in the paper: cycle counts from the
instruction-set simulator, reported as gains over the single-bank
baseline (allocation pass disabled).  The ``Pr`` configuration profiles
the baseline binary first and feeds block execution counts to the
allocation pass as edge weights.
"""

import copy

from repro.compiler import CompileOptions, compile_module
from repro.cost.model import CostModel
from repro.partition.strategies import Strategy
from repro.sim.fastsim import make_simulator
from repro.sim.tracing import collect_block_counts


class Measurement:
    """One (workload, configuration) data point."""

    def __init__(self, strategy, cycles, cost, code_size, duplicated):
        self.strategy = strategy
        self.cycles = cycles
        #: the :class:`~repro.cost.model.CostReport`
        self.cost = cost
        self.code_size = code_size
        #: names of symbols duplicated into both banks
        self.duplicated = duplicated

    def __repr__(self):
        return "<Measurement %s cycles=%d cost=%d>" % (
            self.strategy.name,
            self.cycles,
            self.cost.total,
        )


class WorkloadEvaluation:
    """All configurations of one workload, relative to its baseline."""

    def __init__(self, name, category, measurements):
        self.name = name
        self.category = category
        #: Strategy -> Measurement (always includes SINGLE_BANK)
        self.measurements = measurements

    @property
    def baseline(self):
        """The single-bank measurement every gain is normalized to."""
        return self.measurements[Strategy.SINGLE_BANK]

    def cycles(self, strategy):
        """Cycle count measured under *strategy*."""
        return self.measurements[strategy].cycles

    def gain_percent(self, strategy):
        """Percent cycle-count improvement over the single-bank baseline,
        the y-axis of the paper's Figures 7 and 8."""
        return 100.0 * (self.performance_gain(strategy) - 1.0)

    def performance_gain(self, strategy):
        """PG ratio as used in paper Table 3 (1.00 = unchanged).

        Degenerate zero-cycle measurements (an empty workload) are
        defined rather than faulting: matching zeros count as unchanged,
        a zero-cycle configuration against a nonzero baseline is an
        unbounded gain.
        """
        return _ratio(self.baseline.cycles, self.cycles(strategy))

    def cost_increase(self, strategy):
        """CI ratio as used in paper Table 3 (1.00 = unchanged); defined
        even for zero-cost measurements (see :meth:`performance_gain`)."""
        return _ratio(self.measurements[strategy].cost.total, self.baseline.cost.total)

    def pcr(self, strategy):
        """Performance/cost ratio PG/CI (paper Table 3); inf at CI=0."""
        ci = self.cost_increase(strategy)
        if ci == 0.0:
            return float("inf")
        return self.performance_gain(strategy) / ci


def _ratio(numerator, denominator):
    """``numerator / denominator`` with the degenerate cases pinned:
    0/0 is 1.0 (nothing changed), n/0 is +inf (unbounded improvement)."""
    if denominator == 0:
        return 1.0 if numerator == 0 else float("inf")
    return numerator / denominator


def module_fingerprint(module):
    """Content hash of a freshly built module: the printed IR (blocks,
    operations, symbols) plus global sizes and initializers — everything
    that determines the compiled program for a given strategy."""
    import hashlib

    from repro.ir.printer import format_module

    digest = hashlib.sha256(format_module(module).encode())
    for symbol in module.globals:
        digest.update(
            repr(
                (symbol.name, symbol.size, symbol.data_type, symbol.initializer)
            ).encode()
        )
    return digest.hexdigest()


def _compile_cached(source, options, cache):
    """Compile *source* (anything with a ``.build()`` returning a fresh
    module) under *options* (a
    :class:`~repro.compiler.pipeline.CompileOptions`), consulting the
    content-keyed *cache*.

    The key is :func:`repro.serve.store.compile_key` — module content
    hash x every output-relevant option x frozen profile counts — so any
    two identical builds share one compile.  Compiled programs are
    immutable under simulation (each simulator run owns fresh memory),
    so cache hits skip the whole compile pipeline.  ``cache=None``
    compiles directly.

    This is the one place a ``Pr`` compile gets its profile: when the
    strategy needs one and ``options.profile_counts`` is None, the
    single-bank baseline of the same module is looked up in (or compiled
    into) the same *cache* under the same partitioner, and its block
    counts (:func:`_block_counts`) become the compile's edge weights.
    """
    module = source.build()
    fingerprint = None if cache is None else module_fingerprint(module)
    if options.strategy.needs_profile and options.profile_counts is None:
        baseline = _lookup(
            source.build,
            fingerprint,
            CompileOptions(
                strategy=Strategy.SINGLE_BANK, partitioner=options.partitioner
            ),
            cache,
        )
        options = copy.copy(options)
        options.profile_counts = _block_counts(baseline)
    return _lookup(lambda: module, fingerprint, options, cache)


def _lookup(build, fingerprint, options, cache):
    """The compile under *options* of the module ``build()`` returns
    (whose content hash is *fingerprint*), read from *cache*; ``build``
    runs only on a miss."""
    if cache is None:
        return compile_module(build(), options)
    from repro.serve.store import compile_key  # repro.serve imports us

    key = compile_key(fingerprint, options)
    compiled = cache.get(key)
    if compiled is None:
        compiled = compile_module(build(), options)
        cache[key] = compiled
    return compiled


def _block_counts(baseline, result=None):
    """Block execution counts of the compiled single-bank *baseline*,
    memoized on it so no baseline is simulated twice.

    *result* is a finished run of the baseline on any backend (block
    counts are backend-invariant); without one the baseline runs once
    on the reference interpreter.
    """
    counts = getattr(baseline, "_block_counts", None)
    if counts is None:
        if result is None:
            result = make_simulator(baseline.program).run()
        counts = collect_block_counts(baseline.program, result)
        baseline._block_counts = counts
    return counts


def _run_once(workload, strategy, verify=True, backend="interp", cache=None,
              partitioner="greedy"):
    compiled = _compile_cached(
        workload,
        CompileOptions(strategy=strategy, partitioner=partitioner),
        cache,
    )
    simulator = make_simulator(compiled.program, backend=backend)
    result = simulator.run()
    if verify:
        workload.verify(simulator)
    cost = CostModel().measure(compiled, result)
    duplicated = [s.name for s in compiled.allocation.duplicated]
    return (
        Measurement(strategy, result.cycles, cost, compiled.code_size, duplicated),
        compiled,
        result,
    )


def evaluate_workload(workload, strategies, verify=True, backend="interp",
                      cache=None, partitioner="greedy"):
    """Measure *workload* under *strategies* (baseline always included).

    ``backend`` selects the simulator backend (``interp``, ``fast``, or
    ``jit`` — see :mod:`repro.sim.fastsim`); ``partitioner`` the
    interference-graph partitioner the CB-family strategies use
    (:data:`~repro.partition.registry.PARTITIONERS`); ``cache`` is an
    optional dict (or :class:`~repro.serve.store.CompileCache`) used as
    a content-keyed compiled-program cache shared across evaluations.
    """
    if cache is None:
        cache = {}
    measurements = {}
    baseline, base_compiled, base_result = _run_once(
        workload, Strategy.SINGLE_BANK, verify=verify, backend=backend,
        cache=cache, partitioner=partitioner,
    )
    measurements[Strategy.SINGLE_BANK] = baseline
    if any(strategy.needs_profile for strategy in strategies):
        # seed the Pr profile from the run just made
        _block_counts(base_compiled, base_result)
    for strategy in strategies:
        if strategy is Strategy.SINGLE_BANK:
            continue
        measurement, _compiled, _result = _run_once(
            workload, strategy, verify=verify, backend=backend,
            cache=cache, partitioner=partitioner,
        )
        measurements[strategy] = measurement
    return WorkloadEvaluation(workload.name, workload.category, measurements)
