"""batch_map: the lockstep fan-out primitive.

Contract: same tasks, same results, regardless of whether they run as
lockstep lanes (``backend="batch"``) or one scalar simulator per
instance.
"""

import random

from repro.compiler import compile_module
from repro.evaluation.parallel import BatchTaskResult, batch_map
from repro.obs.core import Recorder
from repro.partition.strategies import Strategy
from repro.workloads.kernels.fir import Fir


def _fir_program(taps=8, samples=4, strategy=Strategy.CB):
    return compile_module(Fir(taps, samples).build(), strategy=strategy).program


def test_batch_matches_scalar_backends_bit_for_bit():
    rng = random.Random(5)
    program = _fir_program()
    tasks = [
        ({"x": [rng.uniform(-1, 1) for _ in range(11)]}, ("y",))
        for _ in range(10)
    ]
    recorder = Recorder()
    batched = batch_map(program, tasks, lanes=4, observe=recorder)
    assert recorder.counters["batch.slabs"] == 3  # 4 + 4 + 2
    assert recorder.counters["batch.instances"] == 10
    for backend in ("interp", "jit"):
        scalar = batch_map(program, tasks, backend=backend)
        for index in range(len(tasks)):
            assert batched[index].error is None
            assert scalar[index].error is None
            assert batched[index].outputs == scalar[index].outputs, index
            assert (
                batched[index].result.cycles == scalar[index].result.cycles
            )
            assert (
                batched[index].result.pc_counts
                == scalar[index].result.pc_counts
            )


def test_lane_errors_stay_per_task():
    from repro.frontend import ProgramBuilder

    pb = ProgramBuilder("div")
    data = pb.global_array("data", 2, float, init=[1.0, 1.0])
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], data[0] / data[1])
    program = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK).program
    tasks = [
        ({}, ("out",)),
        ({"data": [1.0, 0.0]}, ("out",)),
        ({"data": [3.0, 2.0]}, ("out",)),
    ]
    results = batch_map(program, tasks, lanes=8)
    scalar = batch_map(program, tasks, backend="interp")
    assert results[0].error is None and results[0].outputs == {"out": 1.0}
    assert isinstance(results[1].error, ZeroDivisionError)
    assert isinstance(scalar[1].error, ZeroDivisionError)
    assert results[2].outputs == {"out": 1.5}
    assert isinstance(results[2], BatchTaskResult)


def test_scalar_writes_and_empty_reads():
    program = _fir_program()
    results = batch_map(program, [(None, ())] * 3, lanes=2)
    assert all(r.error is None and r.outputs == {} for r in results)
