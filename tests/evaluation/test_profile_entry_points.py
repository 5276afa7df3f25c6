"""Every entry point that runs the paper's Pr configuration agrees.

``CB_PROFILE`` compiles with the block counts of the single-bank
baseline's run.  The serial runner, the process-parallel runner, the
``repro run`` CLI and the serve path all get those counts from one
producer (:func:`repro.evaluation.runner._compile_cached`); this
differential pins that they report the same cycles and code size.
"""

import re

import pytest

import repro.__main__ as cli
from repro.evaluation import evaluate_workload, evaluate_workloads
from repro.partition.strategies import Strategy
from repro.serve.jobs import compile_for_job, execute_job
from repro.serve.protocol import validate_job
from repro.workloads.registry import all_workloads

PROFILED = Strategy.CB_PROFILE

#: one kernel and one application
WORKLOADS = ("fir_32_1", "lpc")


def _measured(evaluation):
    measurement = evaluation.measurements[PROFILED]
    return measurement.cycles, measurement.code_size


def _cli(name, partitioner, monkeypatch, capsys):
    """``(cycles, code size)`` of ``repro run NAME --strategy CB_PROFILE``;
    the code size is read off the compile the command ran."""
    sizes = []
    original = cli._run_one

    def recording(*args, **kwargs):
        compiled, simulator, result = original(*args, **kwargs)
        sizes.append(compiled.code_size)
        return compiled, simulator, result

    monkeypatch.setattr(cli, "_run_one", recording)
    assert cli.main(["run", name, "--strategy", "CB_PROFILE",
                     "--partitioner", partitioner]) == 0
    output = capsys.readouterr().out
    return int(re.search(r"(\d+) cycles", output).group(1)), sizes[0]


def _served(name, partitioner):
    job = validate_job({"kind": "run", "workload": name,
                        "strategy": "CB_PROFILE", "partitioner": partitioner})
    cache = {}
    result = execute_job(job, cache=cache)
    assert result["ok"], result
    compiled, _source = compile_for_job(job, cache)
    return result["cycles"], compiled.code_size


@pytest.mark.parametrize("partitioner", ("greedy", "exact"))
def test_every_profiled_entry_point_agrees(partitioner, monkeypatch, capsys):
    table = all_workloads()
    fanned_out = evaluate_workloads(
        table, WORKLOADS, (PROFILED,), jobs=2, partitioner=partitioner
    )
    for name in WORKLOADS:
        serial = evaluate_workload(
            table[name], (PROFILED,), partitioner=partitioner
        )
        reports = {
            "evaluate_workload": _measured(serial),
            "evaluate_workloads(jobs=2)": _measured(fanned_out[name]),
            "repro run": _cli(name, partitioner, monkeypatch, capsys),
            "execute_job": _served(name, partitioner),
        }
        assert len(set(reports.values())) == 1, (name, reports)
