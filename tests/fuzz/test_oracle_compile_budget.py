"""The oracle compiles each of a recipe's programs once.

``check_recipe`` shares one compiled program per (strategy, partitioner)
across the backends and the later stages, so compile determinism (which
per-backend recompiles used to exercise as a side effect) is checked by
the build-determinism stage instead.
"""

import pytest

import repro.evaluation.runner as runner
import repro.fuzz.oracle as oracle
from repro.compiler import compile_module
from repro.fuzz.generator import generate_recipe
from repro.fuzz.oracle import OracleViolation, check_recipe
from repro.machine.instruction import LongInstruction

#: five strategies, CB and CB_DUP under three more partitioners, and
#: the build-determinism stage's second compile
BUDGET = 12


def _patch_compiler(monkeypatch, replacement):
    monkeypatch.setattr(runner, "compile_module", replacement)
    monkeypatch.setattr(oracle, "compile_module", replacement)


def test_check_recipe_stays_within_the_compile_budget(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_module(*args, **kwargs)

    _patch_compiler(monkeypatch, counting)
    check_recipe(generate_recipe(1), fault_seed=1)
    assert 0 < len(calls) <= BUDGET


def test_nondeterministic_compile_fails_build_determinism(monkeypatch):
    calls = []

    def flaky(*args, **kwargs):
        compiled = compile_module(*args, **kwargs)
        calls.append(args)
        if len(calls) == 2:  # perturb one instruction of the second build
            compiled.program.instructions[0] = LongInstruction()
        return compiled

    _patch_compiler(monkeypatch, flaky)
    recipe = generate_recipe(1)
    with pytest.raises(OracleViolation) as caught:
        check_recipe(recipe)
    assert caught.value.stage == "build-determinism"
    assert caught.value.recipe == recipe
