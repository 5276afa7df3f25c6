"""Golden program bytes: the compiled machine code itself, not just its
cycle counts.

``test_golden_cycles.py`` pins how long each program runs; a change that
reorders or rewrites instructions without moving a cycle count passes
there.  These tests hash what the compiler emits — every long
instruction (unit slots, operands, bank tags, loop ends) plus the
function entry table — for every registry workload under every
:class:`Strategy`, and for a fixed range of fuzz recipes.  Refactors of
the plumbing around the compiler (caches, executors, node construction)
must leave every digest unchanged.

``CB_PROFILE`` compiles with the block counts of the single-bank
baseline's run, as the evaluation runner feeds them.  When a change is
meant to alter code generation, re-record by printing
``_program_digest(workload.build)`` for each workload and
``_fuzz_digest()``.
"""

import hashlib

import pytest

from repro.compiler import compile_module
from repro.fuzz.generator import build_module, generate_recipe
from repro.partition.strategies import Strategy
from repro.sim.fastsim import make_simulator
from repro.sim.tracing import collect_block_counts
from repro.workloads.registry import all_workloads

#: workload -> digest of its programs under every Strategy, in enum order
GOLDEN = {
    "fft_1024": "7dc20d38071f6877",
    "fft_256": "d3fb5112199c364f",
    "fir_256_64": "3fa2190ec627c14d",
    "fir_32_1": "6e9f6eefbf0b75ab",
    "iir_4_64": "7a139359a23b1f43",
    "iir_1_1": "dfabd436f96e7d01",
    "latnrm_32_64": "c871e32c1ec57a20",
    "latnrm_8_1": "3a55231260833f0f",
    "lmsfir_32_64": "79001693c585bcc7",
    "lmsfir_8_1": "f19644b5c2b1ed27",
    "mult_10_10": "ec836942c15a349e",
    "mult_4_4": "2dd9673acf6e4eac",
    "adpcm": "be214a0efa4c39df",
    "lpc": "1f77c1aaaab7bb2f",
    "spectral": "1ae887877045e443",
    "edge_detect": "c028048fd6a5d6c3",
    "compress": "b89777da41e98d0e",
    "histogram": "ad4b8e6d2b65d12f",
    "V32encode": "9d7b6f51885b98a7",
    "G721MLencode": "1602c896422cea28",
    "G721MLdecode": "4535e283c9e92b83",
    "G721WFencode": "8d191ae686644176",
    "trellis": "bb2a2cfd22d2fcbe",
}

#: fuzz recipe seeds whose programs are pinned, every Strategy each
FUZZ_SEEDS = range(64)

#: digest over the per-seed digests of FUZZ_SEEDS
GOLDEN_FUZZ = "8accc9963b19e963"


def _update(digest, program):
    for instruction in program.instructions:
        digest.update(repr(instruction).encode())
        digest.update(b"\n")
    digest.update(repr(sorted(program.function_entries.items())).encode())


def _program_digest(build):
    """Digest of the programs *build()* compiles to under every
    Strategy (each compile consumes a fresh module)."""
    digest = hashlib.sha256()
    baseline = compile_module(build(), strategy=Strategy.SINGLE_BANK).program
    counts = collect_block_counts(
        baseline, make_simulator(baseline, backend="jit").run()
    )
    for strategy in Strategy:
        profile = counts if strategy.needs_profile else None
        compiled = compile_module(
            build(), strategy=strategy, profile_counts=profile
        )
        _update(digest, compiled.program)
    return digest.hexdigest()[:16]


def _fuzz_digest():
    digest = hashlib.sha256()
    for seed in FUZZ_SEEDS:
        recipe = generate_recipe(seed)
        digest.update(
            _program_digest(lambda: build_module(recipe)).encode()
        )
    return digest.hexdigest()[:16]


def test_golden_covers_the_registry():
    assert set(GOLDEN) == set(all_workloads())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_registry_program_bytes(name):
    workload = all_workloads()[name]
    assert _program_digest(workload.build) == GOLDEN[name]


def test_fuzz_program_bytes():
    assert _fuzz_digest() == GOLDEN_FUZZ
