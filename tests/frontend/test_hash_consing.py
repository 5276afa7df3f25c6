"""Node identity without hash-consing: every construction makes a fresh
object, so no two builds (and no two constructions within one) share a
node; a subtree shared by reference makes rewrites reconstruct instead
of mutate; and the slotted value classes survive pickling."""

import pickle

from repro.frontend import ProgramBuilder
from repro.frontend.expressions import wrap
from repro.ir.types import DataType
from repro.ir.values import Immediate, Label


def test_no_sharing_across_builds():
    pb1 = ProgramBuilder("a")
    with pb1.function("main") as f:
        x = f.float_var("x")
        first = x + 1.0
    pb1.build(validate=False)
    pb2 = ProgramBuilder("b")
    with pb2.function("main") as f:
        second = wrap(1.0)
        assert second is not first.right
        assert wrap(1.0) is not second


def test_no_sharing_without_a_context():
    a, b = wrap(3), wrap(3)
    assert a is not b
    assert Immediate(3) is not Immediate(3)
    assert Immediate(1) == Immediate(True)
    assert Immediate(3) != Immediate(3.0)  # dtype is part of the value
    assert Label("L1") == Label("L1") and Label("L1") != Label("L2")


def test_shared_subtrees_make_rewrites_reconstruct():
    pb = ProgramBuilder("t")
    with pb.function("main") as f:
        x = f.float_var("x")
        shared = x * 2.0
        bigger = shared + 1.0
        variant = shared + 2.0
        # both trees alias the common subtree ...
        assert bigger.left is shared and variant.left is shared
        # ... but building the variant reconstructed a fresh root and
        # left the original untouched
        assert bigger is not variant
        assert bigger.right is not variant.right
        assert bigger.right.value == 1.0


def test_interned_values_pickle_cleanly():
    immediate = Immediate(7)
    label = Label("L9")
    loaded = pickle.loads(pickle.dumps(immediate))
    assert loaded.value == 7 and loaded.data_type is DataType.INT
    assert loaded == immediate
    assert pickle.loads(pickle.dumps(label)).name == "L9"
