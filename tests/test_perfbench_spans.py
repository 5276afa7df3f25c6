"""The traced benchmark's layer wrappers install against this tree.

``perfbench/spans.py`` wraps ``repro`` functions by module and name
(``evaluation.runner._compile_cached``, ``module_fingerprint``,
``fuzz.oracle.check_recipe``, ...).  A refactor that renames one of
them would otherwise only surface as a crash of
``perfbench/run.py --trace 1``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_wrappers_install_in_a_fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    completed = subprocess.run(
        [sys.executable, "-c",
         "import perfbench.spans as spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
