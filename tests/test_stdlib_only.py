"""The simulator is stdlib-only: serving a window never imports NumPy.

NumPy is a test/bench extra. The check runs in a fresh interpreter, since
the test process itself may already have imported it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SERVE_ONE_WINDOW = """
import sys
from repro.app import WINDOW, respiration_signal, run_application
from repro.kernels import KernelRunner

run_application(respiration_signal(WINDOW), "cpu_vwr2a", KernelRunner())
print("numpy" in sys.modules)
"""


def test_serving_a_window_does_not_import_numpy():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", SERVE_ONE_WINDOW],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.strip() == "False", "serving a window imported numpy"
