"""Shared test helpers."""

import os
import subprocess
import sys

import pytest

import scw_cvqkd


@pytest.fixture
def fresh_python():
    """Run Python code in a fresh interpreter that imports this checkout.

    ``run(code, *args, **env)`` starts the interpreter with none of the
    BLAS thread variables of this process, plus ``env``, and returns its
    standard output.
    """
    src = os.path.dirname(os.path.dirname(scw_cvqkd.__file__))

    def run(code, *args, **env):
        unset = scw_cvqkd._BLAS_THREAD_VARS
        full = {k: v for k, v in os.environ.items() if k not in unset}
        full.update(env)
        path = [src, full.get("PYTHONPATH")]
        full["PYTHONPATH"] = os.pathsep.join(filter(None, path))
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=full, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
