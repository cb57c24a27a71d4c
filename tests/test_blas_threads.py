"""The package loads numpy's and scipy's OpenBLAS with one thread unless told otherwise.

Each case runs in a fresh interpreter, since OpenBLAS reads its thread
count once, when numpy loads it, and reads the process's thread count
from ``/proc/self/status``.  No case asks for more than two threads.
"""

import json
import os

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)

_PROBE = """
import json, os, sys

def threads():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

before = dict(os.environ)
if sys.argv[1] == "numpy-first":
    import numpy
    numpy_threads = threads()
else:
    numpy_threads = None
import scw_cvqkd
print(json.dumps({
    "threads": threads(),
    "numpy_threads": numpy_threads,
    "environ_unchanged": dict(os.environ) == before,
}))
"""


def probe(fresh_python, mode="package-first", **env):
    return json.loads(fresh_python(_PROBE, mode, **env))


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


two_cpus = pytest.mark.skipif(
    usable_cpus() < 2, reason="OpenBLAS caps its threads at the CPU count"
)


def test_package_loads_one_blas_thread_and_restores_environ(fresh_python):
    out = probe(fresh_python)
    assert out["threads"] == 1
    assert out["environ_unchanged"]


@two_cpus
def test_user_openblas_thread_count_wins(fresh_python):
    out = probe(fresh_python, OPENBLAS_NUM_THREADS="2")
    assert out["threads"] == 2
    assert out["environ_unchanged"]


@two_cpus
def test_user_omp_thread_count_wins(fresh_python):
    out = probe(fresh_python, OMP_NUM_THREADS="2")
    assert out["threads"] == 2
    assert out["environ_unchanged"]


def test_numpy_loaded_first_is_left_alone(fresh_python):
    out = probe(fresh_python, "numpy-first")
    assert out["threads"] == out["numpy_threads"]
    assert out["environ_unchanged"]


# scipy bundles an OpenBLAS of its own, which the package loads only on
# the S>1 calibration scan and the quadrature route of decision_stats
_SCIPY_PROBE = """
import json, os, sys

def threads():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

before = dict(os.environ)
if sys.argv[2:] == ["numpy-first"]:
    import numpy
import scw_cvqkd
package_threads = threads()
if sys.argv[1] == "scan":
    from scw_cvqkd.optics import SystemParams, calibrate_delta
    calibrate_delta(0.9, SystemParams(S=2))
else:
    from scw_cvqkd.noise import decision_stats
    decision_stats(1.0, 0.5, -0.5, 0.1, method="quadrature")
print(json.dumps({
    "threads": threads(),
    "package_threads": package_threads,
    "scipy_loaded": "scipy.linalg" in sys.modules,
    "environ_unchanged": dict(os.environ) == before,
}))
"""


@pytest.mark.parametrize("route", ["scan", "quadrature"])
def test_scipy_loads_one_blas_thread_and_restores_environ(fresh_python, route):
    out = json.loads(fresh_python(_SCIPY_PROBE, route))
    assert out["scipy_loaded"]
    assert out["threads"] == 1
    assert out["environ_unchanged"]


@two_cpus
def test_user_thread_count_wins_in_scipy(fresh_python):
    out = json.loads(fresh_python(_SCIPY_PROBE, "scan", OPENBLAS_NUM_THREADS="2"))
    assert out["scipy_loaded"]
    # scipy's OpenBLAS started a worker thread of its own
    assert out["threads"] > out["package_threads"] == 2
    assert out["environ_unchanged"]


@two_cpus
@pytest.mark.parametrize("route", ["scan", "quadrature"])
def test_numpy_loaded_first_leaves_scipy_alone(fresh_python, route):
    out = json.loads(fresh_python(_SCIPY_PROBE, route, "numpy-first"))
    assert out["scipy_loaded"]
    # scipy's OpenBLAS started its default worker threads
    assert out["threads"] > out["package_threads"]
    assert out["environ_unchanged"]
