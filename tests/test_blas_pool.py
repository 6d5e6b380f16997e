"""The rho SVD runs on one OpenBLAS thread and leaves the pool as it found it.

``measures._svd`` drops the OpenBLAS pool to one thread for SVDs whose
larger side is at least ``_ONE_THREAD_SVD_SIDE`` and restores the pool's
size afterwards, also when the SVD raises and when callers run
concurrently.  Each test pins the pool at two threads first, so that a
pool left at one thread shows on any machine.  Every test skips when
numpy's BLAS is not OpenBLAS: there ``_svd`` is a plain ``np.linalg.svd``.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import depmeasures.measures as measures
from depmeasures import random_joint, rho
from depmeasures.errors import ConvergenceFailure
from depmeasures.measures import _ONE_THREAD_SVD_SIDE, _spectral_parts

pytestmark = pytest.mark.skipif(
    measures._openblas_pool() is None, reason="numpy's BLAS is not OpenBLAS"
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def pool():
    """(get, set) of the OpenBLAS pool, pinned at two threads for the test."""
    get, put = measures._openblas_pool()
    before = get()
    put(2)
    yield get, put
    put(before)


@pytest.fixture
def svd_threads(monkeypatch, pool):
    """The pool size each np.linalg.svd call saw, in call order."""
    seen = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(pool[0]())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def _bits(result):
    return (np.float64(result.value).tobytes(),) + tuple(w.tobytes() for w in result.witness)


def test_rho_64x64_runs_on_one_thread_and_restores_the_pool(pool, svd_threads):
    rho(random_joint(64, 64, 1, "dense"))
    assert svd_threads == [1]
    assert pool[0]() == 2


def test_small_svd_keeps_the_pool(pool, svd_threads):
    side = _ONE_THREAD_SVD_SIDE - 1
    rho(random_joint(side, side, 1, "dense"))
    assert svd_threads == [2]


def test_stacked_parts_run_on_one_thread_and_restore_the_pool(pool, svd_threads):
    stack = [random_joint(48, 48, seed, "dense").entries for seed in range(3)]
    _spectral_parts(stack)
    assert svd_threads == [1]
    assert pool[0]() == 2


def test_failing_svd_restores_the_pool(monkeypatch, pool):
    def failing(a, *args, **kwargs):
        assert pool[0]() == 1
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
        rho(random_joint(64, 64, 1, "dense"))
    assert pool[0]() == 2


def test_concurrent_rho_restores_the_pool(monkeypatch, pool, svd_threads):
    matrices = [random_joint(160, 160, seed, "dense") for seed in range(20)]
    alone = [_bits(rho(m)) for m in matrices]
    svd_threads.clear()
    # Without the lock two SVDs overlap, and one that reads the pool while
    # the other holds it at one thread restores one thread.
    svd, guard, running, overlaps = np.linalg.svd, threading.Lock(), [0], []

    def counting(a, *args, **kwargs):
        with guard:
            running[0] += 1
            overlaps.append(running[0] > 1)
        try:
            return svd(a, *args, **kwargs)
        finally:
            with guard:
                running[0] -= 1

    monkeypatch.setattr(np.linalg, "svd", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as ex:
            futures = [ex.submit(lambda m: _bits(rho(m)), m) for m in matrices]
            together = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
    assert svd_threads == [1] * 20
    assert not any(overlaps)
    assert pool[0]() == 2


def test_without_openblas_rho_gives_the_same_bits(monkeypatch, pool):
    m = random_joint(64, 64, 1, "dense")
    limited = _bits(rho(m))
    monkeypatch.setattr(measures, "_openblas_pool", lambda: None)
    assert _bits(rho(m)) == limited


DIGEST = """
import hashlib
import numpy as np
from depmeasures import random_joint, rho
r = rho(random_joint(300, 300, 1, "dense"))
h = hashlib.sha256(np.float64(r.value).tobytes())
for w in r.witness:
    h.update(w.tobytes())
print(h.hexdigest())
"""


def test_rho_bits_do_not_depend_on_the_pool_size():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", DIGEST], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        digests.append(out.strip())
    assert digests[0] == digests[1]
