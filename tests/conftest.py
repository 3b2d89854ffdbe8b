import os
import subprocess
import sys

import numpy as np
import pytest

from dsirr import linalg
from dsirr.scalars import GaussianRational as G


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One visible pass/fail line per acceptance criterion."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and "test_acceptance" in item.nodeid:
        terminal = item.config.pluginmanager.get_plugin("terminalreporter")
        if terminal is not None:
            status = "PASS" if rep.passed else "FAIL"
            terminal.write_line(f"[acceptance] {item.name}: {status}")


SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
HANG_TIMEOUT = 30  # s, for runs that return in well under 5 s unless they hang


def run_fresh(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter with src on its path, its
    output captured as text; a hang raises TimeoutExpired rather than
    stalling the suite."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=SRC_ENV, timeout=HANG_TIMEOUT, **kwargs)


def unit_matrix(n, i, j, exact=False):
    """Elementary matrix with a single one in row i, column j."""
    m = linalg.zeros(n, n, exact)
    m[i, j] = G(1) if exact else 1.0 + 0j
    return m


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
