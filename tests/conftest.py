import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cfmoll as cm
from cfmoll.selfcheck import _spec_zoo


@pytest.fixture
def std_gaussian():
    return cm.Gaussian(mean=[0.0], cov=[[1.0]])


@pytest.fixture
def rademacher():
    return cm.Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5])


@pytest.fixture
def spec_zoo():
    """One spec per constructor, all with unit-scale parameters; the same
    list ``cfmoll selfcheck`` checks."""
    return _spec_zoo()


def gaussian_density(z, mean=0.0, var=1.0):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * (z - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def subprocess_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the cfmoll under
    test, installed or not."""
    src = str(Path(cm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def traced_peak_mb(fn) -> float:
    """Peak ``tracemalloc`` allocation in MiB while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2.0**20
    finally:
        tracemalloc.stop()
