import os
from pathlib import Path

import numpy as np
import pytest

import cfmoll as cm


@pytest.fixture
def std_gaussian():
    return cm.Gaussian(mean=[0.0], cov=[[1.0]])


@pytest.fixture
def rademacher():
    return cm.Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5])


@pytest.fixture
def spec_zoo(rademacher):
    """One spec per constructor, all with unit-scale parameters."""
    return [
        cm.Gaussian(mean=[0.3], cov=[[1.2]]),
        cm.Gaussian(mean=[0.0, -1.0], cov=[[1.0, 0.4], [0.4, 2.0]]),
        cm.PointMass(location=[0.7]),
        cm.PointMass(location=[1.0, -2.0]),
        cm.UniformBox(lo=[-1.0], hi=[2.0]),
        cm.Laplace1D(scale=0.8),
        cm.Empirical(points=[[-1.0], [0.5], [2.0]], weights=[0.25, 0.5, 0.25]),
        cm.Convolution(parts=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.Laplace1D(scale=1.0))),
        cm.AffineMap(matrix=[[0.5], [1.0]], shift=[1.0, -1.0], inner=cm.Laplace1D(scale=1.0)),
        cm.StandardizedIIDSum(base=rademacher, n=9),
        cm.Product(factors=(cm.Laplace1D(scale=1.0), cm.UniformBox(lo=[-1.0], hi=[1.0]))),
    ]


def gaussian_density(z, mean=0.0, var=1.0):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * (z - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def subprocess_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the cfmoll under
    test, installed or not."""
    src = str(Path(cm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
