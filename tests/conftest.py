import numpy as np
import pytest

from roughmerton.simulate import ModelParams
from roughmerton.stabilizer import build_stabilizer


@pytest.fixture(scope="session")
def params4():
    """Two-asset example parameter set used throughout the tests."""
    return ModelParams(
        alpha=[0.9, 0.6],
        lam=[0.2, 0.6],
        nu=[0.4, 0.2],
        theta=[0.1, 0.1],
        rho=[-0.7, -0.55],
        mu0=[0.2, 0.25],
        c=[0.01, 0.03],
        T=1.0,
        x0=1.0,
    )


@pytest.fixture(scope="session")
def stab4(params4):
    grid = np.linspace(0.0, params4.T, 201)
    return [build_stabilizer(params4.kernel_spec(i), params4.c[i], grid) for i in range(params4.d)]
