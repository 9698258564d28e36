import os
from pathlib import Path

import numpy as np
import pytest

import batchlab
from batchlab import data, nn

# Tests that run `python -m batchlab` in a subprocess must import the same
# package as the tests themselves, whether it is installed or not.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(batchlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"),
]))

MLP_SPECS = [
    nn.dense(2, 64), nn.batchnorm(), nn.relu(),
    nn.dense(64, 64), nn.batchnorm(), nn.relu(),
    nn.dense(64, 3), nn.softmax_xent(),
]

SMALL_SPECS = [
    nn.dense(2, 4), nn.batchnorm(), nn.relu(),
    nn.dense(4, 3), nn.softmax_xent(),
]


@pytest.fixture(scope="session")
def spirals():
    return data.gen_synthetic("synthetic-spirals", 10000, 3, 2, seed=1)


@pytest.fixture
def small_net():
    return nn.init_network(SMALL_SPECS, seed=7)


def random_batch(seed, n=8, dim=2, classes=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.integers(0, classes, n)


def numeric_gradients(net, x, y, h=1e-5):
    """Central finite differences of the mean batch loss, per group."""
    out = {}
    for g in net.params:
        num = np.zeros_like(g.param)
        flat = g.param.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = nn.loss_and_grad(net, x, y)
            flat[i] = orig - h
            lm = nn.loss_and_grad(net, x, y)
            flat[i] = orig
            nflat[i] = (lp - lm) / (2 * h)
        out[g.name] = num
    return out


def gradient_errors(net, x, y):
    """name -> norm-relative error between analytic and numeric gradients."""
    nn.loss_and_grad(net, x, y)
    analytic = {g.name: g.grad.copy() for g in net.params}
    numeric = numeric_gradients(net, x, y)
    errs = {}
    for name, num in numeric.items():
        # the floor turns the check absolute for degenerate groups whose true
        # gradient is ~0 (for example a dense bias feeding a batchnorm, which
        # cancels any uniform shift), where both sides are rounding noise
        denom = max(np.linalg.norm(num) + np.linalg.norm(analytic[name]), 1e-4)
        errs[name] = np.linalg.norm(analytic[name] - num) / denom
    return errs
