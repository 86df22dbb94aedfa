"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper.  Expensive
artifacts — trained networks, evolved multiplier fronts — are produced
once per pytest session and shared, mirroring how the paper reuses "the
multipliers presented in Fig. 3" in later experiments.

Budget knobs (environment variables):

* ``REPRO_BENCH_GENS``   — CGP generations per WMED target (default 2500).
* ``REPRO_BENCH_RUNS``   — repeated CGP runs per box-plot level (default 2).
* ``REPRO_BENCH_TRAIN``  — training-set size per network (default 4000).
* ``REPRO_BENCH_TEST``   — test-set size per network (default 800).

The paper used 1-hour / 10^6-iteration runs repeated 10-25 times; these
defaults reproduce the qualitative shape in minutes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis import DesignPoint, evolve_front
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.core import EvolutionConfig
from repro.errors import Distribution, uniform
from repro.nn import (
    QuantizedModel,
    accuracy,
    build_lenet5,
    build_mlp,
    mnist_like,
    svhn_like,
    train,
    weight_distribution,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@dataclass(frozen=True)
class BenchConfig:
    generations: int
    runs_per_level: int
    train_size: int
    test_size: int

    @property
    def evolution_config(self) -> EvolutionConfig:
        return EvolutionConfig(generations=self.generations)


@pytest.fixture(scope="session")
def bench_config() -> BenchConfig:
    return BenchConfig(
        generations=_env_int("REPRO_BENCH_GENS", 2500),
        runs_per_level=_env_int("REPRO_BENCH_RUNS", 2),
        train_size=_env_int("REPRO_BENCH_TRAIN", 4000),
        test_size=_env_int("REPRO_BENCH_TEST", 800),
    )


@pytest.fixture(scope="session")
def report():
    """Write a report block to the real stdout and archive it to a file.

    pytest captures normal prints; benchmark tables must reach the
    console (and ``bench_output.txt``) regardless, so this writes through
    ``sys.__stdout__`` and mirrors everything under
    ``benchmarks/results/``.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    written = set()

    def _report(name: str, text: str) -> None:
        block = f"\n{text}\n"
        sys.__stdout__.write(block)
        sys.__stdout__.flush()
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        mode = "a" if name in written else "w"
        written.add(name)
        with open(path, mode) as fh:
            fh.write(block)

    return _report


# ----------------------------------------------------------------------
# Trained networks (Case Study 2 substrate)
# ----------------------------------------------------------------------
@dataclass
class NetworkSetup:
    """One trained + quantized classifier and its data."""

    name: str
    model: QuantizedModel
    weight_dist: Distribution
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    float_accuracy: float
    quant_accuracy: float


@pytest.fixture(scope="session")
def mnist_setup(bench_config) -> NetworkSetup:
    """The paper's MLP-300 on the MNIST-like task."""
    rng = np.random.default_rng(2019)
    n_train, n_test = bench_config.train_size, bench_config.test_size
    x, y = mnist_like(n_train + n_test, rng)
    x = x.reshape(len(x), -1)
    train_x, train_y = x[:n_train], y[:n_train]
    test_x, test_y = x[n_train:], y[n_train:]
    network = build_mlp(rng=np.random.default_rng(1))
    train(network, train_x, train_y, epochs=8, lr=0.1, lr_decay=0.9, rng=rng)
    model = QuantizedModel(network, train_x[:256])
    return NetworkSetup(
        name="MLP/MNIST-like",
        model=model,
        weight_dist=weight_distribution(model.quants, name="Dmlp"),
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        float_accuracy=accuracy(network, test_x, test_y),
        quant_accuracy=model.accuracy(test_x, test_y),
    )


@pytest.fixture(scope="session")
def svhn_setup(bench_config) -> NetworkSetup:
    """The paper's LeNet-5 variant on the SVHN-like task."""
    rng = np.random.default_rng(2020)
    n_train = bench_config.train_size
    n_test = max(200, bench_config.test_size // 2)
    x, y = svhn_like(n_train + n_test, rng)
    train_x, train_y = x[:n_train], y[:n_train]
    test_x, test_y = x[n_train:], y[n_train:]
    network = build_lenet5(rng=np.random.default_rng(2))
    train(
        network, train_x, train_y,
        epochs=8, lr=0.06, lr_decay=0.9, batch_size=64, rng=rng,
    )
    model = QuantizedModel(network, train_x[:256])
    return NetworkSetup(
        name="LeNet-5/SVHN-like",
        model=model,
        weight_dist=weight_distribution(model.quants, name="Dlenet"),
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        float_accuracy=accuracy(network, test_x, test_y),
        quant_accuracy=model.accuracy(test_x, test_y),
    )


# ----------------------------------------------------------------------
# Evolved multipliers (shared by Fig. 6 / Fig. 7 / Table I)
# ----------------------------------------------------------------------
#: WMED levels (percent) used for the NN case study at benchmark scale —
#: a subset of the paper's Table I grid spanning mild to destructive.
NN_WMED_LEVELS = (0.1, 0.5, 2.0, 10.0)


def _evolve_nn_front(
    dist: Distribution, config: BenchConfig, seed_value: int
) -> List[DesignPoint]:
    seed = build_baugh_wooley_multiplier(8)
    return evolve_front(
        seed,
        8,
        design_dist=dist,
        thresholds_percent=list(NN_WMED_LEVELS),
        eval_dists=[dist, uniform(8, signed=True)],
        config=config.evolution_config,
        rng=np.random.default_rng(seed_value),
    )


@pytest.fixture(scope="session")
def mnist_front(bench_config, mnist_setup) -> List[DesignPoint]:
    """Multipliers evolved for the MLP's weight distribution."""
    return _evolve_nn_front(mnist_setup.weight_dist, bench_config, 301)


@pytest.fixture(scope="session")
def svhn_front(bench_config, svhn_setup) -> List[DesignPoint]:
    """Multipliers evolved for the LeNet's weight distribution."""
    return _evolve_nn_front(svhn_setup.weight_dist, bench_config, 302)


# ----------------------------------------------------------------------
# Case Study 1 fronts (shared by Fig. 3 / Fig. 4 / Fig. 5)
# ----------------------------------------------------------------------
#: WMED targets (percent) for the synthetic-distribution sweeps — a
#: subset of the paper's 14 levels spanning four decades.
CS1_WMED_LEVELS = (0.01, 0.1, 0.5, 2.0)


@pytest.fixture(scope="session")
def cs1_fronts(bench_config) -> Dict[str, List[DesignPoint]]:
    """8-bit unsigned multipliers evolved under D1, D2 and Du.

    Returns a mapping ``{"D1": [...], "D2": [...], "Du": [...]}``; every
    design point is cross-evaluated under all three WMED metrics, exactly
    as in the paper's Fig. 3.
    """
    from repro.circuits.generators import build_array_multiplier
    from repro.errors import paper_d1, paper_d2

    d1, d2 = paper_d1(8), paper_d2(8)
    du = uniform(8, name="Du")
    dists = [d1, d2, du]
    seed = build_array_multiplier(8)
    fronts: Dict[str, List[DesignPoint]] = {}
    for idx, dist in enumerate(dists):
        fronts[dist.name] = evolve_front(
            seed,
            8,
            design_dist=dist,
            thresholds_percent=list(CS1_WMED_LEVELS),
            eval_dists=dists,
            config=bench_config.evolution_config,
            rng=np.random.default_rng(400 + idx),
        )
    return fronts
