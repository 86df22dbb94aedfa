"""Fitness evaluation (Eq. 1) and the (1 + lambda) search."""

import numpy as np
import pytest

from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.circuits.simulator import truth_table
from repro.core import (
    EvolutionConfig,
    evolve,
    multiplier_objective,
    netlist_to_chromosome,
    params_for_netlist,
)
from repro.errors import (
    discretized_half_normal,
    exact_product_table,
    uniform,
    wmed,
)
from repro.tech import circuit_area


@pytest.fixture(scope="module")
def seed3():
    net = build_baugh_wooley_multiplier(3)
    return net, netlist_to_chromosome(net, params_for_netlist(net, extra_columns=10))


@pytest.fixture(scope="module")
def fit3():
    return multiplier_objective(3, uniform(3, signed=True))


def test_fitness_width_guard():
    with pytest.raises(ValueError):
        multiplier_objective(4, uniform(3, signed=True))


def test_exact_seed_has_zero_wmed(seed3, fit3):
    _, ch = seed3
    assert fit3.wmed(ch) == 0.0


def test_fitness_area_matches_netlist_area(seed3, fit3):
    net, ch = seed3
    assert fit3.area(ch) == pytest.approx(circuit_area(net))


def test_fitness_matches_metrics_wmed(seed3, fit3):
    """Evaluator WMED must equal the reference metric on the phenotype."""
    _, ch = seed3
    mutated = ch.copy()
    mutated.genes[2] = (mutated.genes[2] + 1) % len(ch.params.functions)
    mutated.invalidate_cache()
    table = truth_table(mutated.to_netlist(), signed=True)
    expected = wmed(
        exact_product_table(3, True), table, uniform(3, signed=True)
    )
    assert fit3.wmed(mutated) == pytest.approx(expected)


def test_fitness_threshold_gate(seed3, fit3):
    _, ch = seed3
    res = fit3.evaluate(ch, threshold=0.0)
    assert np.isfinite(res.fitness)
    assert res.feasible()
    # Corrupt an output to violate any tight threshold.
    bad = ch.copy()
    bad.genes[-1] = 0
    bad.invalidate_cache()
    res_bad = fit3.evaluate(bad, threshold=0.0)
    if res_bad.wmed > 0:
        assert res_bad.fitness == float("inf")
        assert not res_bad.feasible()


def test_evolve_rejects_negative_threshold(seed3, fit3):
    _, ch = seed3
    with pytest.raises(ValueError):
        evolve(ch, fit3, threshold=-0.1)


def test_evolution_reduces_area(seed3, fit3, rng):
    _, ch = seed3
    base_area = fit3.area(ch)
    res = evolve(
        ch,
        fit3,
        threshold=0.05,
        config=EvolutionConfig(generations=800),
        rng=rng,
    )
    assert res.feasible
    assert res.best_eval.wmed <= 0.05 + 1e-12
    assert res.best_eval.area < base_area


def test_evolution_respects_threshold_strictly(seed3, fit3, rng):
    _, ch = seed3
    for threshold in (0.0, 0.01):
        res = evolve(
            ch,
            fit3,
            threshold=threshold,
            config=EvolutionConfig(generations=150),
            rng=rng,
        )
        assert res.best_eval.wmed <= threshold + 1e-12


def test_evolution_parent_fitness_monotone(seed3, fit3, rng):
    """With history enabled, recorded fitness (area) never increases."""
    _, ch = seed3
    res = evolve(
        ch,
        fit3,
        threshold=0.05,
        config=EvolutionConfig(generations=300, history_every=10),
        rng=rng,
    )
    areas = [area for _, _, area in res.history]
    assert all(a >= b - 1e-9 for a, b in zip(areas, areas[1:]))


def test_evolution_counts_evaluations(seed3, fit3, rng):
    _, ch = seed3
    cfg = EvolutionConfig(generations=50, skip_neutral_evaluations=False)
    res = evolve(ch, fit3, threshold=0.02, config=cfg, rng=rng)
    assert res.evaluations == 1 + 50 * cfg.lam


def test_neutral_skip_reduces_evaluations(seed3, fit3):
    _, ch = seed3
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    with_skip = evolve(
        ch,
        fit3,
        threshold=0.02,
        config=EvolutionConfig(generations=50, skip_neutral_evaluations=True),
        rng=rng_a,
    )
    without = evolve(
        ch,
        fit3,
        threshold=0.02,
        config=EvolutionConfig(generations=50, skip_neutral_evaluations=False),
        rng=rng_b,
    )
    assert with_skip.evaluations <= without.evaluations
    # Same RNG stream -> same search trajectory -> same result.
    assert with_skip.best_eval.fitness == pytest.approx(without.best_eval.fitness)


def test_evolution_deterministic_given_seed(seed3, fit3):
    _, ch = seed3
    res1 = evolve(
        ch, fit3, threshold=0.03,
        config=EvolutionConfig(generations=120),
        rng=np.random.default_rng(77),
    )
    res2 = evolve(
        ch, fit3, threshold=0.03,
        config=EvolutionConfig(generations=120),
        rng=np.random.default_rng(77),
    )
    assert np.array_equal(res1.best.genes, res2.best.genes)
    assert res1.best_eval.fitness == res2.best_eval.fitness


def test_time_limit_stops_early(seed3, fit3, rng):
    _, ch = seed3
    res = evolve(
        ch,
        fit3,
        threshold=0.02,
        config=EvolutionConfig(generations=10_000, time_limit_s=0.05),
        rng=rng,
    )
    assert res.generations < 10_000


def test_distribution_weighted_fitness_prefers_weighted_inputs(rng):
    """Evolving under a half-normal D must not hurt low-x accuracy.

    The evolved circuit's WMED under its own design distribution must be
    within threshold even when its uniform WMED exceeds it — evidence the
    search exploited the distribution.
    """
    net = build_baugh_wooley_multiplier(4)
    ch = netlist_to_chromosome(net, params_for_netlist(net, extra_columns=10))
    d = discretized_half_normal(4, sigma=2.0, signed=True, name="half")
    fit = multiplier_objective(4, d)
    res = evolve(
        ch, fit, threshold=0.02,
        config=EvolutionConfig(generations=600), rng=rng,
    )
    assert res.best_eval.wmed <= 0.02 + 1e-12
    table = truth_table(res.best.to_netlist(), signed=True)
    exact = exact_product_table(4, True)
    wmed_own = wmed(exact, table, d)
    assert wmed_own <= 0.02 + 1e-12
