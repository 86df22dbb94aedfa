"""Extensions: generic fitness, approximate adders, joint WMED, annealing."""

import numpy as np
import pytest

from repro.baselines.adders import (
    build_lower_part_or_adder,
    build_truncated_adder,
)
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.circuits.simulator import truth_table
from repro.circuits.verify import reference_sums, verify_adder
from repro.core import (
    EvolutionConfig,
    evolve,
    multiplier_objective,
    netlist_to_chromosome,
    params_for_netlist,
)
from repro.core.annealing import AnnealingConfig, anneal
from repro.core.objective import CircuitObjective
from repro.errors import from_pmf, uniform, wmed
from repro.errors.truth_tables import vector_weights_joint


# ----------------------------------------------------------------------
# Approximate adders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("builder", [build_truncated_adder, build_lower_part_or_adder])
def test_adder_zero_approximation_is_exact(builder):
    verify_adder(builder(5, 0), 5)


def test_truncated_adder_low_bits_zero():
    net = build_truncated_adder(5, 3)
    tt = truth_table(net)
    assert np.all(tt % 8 == 0)


def test_loa_low_bits_are_or():
    net = build_lower_part_or_adder(4, 2)
    tt = truth_table(net)
    for v in range(256):
        a, b = v & 15, v >> 4
        low = ((a | b) & 3)
        assert tt[v] & 3 == low


def test_loa_beats_truncation_on_mean_error():
    ref = reference_sums(6, signed=False)
    k = 3
    err_trunc = np.abs(truth_table(build_truncated_adder(6, k)) - ref).mean()
    err_loa = np.abs(truth_table(build_lower_part_or_adder(6, k)) - ref).mean()
    assert err_loa < err_trunc


def test_adder_bounds_checked():
    with pytest.raises(ValueError):
        build_truncated_adder(4, 5)
    with pytest.raises(ValueError):
        build_lower_part_or_adder(0, 0)


def test_full_width_approximations():
    tt = truth_table(build_truncated_adder(3, 3))
    assert np.all(tt == 0)
    loa = truth_table(build_lower_part_or_adder(3, 3))
    for v in range(64):
        a, b = v & 7, v >> 3
        assert loa[v] == (a | b)


# ----------------------------------------------------------------------
# Generic fitness
# ----------------------------------------------------------------------
def test_circuit_fitness_matches_multiplier_fitness(bw4):
    ch = netlist_to_chromosome(bw4)
    d = uniform(4, signed=True)
    mult_fit = multiplier_objective(4, d)
    generic = CircuitObjective(
        num_inputs=8,
        reference=mult_fit.reference,
        weights=mult_fit.weights,
        signed=True,
        normalizer=mult_fit.normalizer,
    )
    a = mult_fit.evaluate(ch, 0.01)
    b = generic.evaluate(ch, 0.01)
    assert a.fitness == pytest.approx(b.fitness)
    assert a.wmed == pytest.approx(b.wmed)
    assert a.area == pytest.approx(b.area)


def test_circuit_fitness_validates_reference():
    with pytest.raises(ValueError):
        CircuitObjective(4, np.zeros(10))
    with pytest.raises(ValueError):
        CircuitObjective(3, np.zeros(8), weights=np.ones(4))
    with pytest.raises(ValueError):
        CircuitObjective(3, np.zeros(8), normalizer=-1.0)


def test_evolve_approximate_adder_with_generic_fitness(rng):
    """The WMED machinery approximates adders too (paper generality)."""
    from repro.circuits.generators import build_ripple_carry_adder

    width = 4
    net = build_ripple_carry_adder(width)
    seed = netlist_to_chromosome(net, params_for_netlist(net, extra_columns=10))
    evaluator = CircuitObjective(
        num_inputs=2 * width,
        reference=reference_sums(width, signed=False),
        signed=False,
    )
    base_area = evaluator.area(seed)
    res = evolve(
        seed, evaluator, threshold=0.05,
        config=EvolutionConfig(generations=600), rng=rng,
    )
    assert res.feasible
    assert res.best_eval.wmed <= 0.05 + 1e-12
    assert res.best_eval.area <= base_area


# ----------------------------------------------------------------------
# Joint two-operand weighting
# ----------------------------------------------------------------------
def test_joint_weights_product_structure():
    px = np.zeros(4); px[1] = 1.0
    py = np.zeros(4); py[2] = 1.0
    dx = from_pmf(px, 2, name="x")
    dy = from_pmf(py, 2, name="y")
    w = vector_weights_joint(dx, dy)
    assert w.sum() == pytest.approx(1.0)
    # only vector with x pattern 1, y pattern 2 -> index 2*4+1
    assert w[2 * 4 + 1] == pytest.approx(1.0)


def test_joint_weights_uniform_matches_plain():
    dx = uniform(3)
    dy = uniform(3)
    w = vector_weights_joint(dx, dy)
    assert np.allclose(w, 1.0 / 64)


def test_joint_weights_guards():
    with pytest.raises(ValueError):
        vector_weights_joint(uniform(3), uniform(4))
    with pytest.raises(ValueError):
        vector_weights_joint(uniform(3), uniform(3, signed=True))


# ----------------------------------------------------------------------
# Simulated annealing baseline
# ----------------------------------------------------------------------
def test_anneal_finds_feasible_solution(bw4, rng):
    ch = netlist_to_chromosome(
        bw4, params_for_netlist(bw4, extra_columns=10)
    )
    fit = multiplier_objective(4, uniform(4, signed=True))
    res = anneal(
        ch, fit, threshold=0.05,
        config=AnnealingConfig(steps=1500), rng=rng,
    )
    assert res.feasible
    assert res.best_eval.wmed <= 0.05 + 1e-12


def test_anneal_temperature_schedule():
    cfg = AnnealingConfig(steps=100, initial_temperature=10.0,
                          final_temperature=0.1)
    assert cfg.temperature(0) == pytest.approx(10.0)
    assert cfg.temperature(99) == pytest.approx(0.1)
    assert cfg.temperature(50) < 10.0


def test_anneal_threshold_guard(bw4, rng):
    ch = netlist_to_chromosome(bw4)
    fit = multiplier_objective(4, uniform(4, signed=True))
    with pytest.raises(ValueError):
        anneal(ch, fit, threshold=-1.0, rng=rng)


def test_cgp_competitive_with_annealing(bw4):
    """At equal evaluation budget, (1+lambda) CGP should not lose badly
    to annealing — the paper's choice of search engine."""
    ch = netlist_to_chromosome(
        bw4, params_for_netlist(bw4, extra_columns=10)
    )
    fit = multiplier_objective(4, uniform(4, signed=True))
    cgp = evolve(
        ch, fit, threshold=0.05,
        config=EvolutionConfig(generations=500),
        rng=np.random.default_rng(1),
    )
    sa = anneal(
        ch, fit, threshold=0.05,
        config=AnnealingConfig(steps=2000),
        rng=np.random.default_rng(1),
    )
    assert cgp.feasible and sa.feasible
    assert cgp.best_eval.area <= sa.best_eval.area * 1.25
