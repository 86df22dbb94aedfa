"""Ablations of three design choices of the search.

Small-scale (4-bit, seconds per run) so the whole module is cheap:

1. **Distribution weighting** (the paper's contribution itself): evolve
   under a concentrated D vs under Du and cross-evaluate — the
   D-driven circuit must be better *under D* at equal area budget.
2. **Seeding with an exact circuit** vs a random initial chromosome:
   seeding is what makes the constrained search productive.
3. **Error tie-breaking** (our refinement over literal Eq. 1): with
   tie-breaking off, plateau drift pushes WMED toward the budget without
   area gain; with it on, residual WMED at equal area is no worse.
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.core import (
    EvolutionConfig,
    evolve,
    multiplier_objective,
    netlist_to_chromosome,
    params_for_netlist,
    random_chromosome,
)
from repro.errors import discretized_half_normal, uniform

WIDTH = 4
GENS = 1500
THRESHOLD = 0.02


@pytest.fixture(scope="module")
def setup():
    net = build_baugh_wooley_multiplier(WIDTH)
    params = params_for_netlist(net, extra_columns=15)
    seed = netlist_to_chromosome(net, params)
    d = discretized_half_normal(WIDTH, sigma=2.5, signed=True, name="Dh")
    du = uniform(WIDTH, signed=True)
    return seed, params, d, du


def _run(seed, evaluator, config, rng_seed):
    return evolve(
        seed, evaluator, THRESHOLD, config=config,
        rng=np.random.default_rng(rng_seed),
    )


def test_ablation_distribution_weighting(setup, report, benchmark):
    seed, _params, d, du = setup
    fit_d = multiplier_objective(WIDTH, d)
    fit_u = multiplier_objective(WIDTH, du)
    benchmark.pedantic(
        _run, args=(seed, fit_d, EvolutionConfig(generations=50), 0),
        rounds=3, iterations=1,
    )
    cfg = EvolutionConfig(generations=GENS)
    rows = []
    areas = {}
    for name, fit in (("driven by Dh", fit_d), ("driven by Du", fit_u)):
        runs = [_run(seed, fit, cfg, 500 + k) for k in range(3)]
        best = min(runs, key=lambda r: r.best_eval.fitness)
        cross = multiplier_objective(WIDTH, d).wmed(best.best)
        rows.append(
            [name, best.best_eval.area, 100 * best.best_eval.wmed, 100 * cross]
        )
        areas[name] = best.best_eval.area
    report(
        "ablation_distribution",
        format_table(
            ["search", "area um2", "own WMED %", "WMED_Dh %"],
            rows,
            title="Ablation 1 — distribution weighting "
            f"(threshold {100 * THRESHOLD:g} %, best of 3 runs)",
        ),
    )
    # The Dh-driven search must reach at most the Du-driven area: it has
    # strictly more freedom (it may overspend error on improbable inputs).
    assert areas["driven by Dh"] <= areas["driven by Du"] * 1.05


def test_ablation_seeding(setup, report, benchmark):
    seed, params, d, _du = setup
    fit = multiplier_objective(WIDTH, d)
    cfg = EvolutionConfig(generations=GENS)
    benchmark.pedantic(
        _run, args=(seed, fit, EvolutionConfig(generations=50), 1),
        rounds=3, iterations=1,
    )
    seeded = _run(seed, fit, cfg, 7)
    random_init = _run(
        random_chromosome(params, np.random.default_rng(8)), fit, cfg, 9
    )
    report(
        "ablation_seeding",
        format_table(
            ["init", "feasible", "area um2", "WMED %"],
            [
                ["exact seed", seeded.feasible, seeded.best_eval.area,
                 100 * seeded.best_eval.wmed],
                ["random", random_init.feasible,
                 random_init.best_eval.area
                 if random_init.feasible else float("nan"),
                 100 * random_init.best_eval.wmed],
            ],
            title="Ablation 2 — seeding with an exact multiplier",
        ),
    )
    assert seeded.feasible
    if random_init.feasible:
        # Even if random init stumbles into feasibility, the seeded run
        # must be at least as good.
        assert seeded.best_eval.fitness <= random_init.best_eval.fitness


def test_ablation_error_tie_break(setup, report, benchmark):
    seed, _params, d, _du = setup
    fit = multiplier_objective(WIDTH, d)
    benchmark.pedantic(
        _run, args=(seed, fit, EvolutionConfig(generations=50), 2),
        rounds=3, iterations=1,
    )
    with_tb = _run(seed, fit, EvolutionConfig(generations=GENS), 11)
    without = _run(
        seed, fit,
        EvolutionConfig(generations=GENS, tie_break_error=False), 11,
    )
    report(
        "ablation_tiebreak",
        format_table(
            ["acceptance", "area um2", "WMED %"],
            [
                ["area, then WMED", with_tb.best_eval.area,
                 100 * with_tb.best_eval.wmed],
                ["area only (Eq. 1 literal)", without.best_eval.area,
                 100 * without.best_eval.wmed],
            ],
            title="Ablation 3 — lexicographic error tie-breaking",
        ),
    )
    assert with_tb.feasible and without.feasible
    # Tie-breaking must not cost area at this budget.
    assert with_tb.best_eval.area <= without.best_eval.area * 1.10
