"""Workload ``evolve-mul8-d2``: back-to-back CGP searches (paper Fig. 3).

One operation is one ``evolve()`` run of an 8-bit unsigned array
multiplier (``extra_columns=20``) at a 1 % WMED target under the D2
operand distribution, with the ``EvolutionConfig`` defaults except the
generation count: the default 10 000 generations take about 100 s per
run under the default engine schedule, longer than a whole benchmark
run, so each run is cut to ``GENERATIONS``.  Run ``k`` draws its
generator from ``SeedSequence([seed, k])``; runs repeat until the
measuring time is over and at least ``QUALITY_RUNS`` have finished.

Reported on this workload:

* ``throughput_per_s``: generations per second;
* ``p50_ms`` / ``p99_ms``: latency of one ``evolve()`` run;
* ``throughput_per_s`` and the latencies skip runs disturbed by other
  guests of the host (see ``common.undisturbed``; with about 17 runs per
  run of the benchmark, ``p99_ms`` is the slowest kept one);
* ``result_area_um2``: mean area of the final feasible design of the
  first ``QUALITY_RUNS`` runs, a pure function of the seed;
* ``setup_s``: median of ``SETUP_REPEATS`` builds of the seed circuit,
  its chromosome and the compiled objective, including a two-generation
  search that allocates the engine's buffers and starts its thread
  team.

Every run is checked afterwards: re-evaluating its best design with the
interpreted objective (``engine="off"``) must give the same
``(error, area)`` and the error must be within the target.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import List

from . import common

TARGET = 0.01
GENERATIONS = 200
QUALITY_RUNS = 15
SETUP_REPEATS = 25
WIDTH = 8


def _setup():
    import numpy as np

    from repro.analysis.sweep import make_objective
    from repro.circuits.generators.multipliers import build_array_multiplier
    from repro.core.evolution import EvolutionConfig, evolve
    from repro.core.seeding import netlist_to_chromosome, params_for_netlist
    from repro.errors.distributions import distribution_from_spec

    netlist = build_array_multiplier(WIDTH)
    params = params_for_netlist(netlist, extra_columns=20)
    seed = netlist_to_chromosome(netlist, params)
    dist = distribution_from_spec("d2", WIDTH, False)
    objective = make_objective(WIDTH, dist)
    # Two generations start the engine's buffers and thread team.
    evolve(seed, objective, TARGET, EvolutionConfig(generations=2),
           np.random.default_rng(0))
    return seed, dist


def run(seed: int, seconds: float, tiny: bool = False,
        corrupt: bool = False, begin=common.noop,
        end=common.noop) -> common.Outcome:
    import numpy as np

    from repro.analysis.sweep import make_objective
    from repro.core import evolution

    generations = 20 if tiny else GENERATIONS
    quality_runs = 1 if tiny else QUALITY_RUNS
    out = common.Outcome()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        chromosome, dist = _setup()
        setup_times.append(perf_counter() - t0)

    config = evolution.EvolutionConfig(generations=generations)
    results = []
    walls: List[float] = []
    shares: List[float] = []
    begin()
    start = perf_counter()
    try:
        while perf_counter() - start < seconds or len(results) < quality_runs:
            k = len(results)
            objective = make_objective(WIDTH, dist)
            rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
            steal = common.StealMeter()
            t0 = perf_counter()
            result = evolution.evolve(chromosome, objective, TARGET,
                                      config, rng)
            walls.append(perf_counter() - t0)
            shares.append(steal.share())
            results.append(result)
    finally:
        end()

    if corrupt:
        bad = results[0]
        results[0] = dataclasses.replace(
            bad, best_eval=dataclasses.replace(
                bad.best_eval, area=bad.best_eval.area + 1.0
            ),
        )
    reference = make_objective(WIDTH, dist, engine="off")
    for k, result in enumerate(results):
        out.attempted += 1
        error = reference.error(result.best)
        area = reference.area(result.best)
        if (error, area) != (result.best_eval.error, result.best_eval.area):
            out.fail(f"run {k}: engine (error, area) "
                     f"{(result.best_eval.error, result.best_eval.area)} != "
                     f"interpreted {(error, area)}")
        elif error > TARGET:
            out.fail(f"run {k}: error {error} above target {TARGET}")

    timed = common.undisturbed(
        [(r.generations, w) for r, w in zip(results, walls)], shares
    )
    timed_walls = [w for _, w in timed]
    total_gens = sum(r.generations for r in results)
    out.values.update({
        "setup_s": common.median(setup_times),
        "peak_rss_mb": common.peak_rss_mb(),
        "throughput_per_s": sum(g for g, _ in timed) / sum(timed_walls),
        "p50_ms": common.percentile(timed_walls, 50) * 1e3,
        "p99_ms": common.percentile(timed_walls, 99) * 1e3,
        "result_area_um2": sum(
            r.best_eval.area for r in results[:quality_runs]
        ) / quality_runs,
    })
    out.details.update({
        "runs": len(results),
        "generations": total_gens,
        "run_wall_s": walls,
        "run_steal_share": shares,
        "runs_timed": len(timed),
        "run_areas": [r.best_eval.area for r in results],
        "setup_samples_s": setup_times,
    })
    return out
