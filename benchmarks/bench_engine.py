#!/usr/bin/env python
"""Benchmark the compiled evaluation engine against the seed evaluator.

Measures, for one operand width:

* **single-candidate evaluation** — the interpreted
  ``MultiplierFitness`` path vs. the engine with caching disabled (every
  evaluation compiles + simulates + decodes from scratch) and vs. the
  engine's cache-hit path;
* **brood batch dispatch** — a realistic (1 + lambda) brood evaluated
  through ``evaluate_batch`` vs. one ``evaluate`` call per candidate,
  serially (the default) and under an OpenMP team
  (``REPRO_OMP=BROOD_OMP_THREADS``), asserting all paths return
  identical results;
* **end-to-end evolution** — ``evolve()`` wall time and evaluations/s
  under both evaluators with the same RNG seed, asserting the
  ``(wmed, area)`` trajectories are identical (the engine must change
  throughput, never results) and recording the phenotype-cache hit
  rate of the run;
* **sampled wide-operand evolution** — a width-16 multiplier evolved
  under the Monte-Carlo objective (``--eval sampled`` on the CLI): the
  exhaustive space would need 2**32 vectors, so this measures the
  sampled path's evals/s and gates on it completing within
  ``--sampled-max-s`` (the wide-width smoke tripwire).

Results are appended-free-written to ``BENCH_engine.json`` at the repo
root (override with ``--out``) so perf trajectories can be tracked
across commits.  Exits non-zero when trajectories diverge or when
``--min-speedup`` is not met — CI uses this as a loud perf regression
tripwire.

Usage::

    python benchmarks/bench_engine.py                  # full, width 8
    python benchmarks/bench_engine.py --smoke          # CI: width 6, short
    python benchmarks/bench_engine.py --min-speedup 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.circuits.generators import build_array_multiplier  # noqa: E402
from repro.core.evolution import EvolutionConfig, evolve  # noqa: E402
from repro.core.fitness import MultiplierFitness  # noqa: E402
from repro.core.seeding import (  # noqa: E402
    netlist_to_chromosome,
    params_for_netlist,
)
from repro.engine import (  # noqa: E402
    CompiledMultiplierFitness,
    native_available,
)
from repro.errors.distributions import uniform  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_engine.json"
)


def _time_ms(fn, reps: int, rounds: int) -> float:
    """Median over ``rounds`` of the mean ms across ``reps`` calls."""
    fn()  # warmup
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e3)
    return statistics.median(samples)


def bench_single_eval(width: int, reps: int, rounds: int) -> dict:
    net = build_array_multiplier(width)
    params = params_for_netlist(net)
    chrom = netlist_to_chromosome(net, params)
    dist = uniform(width, signed=False)
    threshold = 0.01

    baseline = MultiplierFitness(width, dist)
    engine_cold = CompiledMultiplierFitness(width, dist, cache_entries=0)
    engine_cached = CompiledMultiplierFitness(width, dist)

    def fresh():
        c = chrom.copy()
        c.invalidate_cache()
        return c

    baseline_ms = _time_ms(
        lambda: baseline.evaluate(fresh(), threshold), reps, rounds
    )
    engine_ms = _time_ms(
        lambda: engine_cold.evaluate(fresh(), threshold), reps, rounds
    )
    engine_cached.evaluate(chrom, threshold)  # populate the cache
    cached_ms = _time_ms(
        lambda: engine_cached.evaluate(fresh(), threshold), reps, rounds
    )

    # Equivalence spot check on the measured candidate.
    rb = baseline.evaluate(fresh(), threshold)
    re = engine_cold.evaluate(fresh(), threshold)
    return {
        "width": width,
        "active_gates": len(net.gates),
        "baseline_ms": round(baseline_ms, 4),
        "engine_ms": round(engine_ms, 4),
        "engine_cached_ms": round(cached_ms, 4),
        "speedup": round(baseline_ms / engine_ms, 2),
        "cached_speedup": round(baseline_ms / cached_ms, 2),
        "bit_identical": rb == re,
    }


#: OpenMP team size the brood benchmark's threaded leg requests.
BROOD_OMP_THREADS = 2


def bench_brood(width: int, lam: int, reps: int, rounds: int) -> dict:
    """Batched vs per-candidate dispatch on one realistic brood.

    Builds ``lam`` mutants of the exact seed (a fixed RNG, so the brood
    is identical across runs/commits), then times: sequential
    ``evaluate`` per candidate, ``evaluate_batch`` forced serial
    (``REPRO_OMP=0``), and ``evaluate_batch`` with an OpenMP team of
    :data:`BROOD_OMP_THREADS` requested.  The brood is weighted
    uniformly, so its reduction is the exact-integer C fold: the one
    path on which the engine runs a team.  Caching is disabled so the
    numbers measure raw dispatch, and all paths are checked for
    identical results.
    """
    from repro.core.mutation import mutate

    net = build_array_multiplier(width)
    params = params_for_netlist(net, extra_columns=8)
    seed_chrom = netlist_to_chromosome(net, params)
    dist = uniform(width, signed=False)
    threshold = 0.01
    rng = np.random.default_rng(5)
    brood = []
    parent = seed_chrom
    for _ in range(lam):
        parent, _ = mutate(parent, 5, rng)
        brood.append(parent)

    seq_obj = CompiledMultiplierFitness(width, dist, cache_entries=0)
    batch_obj = CompiledMultiplierFitness(width, dist, cache_entries=0)

    def run_seq():
        return [seq_obj.evaluate(c, threshold) for c in brood]

    def run_batch():
        return batch_obj.evaluate_batch(brood, threshold)

    omp_prev = os.environ.get("REPRO_OMP")

    def set_omp(value):
        if value is None:
            os.environ.pop("REPRO_OMP", None)
        else:
            os.environ["REPRO_OMP"] = value

    try:
        seq_ms = _time_ms(run_seq, reps, rounds)
        set_omp("0")
        serial_ms = _time_ms(run_batch, reps, rounds)
        serial_res = run_batch()
        set_omp(str(BROOD_OMP_THREADS))
        omp_ms = _time_ms(run_batch, reps, rounds)
        omp_res = run_batch()
    finally:
        set_omp(omp_prev)
    identical = run_seq() == serial_res == omp_res

    def evals_per_s(ms):
        return round(lam / (ms / 1e3), 1)

    return {
        "width": width,
        "lam": lam,
        "sequential_evals_per_s": evals_per_s(seq_ms),
        "batch_serial_evals_per_s": evals_per_s(serial_ms),
        "batch_omp_evals_per_s": evals_per_s(omp_ms),
        "batch_speedup_vs_sequential": round(seq_ms / serial_ms, 2),
        "bit_identical": identical,
    }


def bench_evolve(width: int, generations: int, seed: int = 7) -> dict:
    net = build_array_multiplier(width)
    params = params_for_netlist(net, extra_columns=8)
    seed_chrom = netlist_to_chromosome(net, params)
    dist = uniform(width, signed=False)
    cfg = EvolutionConfig(generations=generations, history_every=1)
    threshold = 0.01

    runs = {}
    for name, evaluator in (
        ("baseline", MultiplierFitness(width, dist)),
        ("engine", CompiledMultiplierFitness(width, dist)),
    ):
        t0 = time.perf_counter()
        result = evolve(
            seed_chrom, evaluator, threshold, config=cfg,
            rng=np.random.default_rng(seed),
        )
        elapsed = time.perf_counter() - t0
        runs[name] = (result, elapsed, evaluator)

    base_res, base_s, _ = runs["baseline"]
    eng_res, eng_s, eng_eval = runs["engine"]
    identical = (
        base_res.history == eng_res.history
        and base_res.best_eval == eng_res.best_eval
        and np.array_equal(base_res.best.genes, eng_res.best.genes)
    )
    cache = eng_eval.stats()["cache"]
    lookups = cache["hits"] + cache["misses"]
    # Thin the archived trajectory to <= 50 points.
    step = max(1, len(eng_res.history) // 50)
    return {
        "width": width,
        "generations": generations,
        "seed": seed,
        "threshold": threshold,
        "cache_hits": cache["hits"],
        "cache_hit_rate": round(cache["hits"] / lookups, 4) if lookups else 0.0,
        "baseline_s": round(base_s, 3),
        "engine_s": round(eng_s, 3),
        "speedup": round(base_s / eng_s, 2),
        "evaluations": eng_res.evaluations,
        "baseline_evals_per_s": round(base_res.evaluations / base_s, 1),
        "engine_evals_per_s": round(eng_res.evaluations / eng_s, 1),
        "trajectories_identical": identical,
        "final_wmed": eng_res.best_eval.wmed,
        "final_area": eng_res.best_eval.area,
        "engine_stats": eng_eval.stats(),
        "trajectory": [
            {"generation": g, "wmed": w, "area": a}
            for g, w, a in eng_res.history[::step]
        ],
    }


def bench_sampled_evolve(
    width: int, generations: int, samples: int, replicates: int,
    seed: int = 7,
) -> dict:
    """Width-``width`` sampled multiplier evolve: wall time + evals/s.

    Uses the same SeedSequence-derived stimulus for any run of this
    configuration, so the trajectory (and the reported estimate) is a
    deterministic function of the arguments.
    """
    from repro.core.components import COMPONENTS, sampled_component_objective
    from repro.core.objective import SampleSpec
    from repro.engine import CompiledSampledObjective
    from repro.errors.distributions import paper_d2

    dist = paper_d2(width)
    spec = SampleSpec(samples=samples, replicates=replicates, seed=0)
    objective = CompiledSampledObjective(
        sampled_component_objective("multiplier", width, dist, spec)
    )
    seed_chrom = netlist_to_chromosome(
        COMPONENTS["multiplier"].build_seed(width, False)
    )
    cfg = EvolutionConfig(generations=generations)
    threshold = 0.01
    t0 = time.perf_counter()
    result = evolve(
        seed_chrom, objective, threshold,
        config=cfg, rng=np.random.default_rng(seed),
    )
    elapsed = time.perf_counter() - t0
    best = result.best_eval
    return {
        "width": width,
        "generations": generations,
        "samples": samples,
        "replicates": replicates,
        "seed": seed,
        "threshold": threshold,
        "wall_s": round(elapsed, 3),
        "evaluations": result.evaluations,
        "evals_per_s": round(result.evaluations / elapsed, 1),
        "final_error": best.wmed,
        "final_ci": [best.ci_low, best.ci_high],
        "final_area": best.area,
        "feasible": best.wmed <= threshold,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=8)
    ap.add_argument("--generations", type=int, default=300)
    ap.add_argument(
        "--lam", type=int, default=4,
        help="brood size for the batch-dispatch section",
    )
    ap.add_argument("--reps", type=int, default=30)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI preset: width 6, 30 generations, reduced reps",
    )
    ap.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if the single-eval speedup falls below this",
    )
    ap.add_argument(
        "--require-backend", choices=("native", "numpy"), default=None,
        help="exit non-zero unless this backend is actually in use "
        "(CI uses it so a silently broken C build cannot pass as native)",
    )
    ap.add_argument(
        "--sampled-generations", type=int, default=120,
        help="generations for the width-16 sampled-evolve section",
    )
    ap.add_argument("--sampled-samples", type=int, default=512)
    ap.add_argument("--sampled-replicates", type=int, default=4)
    ap.add_argument(
        "--sampled-max-s", type=float, default=300.0,
        help="exit non-zero if the sampled evolve takes longer than this "
        "(the wide-operand path must complete in minutes, not hours)",
    )
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    if args.smoke:
        args.width = min(args.width, 6)
        args.generations = min(args.generations, 30)
        args.reps = min(args.reps, 10)
        args.rounds = min(args.rounds, 3)
        args.sampled_generations = min(args.sampled_generations, 30)
        args.sampled_max_s = min(args.sampled_max_s, 120.0)
        if args.min_speedup is None:
            args.min_speedup = 2.0

    backend = "native" if native_available() else "numpy"
    print(f"engine backend: {backend}")
    if args.require_backend and backend != args.require_backend:
        print(
            f"FAIL: engine backend is {backend}, "
            f"required {args.require_backend}"
        )
        return 1
    single = bench_single_eval(args.width, args.reps, args.rounds)
    print(
        f"single eval w={single['width']}: baseline {single['baseline_ms']} ms"
        f" | engine {single['engine_ms']} ms ({single['speedup']}x)"
        f" | cached {single['engine_cached_ms']} ms"
        f" ({single['cached_speedup']}x)"
    )
    brood = bench_brood(args.width, args.lam, args.reps, args.rounds)
    print(
        f"brood lam={brood['lam']}:"
        f" sequential {brood['sequential_evals_per_s']} evals/s"
        f" | batch serial {brood['batch_serial_evals_per_s']}"
        f" | batch omp {brood['batch_omp_evals_per_s']}"
        f" | identical: {brood['bit_identical']}"
    )
    evo = bench_evolve(args.width, args.generations)
    print(
        f"evolve {evo['generations']} gens: baseline {evo['baseline_s']} s"
        f" | engine {evo['engine_s']} s ({evo['speedup']}x)"
        f" | {evo['engine_evals_per_s']} evals/s"
        f" | cache hit rate {evo['cache_hit_rate']}"
        f" | trajectories identical: {evo['trajectories_identical']}"
    )

    sampled = bench_sampled_evolve(
        16, args.sampled_generations,
        args.sampled_samples, args.sampled_replicates,
    )
    print(
        f"sampled evolve w={sampled['width']}"
        f" ({sampled['samples']}x{sampled['replicates']} samples):"
        f" {sampled['wall_s']} s"
        f" | {sampled['evals_per_s']} evals/s"
        f" | error {100 * sampled['final_error']:.4f}%"
        f" ci95 [{100 * sampled['final_ci'][0]:.4f}%,"
        f" {100 * sampled['final_ci'][1]:.4f}%]"
    )

    record = {
        "benchmark": "engine",
        "config": {
            "width": args.width,
            "generations": args.generations,
            "lam": args.lam,
            "smoke": args.smoke,
            "repro_omp": os.environ.get("REPRO_OMP", ""),
            "brood_omp_threads": BROOD_OMP_THREADS,
        },
        "backend": backend,
        "single_eval": single,
        "brood_batch": brood,
        "evolve": evo,
        "sampled_evolve": sampled,
    }
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"wrote {out}")

    if (
        not single["bit_identical"]
        or not brood["bit_identical"]
        or not evo["trajectories_identical"]
    ):
        print("FAIL: engine results diverge from the reference evaluator")
        return 1
    if args.min_speedup is not None and single["speedup"] < args.min_speedup:
        print(
            f"FAIL: single-eval speedup {single['speedup']}x below "
            f"required {args.min_speedup}x"
        )
        return 1
    if sampled["wall_s"] > args.sampled_max_s:
        print(
            f"FAIL: sampled evolve took {sampled['wall_s']} s, "
            f"over the {args.sampled_max_s} s gate"
        )
        return 1
    if not args.smoke and evo["cache_hits"] == 0:
        # Regression tripwire for the eval-cache miss storm: at the
        # full benchmark configuration neutral drift must revisit at
        # least one phenotype (deterministic for a fixed seed).
        print("FAIL: evolve run produced zero phenotype-cache hits")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
