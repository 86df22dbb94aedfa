"""Tests for the engine's batched evaluation ABI (PR 6).

The batch path is the engine's only evaluation path (``evaluate`` is a
batch of one), and its contract is the engine's overall: a candidate's
result is *bit identical* whatever batch it is evaluated in — same
compiled programs, same integer kernels, same reductions — whatever
the component, metric, backend, or brood composition (duplicates,
cache hits).  On top of that sit the batch-specific behaviors:
within-batch phenotype dedupe, the eval-cache lookup that prevents
recompiled cache-miss storms, the single-owner arena guard, the
interpreted fallback for params the engine cannot run and for
mixed-params lists, the native exact-integer reduction fast path, and
the fused D-weighted WMED path's early exit for offspring that provably
miss the target.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.components import component_objective, component_names, get_component
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.mutation import mutate
from repro.core.seeding import (
    netlist_to_chromosome,
    params_for_netlist,
    random_chromosome,
)
from repro.core.objective import CircuitObjective
from repro.engine import CompiledObjective, native_available
from repro.engine.evaluator import _EngineEvalMixin, _Runtime
from repro.errors.distributions import (
    discretized_half_normal,
    paper_d2,
    uniform,
)

BACKENDS = ["numpy"] + (["native"] if native_available() else [])
METRICS = ("wmed", "med", "mred", "error-rate", "worst-case")


def _seed_chromosome(component: str, width: int, extra: int = 8):
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(False))
    return netlist_to_chromosome(
        net, params_for_netlist(net, extra_columns=extra)
    )


def _objective(component, width, metric, backend, **kw):
    return CompiledObjective(
        component_objective(component, width, uniform(width), metric=metric),
        backend=backend,
        **kw,
    )


def _brood(component, width, n, seed=11):
    rng = np.random.default_rng(seed)
    c = _seed_chromosome(component, width)
    brood = []
    for _ in range(n):
        c, _ = mutate(c, 6, rng)
        brood.append(c)
    return brood


# ----------------------------------------------------------------------
# Bit-identity: batch vs sequential, across the whole catalog
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("component", component_names())
def test_batch_bit_identical_to_sequential(component, metric, backend):
    width = 3 if component == "mac" else 4
    brood = _brood(component, width, 8)
    brood.append(brood[0])  # in-batch duplicate phenotype
    batch_obj = _objective(component, width, metric, backend)
    seq_obj = _objective(component, width, metric, backend)
    batched = batch_obj.evaluate_batch(brood, 0.05)
    sequential = [seq_obj.evaluate(c, 0.05) for c in brood]
    assert batched == sequential
    # Second pass is fully cache-served and still identical.
    assert batch_obj.evaluate_batch(brood, 0.05) == sequential
    assert batch_obj.cache.stats()["hits"] >= len(brood)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_identical_across_backends(backend):
    # Cross-backend spot check on the paper's main configuration.
    brood = _brood("multiplier", 4, 6, seed=3)
    ref = _objective("multiplier", 4, "wmed", "numpy")
    obj = _objective("multiplier", 4, "wmed", backend)
    assert obj.evaluate_batch(brood, 0.01) == ref.evaluate_batch(brood, 0.01)


def test_empty_and_singleton_batches():
    obj = _objective("adder", 4, "wmed", "auto")
    assert obj.evaluate_batch([], 0.01) == []
    ch = _seed_chromosome("adder", 4)
    assert obj.evaluate_batch([ch], 0.01) == [obj.evaluate(ch, 0.01)]


# ----------------------------------------------------------------------
# Within-batch dedupe + cache lookup (the miss-storm fix)
# ----------------------------------------------------------------------
def test_batch_dedupes_identical_phenotypes():
    obj = _objective("multiplier", 4, "wmed", "auto")
    ch = _seed_chromosome("multiplier", 4)
    brood = [ch, ch.copy(), ch.copy(), ch.copy()]
    results = obj.evaluate_batch(brood, 0.01)
    assert len(set(results)) == 1
    st = obj.stats()["batch"]
    # One phenotype executed; the other three were deduped in-batch.
    assert st["evals"] == 1
    assert st["dedup"] == 3


def test_batch_serves_cache_before_dispatch():
    obj = _objective("multiplier", 4, "wmed", "auto")
    brood = _brood("multiplier", 4, 5)
    obj.evaluate_batch(brood, 0.01)
    evals_before = obj.stats()["batch"]["evals"]
    obj.evaluate_batch(brood, 0.01)  # all phenotypes already cached
    st = obj.stats()
    assert st["batch"]["evals"] == evals_before
    assert st["cache"]["hits"] >= len(brood)


def test_seeded_evolve_run_has_cache_hits():
    # Regression for the eval-cache miss storm: a short seeded run must
    # produce a nonzero hit rate (neutral drift revisits phenotypes).
    eng = _objective("multiplier", 3, "wmed", "auto")
    seed = _seed_chromosome("multiplier", 3)
    evolve(
        seed, eng, 0.01, EvolutionConfig(generations=400),
        rng=np.random.default_rng(2024),
    )
    stats = eng.stats()["cache"]
    assert stats["hits"] > 0


# ----------------------------------------------------------------------
# Single-owner guard
# ----------------------------------------------------------------------
def test_arena_rejects_cross_thread_use():
    obj = _objective("adder", 4, "wmed", "auto")
    ch = _seed_chromosome("adder", 4)
    obj.evaluate(ch, 0.01)  # builds the runtime on this thread
    caught = []

    def use_from_other_thread():
        try:
            obj.evaluate_batch([ch], 0.01)
        except RuntimeError as exc:
            caught.append(exc)

    t = threading.Thread(target=use_from_other_thread)
    t.start()
    t.join()
    assert len(caught) == 1 and "single-owner" in str(caught[0])
    # The owning thread keeps working.
    assert obj.evaluate(ch, 0.01) == obj.evaluate(ch, 0.01)


# ----------------------------------------------------------------------
# Fallbacks: runtime-less params and mixed-params lists
# ----------------------------------------------------------------------
def test_fallbacks_match_interpreted_without_recursion(monkeypatch, rng):
    # A reference beyond the int32 decode range leaves the engine no
    # runtime; a mixed-params list is split into per-params batches.
    adder = component_objective("adder", 4, uniform(4))
    wide = CircuitObjective(8, adder.reference + (1 << 40))
    small = _seed_chromosome("adder", 4, extra=8)
    large = _seed_chromosome("adder", 4, extra=12)
    mixed = []
    for k in range(6):
        c, _ = mutate(small if k % 2 else large, 4, rng)
        mixed.append(c)
    mixed.append(mixed[1])  # in-group duplicate
    cases = []
    for base in (wide, adder):
        eng = CompiledObjective(base)
        cases.append((eng, base, [eng.evaluate(c, 0.05) for c in mixed]))
    assert cases[0][0]._runtime(small.params) is None
    assert cases[1][0]._runtime(small.params) is not None

    def no_reentry(self, chromosome, threshold):
        raise AssertionError("evaluate_batch re-entered evaluate()")

    monkeypatch.setattr(_EngineEvalMixin, "evaluate", no_reentry)
    for eng, base, singles in cases:
        want = [base.evaluate(c, 0.05) for c in mixed]
        assert singles == want
        assert eng.evaluate_batch(mixed, 0.05) == want
        assert eng.evaluate_batch(mixed[:1], 0.05) == want[:1]


# ----------------------------------------------------------------------
# Exact-integer reduction fast path
# ----------------------------------------------------------------------
def test_fast_reduce_eligibility():
    # Uniform weights are one power of two: wmed/med/error-rate/worst-case
    # reduce exactly; mred never does; non-pow2 weights disable the
    # weight-dependent metrics but not med/worst-case.
    for metric, kind in (("wmed", "wmed"), ("med", "med"),
                         ("error-rate", "error-rate"),
                         ("worst-case", "worst-case"), ("mred", None)):
        obj = _objective("multiplier", 4, metric, "auto")
        assert obj.stats()["fast_reduce"] == kind
    skewed = discretized_half_normal(4, sigma=4.0, name="Dh")
    for metric, kind in (("wmed", None), ("error-rate", None),
                         ("med", "med"), ("worst-case", "worst-case")):
        obj = CompiledObjective(
            component_objective("multiplier", 4, skewed, metric=metric)
        )
        assert obj.stats()["fast_reduce"] == kind


@pytest.mark.skipif(not native_available(), reason="native backend required")
def test_reduce_stats_match_materialized_distances():
    # The C integer triple must equal what the float64 distance row
    # implies — exactly, not approximately.
    obj = _objective("multiplier", 4, "wmed", "native", cache_entries=0)
    rt = obj._runtime(_seed_chromosome("multiplier", 4).params)
    rt.ensure_batch(1)
    for ch in _brood("multiplier", 4, 12, seed=21):
        rt.compile_into_lane(ch.genes, 0)
        s, nz, mx = rt.execute_lane_stats(0, obj.signed)
        err = rt.execute_lane(0, obj.signed).copy()
        assert s == int(err.sum())
        assert nz == int(np.count_nonzero(err))
        assert mx == int(err.max())
        # And the fast formula reproduces the reference metric exactly.
        assert obj._reduce_error(s, nz, mx) == obj.metric.from_distances(
            err, obj.weights, obj.normalizer, obj.reference
        )


# ----------------------------------------------------------------------
# Fused D-weighted WMED: early exit
# ----------------------------------------------------------------------
def _d2_brood(width, n, seed, h=12):
    rng = np.random.default_rng(seed)
    c = _seed_chromosome("multiplier", width)
    brood = []
    for _ in range(n):
        child, _ = mutate(c, h, rng)
        brood.append(child)
        c = child if rng.random() < 0.5 else c
    return brood


def _spy_exit_flags(monkeypatch) -> list:
    """Record the per-lane exit flags of every fused dispatch."""
    calls = []
    run = _Runtime.execute_wmed

    def spy(self, n_lanes, signed, norm, thr):
        sums, exited = run(self, n_lanes, signed, norm, thr)
        calls.append(exited)
        return sums, exited

    monkeypatch.setattr(_Runtime, "execute_wmed", spy)
    return calls


@pytest.mark.skipif(not native_available(), reason="native backend required")
@pytest.mark.parametrize("threshold", [0.001, 0.01, 0.05])
def test_early_exit_is_sound(threshold, monkeypatch):
    flags = _spy_exit_flags(monkeypatch)
    objective = component_objective("multiplier", 8, paper_d2(8))
    brood = _d2_brood(8, 24, seed=int(threshold * 1e4))
    exact = [objective.evaluate(c, threshold) for c in brood]
    eng = CompiledObjective(objective, backend="native")
    results = eng.evaluate_batch(brood, threshold, early_exit=True)
    assert eng.stats()["batch"]["dedup"] == 0  # lane k is candidate k
    (exited,) = flags
    assert sum(exited) == eng.stats()["batch"]["early_exit"] > 0
    for got, want, out in zip(results, exact, exited):
        if out:
            assert want.wmed > threshold
            assert got.fitness == float("inf")
            assert got.wmed <= want.wmed
        else:
            assert got == want
    # Exited phenotypes were not cached: re-evaluating them is exact.
    assert eng.cache.stats()["entries"] == len(brood) - sum(exited)
    assert [eng.evaluate(c, threshold) for c in brood] == exact


@pytest.mark.skipif(not native_available(), reason="native backend required")
def test_early_exit_off_is_exact():
    objective = component_objective("multiplier", 8, paper_d2(8))
    brood = _d2_brood(8, 12, seed=4)
    eng = CompiledObjective(objective, backend="native")
    results = eng.evaluate_batch(brood, 0.001)
    assert results == [objective.evaluate(c, 0.001) for c in brood]
    assert eng.stats()["batch"]["early_exit"] == 0


@pytest.mark.skipif(not native_available(), reason="native backend required")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d2_evolve_with_early_exit_equals_numpy(seed):
    dist = paper_d2(8)
    runs = {}
    for backend in ("native", "numpy"):
        eng = CompiledObjective(
            component_objective("multiplier", 8, dist), backend=backend
        )
        result = evolve(
            _seed_chromosome("multiplier", 8, extra=4), eng, 0.01,
            EvolutionConfig(generations=60, history_every=10),
            rng=np.random.default_rng(seed),
        )
        runs[backend] = (result, eng)
    (nat, nat_eng), (ref, _) = runs["native"], runs["numpy"]
    assert nat_eng.stats()["batch"]["early_exit"] > 0
    assert np.array_equal(nat.best.genes, ref.best.genes)
    assert nat.best_eval == ref.best_eval
    assert nat.evaluations == ref.evaluations
    assert nat.history == ref.history


def test_early_exit_requested_only_under_a_feasible_parent(monkeypatch):
    requested = []
    batch = _EngineEvalMixin.evaluate_batch

    def spy(self, chromosomes, threshold, early_exit=False):
        requested.append(early_exit)
        return batch(self, chromosomes, threshold, early_exit=early_exit)

    monkeypatch.setattr(_EngineEvalMixin, "evaluate_batch", spy)
    objective = CompiledObjective(
        component_objective("multiplier", 4, paper_d2(4))
    )
    # A random genome is far from exact; at threshold 0 it stays
    # infeasible, so every brood must be evaluated exactly.
    params = _seed_chromosome("multiplier", 4).params
    seed = random_chromosome(params, np.random.default_rng(0))
    result = evolve(seed, objective, 0.0, EvolutionConfig(generations=40),
                    rng=np.random.default_rng(1))
    assert not result.feasible
    assert requested and not any(requested)
    # And a feasible parent does ask for it.  The first call is the
    # seed's own evaluate(), a batch of one that never asks: the
    # parent's feasibility is not known yet.
    requested.clear()
    evolve(_seed_chromosome("multiplier", 4), objective, 0.01,
           EvolutionConfig(generations=10), rng=np.random.default_rng(1))
    assert requested[0] is False
    assert requested[1:] and all(requested[1:])
