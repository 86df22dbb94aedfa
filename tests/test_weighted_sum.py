"""The fixed-order weighted sum behind D-weighted WMED.

``weighted_sum`` is the one definition of the WMED numerator: 16 lane
sums in vector order, then a fixed pairwise tree.  The native engine
computes the same operations inside its tile loop, so D-weighted WMED
must come out bit-identical on every evaluation path — and, unlike a
BLAS ``ddot``, independent of the host's BLAS thread count.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.sweep import make_objective
from repro.core.components import COMPONENTS, get_component
from repro.core.mutation import mutate
from repro.core.seeding import netlist_to_chromosome, params_for_netlist
from repro.engine import CompiledObjective, native_available
from repro.engine import evaluator as engine_evaluator
from repro.engine import native
from repro.errors.distributions import Distribution, paper_d1, paper_d2
from repro.errors.metrics import (
    evaluate_errors,
    get_metric,
    weighted_sum,
    wmed,
)
from repro.errors.truth_tables import exact_product_table

NATIVE = pytest.mark.skipif(
    not native_available(), reason="native backend required"
)
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _sequential_lanes(weights, distances) -> float:
    """Pure-Python reference: lane v % 16, then the pairwise tree."""
    lanes = [0.0] * 16
    for v, (w, d) in enumerate(zip(weights.tolist(), distances.tolist())):
        lanes[v % 16] += w * d
    for step in (1, 2, 4, 8):
        for j in range(0, 16, 2 * step):
            lanes[j] += lanes[j + step]
    return lanes[0]


_finite = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=_finite),
        arrays(np.float64, n, elements=_finite),
    )
))
def test_weighted_sum_matches_sequential_lane_reference(pair):
    weights, distances = pair
    assert weighted_sum(weights, distances) == _sequential_lanes(
        weights, distances
    )


def test_weighted_sum_is_exact_for_uniform_power_of_two_weights():
    # The exact-integer fold relies on this: w0 * sum(d), no rounding.
    rng = np.random.default_rng(4)
    d = rng.integers(0, 1 << 20, size=4096).astype(np.float64)
    w = np.full(4096, 1.0 / 4096)
    assert weighted_sum(w, d) == float(d.sum()) / 4096


def test_wmed_metric_uses_weighted_sum():
    rng = np.random.default_rng(8)
    w = rng.random(1000)
    d = rng.integers(0, 50, 1000).astype(np.float64)
    wmed = get_metric("wmed").from_distances(d, w, 7.0, d)
    assert wmed == weighted_sum(w, d) / 7.0


# ----------------------------------------------------------------------
# Native fused WMED == interpreted objective, bit for bit
# ----------------------------------------------------------------------
def _brood(component: str, width: int, signed: bool, n: int, seed: int):
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(signed))
    c = netlist_to_chromosome(
        net, params_for_netlist(net, extra_columns=6)
    )
    rng = np.random.default_rng(seed)
    brood = [c]
    for _ in range(n - 1):
        c, _ = mutate(c, 8, rng)
        brood.append(c)
    return brood


def _assert_fused_matches_interpreted(objective, engine, brood):
    assert engine._fused_wmed
    expected = [objective.error(c) for c in brood]
    assert [r.wmed for r in engine.evaluate_batch(brood, 0.01)] == expected
    assert [engine.evaluate(c, 0.01).wmed for c in brood] == expected


def _widths(component: str):
    return range(2, min(8, COMPONENTS[component].max_width) + 1)


@NATIVE
@pytest.mark.parametrize("component", sorted(COMPONENTS))
def test_native_fused_wmed_equals_interpreted(component):
    for width in _widths(component):
        for dist in (paper_d1(width), paper_d2(width)):
            objective = make_objective(
                width, dist, engine="off", component=component
            )
            engine = CompiledObjective(
                objective, backend="native", cache_entries=0
            )
            _assert_fused_matches_interpreted(
                objective, engine, _brood(component, width, False, 4, width)
            )


@NATIVE
@pytest.mark.parametrize("width", range(2, 9))
def test_native_fused_wmed_signed_operands(width):
    # The paper's D1/D2 are unsigned; a random pmf covers signed decode.
    rng = np.random.default_rng(width)
    dist = Distribution(width, True, rng.random(1 << width), name="rand")
    objective = make_objective(width, dist, engine="off")
    assert objective.signed
    engine = CompiledObjective(objective, backend="native", cache_entries=0)
    _assert_fused_matches_interpreted(
        objective, engine, _brood("multiplier", width, True, 4, width)
    )


@pytest.mark.parametrize("make_dist", [paper_d1, paper_d2])
def test_standalone_wmed_equals_objective_error(make_dist):
    # metrics.wmed() and the ErrorReport a stored design carries sum in
    # the same fixed order as the search objective.
    dist = make_dist(8)
    objective = make_objective(8, dist, engine="off")
    exact = exact_product_table(8, False)
    for c in _brood("multiplier", 8, False, 6, 2):
        table = objective.truth_table(c)
        assert wmed(exact, table, dist) == objective.error(c)
        assert evaluate_errors(exact, table, dist).wmed == objective.error(c)


@pytest.mark.skipif(
    native._find_compiler() is None, reason="no C compiler"
)
def test_portable_build_matches_interpreted(tmp_path, monkeypatch):
    # No -march: the non-AVX2 loops, as a generic x86-64 or non-x86
    # host would build them, must give the same bits.
    src = tmp_path / "engine.c"
    so = tmp_path / "engine.so"
    src.write_text(native.C_SOURCE)
    subprocess.run(
        [native._find_compiler(), "-O3", "-ffp-contract=off", "-shared",
         "-fPIC", "-o", str(so), str(src)],
        check=True, capture_output=True,
    )
    lib = native.NativeLib(str(so))
    monkeypatch.setattr(engine_evaluator, "native_lib", lambda: lib)
    for width in (5, 8):
        dist = paper_d2(width)
        objective = make_objective(width, dist, engine="off")
        engine = CompiledObjective(
            objective, backend="native", cache_entries=0
        )
        assert engine._native is lib
        brood = _brood("multiplier", width, False, 6, 1)
        _assert_fused_matches_interpreted(objective, engine, brood)
        exact = [objective.evaluate(c, 0.002) for c in brood]
        exiting = engine.evaluate_batch(brood, 0.002, early_exit=True)
        for got, want in zip(exiting, exact):
            assert got == want or (
                got.fitness == want.fitness == float("inf")
                and got.wmed <= want.wmed
            )


_BLAS_SCRIPT = """
import numpy as np
from repro.analysis.sweep import make_objective
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.seeding import netlist_to_chromosome, params_for_netlist
from repro.circuits.generators import build_array_multiplier
from repro.errors.distributions import paper_d2

net = build_array_multiplier(8)
seed = netlist_to_chromosome(net, params_for_netlist(net, extra_columns=4))
for engine in ("auto", "off"):
    result = evolve(
        seed, make_objective(8, paper_d2(8), engine=engine), 0.01,
        EvolutionConfig(generations=12, history_every=1),
        np.random.default_rng(3),
    )
    print(engine, *[w.hex() for _, w, _ in result.history])
"""


def test_d2_evolve_independent_of_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    auto, off = outputs[0].splitlines()
    assert auto.split()[1:] == off.split()[1:]  # engine == interpreted
    assert any(float.fromhex(w) > 0 for w in off.split()[1:])
