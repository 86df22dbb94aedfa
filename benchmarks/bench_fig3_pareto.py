"""Fig. 3 — power vs WMED trade-offs of evolved vs conventional multipliers.

For each of the three panels (WMED under D1, D2, Du) the benchmark prints
every multiplier's (WMED %, power mW) pair: the three proposed sweeps
(evolved under D1 / D2 / Du, cross-evaluated under the panel's metric)
against the truncated and broken-array baselines.

Shape to verify against the paper: in the D1 panel the D1-evolved series
dominates (lowest power at equal WMED); same for D2; in the Du panel the
Du-evolved series wins; the baselines trail everywhere.
"""

import numpy as np
import pytest

from repro.analysis import characterize_multiplier, format_table, pareto_points
from repro.baselines import (
    build_broken_array_multiplier,
    build_truncated_multiplier,
)
from repro.core import multiplier_objective, netlist_to_chromosome
from repro.errors import paper_d1, paper_d2, uniform


@pytest.fixture(scope="module")
def baseline_points():
    d1, d2 = paper_d1(8), paper_d2(8)
    du = uniform(8, name="Du")
    dists = [d1, d2, du]
    points = []
    for k in range(0, 9, 2):
        net = build_truncated_multiplier(8, k, signed=False)
        points.append(
            characterize_multiplier(net, 8, dists, source="truncated")
        )
    for vbl in (4, 6, 8, 10):
        net = build_broken_array_multiplier(8, vbl, vbl // 4, signed=False)
        points.append(
            characterize_multiplier(net, 8, dists, source="broken-array")
        )
    return points


def _panel_text(panel: str, fronts, baseline_points) -> str:
    rows = []
    series = {}
    for source_points in list(fronts.values()) + [baseline_points]:
        for p in source_points:
            series.setdefault(p.source, []).append(
                (p.wmed_percent(panel), p.power_mw)
            )
    for source, pts in series.items():
        for wm, power in sorted(pts):
            rows.append([source, wm, power])
    return format_table(
        ["series", f"WMED_{panel} %", "power mW"],
        rows,
        title=f"Fig. 3 panel WMED_{panel}",
    )


def test_fig3_pareto_fronts(cs1_fronts, baseline_points, report, benchmark):
    # Benchmark the front-assembly kernel (the cheap part; the sweeps
    # themselves ran once in the session fixture).
    all_pts = [
        (p.wmed_percent("Du"), p.power_mw)
        for pts in cs1_fronts.values()
        for p in pts
    ]
    benchmark(pareto_points, all_pts)

    text = []
    for panel in ("D1", "D2", "Du"):
        text.append(_panel_text(panel, cs1_fronts, baseline_points))

    # Shape assertions: within each panel, the series evolved *for* that
    # panel's distribution must contribute to the combined Pareto front
    # at least as strongly as any other series.
    verdict_rows = []
    for panel in ("D1", "D2", "Du"):
        own = [
            (p.wmed_percent(panel), p.power_mw) for p in cs1_fronts[panel]
        ]
        others = [
            (p.wmed_percent(panel), p.power_mw)
            for name, pts in cs1_fronts.items()
            if name != panel
            for p in pts
        ] + [(p.wmed_percent(panel), p.power_mw) for p in baseline_points]
        combined_front = pareto_points(own + others)
        own_on_front = sum(1 for p in own if p in combined_front)
        verdict_rows.append([panel, own_on_front, len(combined_front)])
    text.append(
        format_table(
            ["panel", "own-series points on combined front", "front size"],
            verdict_rows,
            title="Dominance check (the panel's own series should place "
            "points on the front)",
        )
    )
    report("fig3", "\n\n".join(text))

    for panel, own_on_front, _ in verdict_rows:
        assert own_on_front >= 1, f"no {panel}-evolved point on {panel} front"


def test_fig3_wmed_evaluation_kernel(benchmark, cs1_fronts):
    """Benchmark the inner-loop cost: one exhaustive WMED evaluation."""
    from repro.circuits.generators import build_array_multiplier

    evaluator = multiplier_objective(8, paper_d2(8))
    chromosome = netlist_to_chromosome(build_array_multiplier(8))
    result = benchmark(evaluator.evaluate, chromosome, 0.01)
    assert result.wmed == 0.0
