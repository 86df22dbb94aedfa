"""Quickstart: evolve a data-distribution-driven approximate multiplier.

Runs in under a minute: a 4-bit signed multiplier is approximated under
a half-normal operand distribution (small |x| values dominate, like NN
weights), then compared against the same search driven by the uniform
distribution.

Everything goes through the objective layer: the sweep builds a
:class:`repro.core.objective.CircuitObjective` per run from
``component=`` + ``metric=``, and candidate evaluation runs on the
compiled engine by default.

Usage::

    python examples/quickstart.py

Next steps once this runs: persist a whole grid of such designs with
``python -m repro.cli library build`` and serve them over HTTP with
``python -m repro.cli serve`` (see docs/serving.md).
"""

import numpy as np

from repro.analysis import evolve_front, format_table
from repro.core import EvolutionConfig
from repro.core.components import COMPONENTS
from repro.errors import discretized_half_normal, uniform

WIDTH = 4
TARGETS_PERCENT = [0.5, 2.0, 8.0]
GENERATIONS = 1500


def main() -> None:
    # The component registry owns the exact seed circuit; the same
    # call with "adder" or "mac" runs the identical flow for those
    # blocks (CLI: repro evolve --component adder --metric med ...).
    component = COMPONENTS["multiplier"]
    seed = component.build_seed(WIDTH, signed=True)
    d_data = discretized_half_normal(WIDTH, sigma=2.5, signed=True, name="Ddata")
    d_uniform = uniform(WIDTH, signed=True)

    print(f"Seed: exact {WIDTH}-bit signed multiplier, {len(seed.gates)} gates")
    rows = []
    for dist in (d_data, d_uniform):
        points = evolve_front(
            seed,
            WIDTH,
            design_dist=dist,
            thresholds_percent=TARGETS_PERCENT,
            eval_dists=[d_data, d_uniform],
            component="multiplier",
            metric="wmed",
            config=EvolutionConfig(generations=GENERATIONS),
            rng=np.random.default_rng(2019),
        )
        for point in points:
            rows.append(
                [
                    point.source,
                    point.threshold_percent,
                    point.wmed_percent("Ddata"),
                    point.wmed_percent("Du"),
                    point.area,
                    point.power_mw,
                ]
            )

    print(
        format_table(
            [
                "evolved for",
                "target %",
                "WMED_Ddata %",
                "WMED_Du %",
                "area um2",
                "power mW",
            ],
            rows,
            title="\nEvolved approximate multipliers (lower area at equal "
            "target = better)",
        )
    )
    print(
        "\nReading the table: multipliers evolved for Ddata exploit the "
        "distribution\n(low WMED_Ddata, possibly high WMED_Du) and reach "
        "smaller area than the\nuniform-driven ones at the same target."
    )


if __name__ == "__main__":
    main()
