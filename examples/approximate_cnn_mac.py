"""Case Study 2 (scaled): approximate MAC units for a neural classifier.

The full paper flow on the MLP/MNIST-like task:

1. train the 784-300-10 MLP on synthetic digits,
2. quantize it to 8-bit fixed point (Ristretto-style calibration),
3. measure the distribution of quantized weights across all layers,
4. evolve an 8-bit signed multiplier with WMED driven by that
   distribution,
5. run the network with the approximate multiplier (LUT-backed MACs),
6. fine-tune the network around the approximation and re-measure.

Usage::

    python examples/approximate_cnn_mac.py
"""

import numpy as np

from repro.analysis import format_pmf_sparkline, format_table
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.core import (
    EvolutionConfig,
    evolve,
    multiplier_objective,
    netlist_to_chromosome,
    params_for_netlist,
)
from repro.errors import table_as_matrix
from repro.nn import (
    QuantizedModel,
    build_mlp,
    finetune,
    mnist_like,
    train,
    weight_distribution,
)
from repro.tech import characterize

WIDTH = 8
WMED_TARGET_PERCENT = 2.0
GENERATIONS = 4000
TRAIN, TEST = 6000, 1500


def main() -> None:
    rng = np.random.default_rng(3)
    x, y = mnist_like(TRAIN + TEST, rng)
    x = x.reshape(len(x), -1)
    train_x, train_y = x[:TRAIN], y[:TRAIN]
    test_x, test_y = x[TRAIN:], y[TRAIN:]

    print("training the MLP ...")
    network = build_mlp(rng=np.random.default_rng(0))
    train(network, train_x, train_y, epochs=8, lr=0.1, lr_decay=0.9, rng=rng)

    model = QuantizedModel(network, train_x[:256])
    dist = weight_distribution(model.quants, name="mlp-weights")
    print("\nquantized weight distribution across all layers (Fig. 6 top):")
    print("  " + format_pmf_sparkline(np.roll(dist.pmf, 128), bins=64))
    print("  (axis: -128 ... 0 ... +127; note the zero-centered peak)")

    print(f"\nevolving an approximate multiplier at WMED <= "
          f"{WMED_TARGET_PERCENT}% under that distribution ...")
    seed = build_baugh_wooley_multiplier(WIDTH)
    chromosome = netlist_to_chromosome(
        seed, params_for_netlist(seed, extra_columns=20)
    )
    evaluator = multiplier_objective(WIDTH, dist)
    result = evolve(
        chromosome,
        evaluator,
        threshold=WMED_TARGET_PERCENT / 100.0,
        config=EvolutionConfig(generations=GENERATIONS),
        rng=np.random.default_rng(11),
    )
    approx = result.best.to_netlist(name="evolved-mac-core")
    lut = table_as_matrix(evaluator.truth_table(result.best), WIDTH)

    exact_summary = characterize(seed)
    approx_summary = characterize(approx)

    acc_exact = model.accuracy(test_x, test_y)
    acc_before = model.accuracy(test_x, test_y, lut=lut)
    print("fine-tuning around the approximate multiplier ...")
    finetune(model, train_x, train_y, lut=lut, steps=150, lr=0.02,
             rng=np.random.default_rng(5))
    acc_after = model.accuracy(test_x, test_y, lut=lut)

    def rel(a, b):
        return 100.0 * (a / b - 1.0)

    rows = [
        ["accuracy (exact int8)", f"{100 * acc_exact:.2f} %", ""],
        ["accuracy (approx, initial)", f"{100 * acc_before:.2f} %",
         f"{100 * (acc_before - acc_exact):+.2f} %"],
        ["accuracy (approx, fine-tuned)", f"{100 * acc_after:.2f} %",
         f"{100 * (acc_after - acc_exact):+.2f} %"],
        ["multiplier power", f"{approx_summary.power.total / 1000:.3f} mW",
         f"{rel(approx_summary.power.total, exact_summary.power.total):+.1f} %"],
        ["multiplier area", f"{approx_summary.area:.0f} um2",
         f"{rel(approx_summary.area, exact_summary.area):+.1f} %"],
        ["multiplier PDP", f"{approx_summary.pdp:.1f} fJ",
         f"{rel(approx_summary.pdp, exact_summary.pdp):+.1f} %"],
    ]
    print(
        format_table(
            ["figure", "value", "vs exact"],
            rows,
            title="\nTable I flow at one WMED level",
        )
    )


if __name__ == "__main__":
    main()
