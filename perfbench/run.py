"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload evolve-mul8-d2 --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures
the workload twice with the same seed, first untraced and then with
spans around every layer, and prints the per-layer metrics plus the
tracing overhead (``trace.overhead_pct``: how much lower the traced
throughput is than the untraced one).

Standard output ends with a record line (``{"record": ...}``: host and
configuration fingerprint, per-run details) followed by the result
line ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 2, with no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("evolve-mul8-d2", "build-small", "serve-mixed")


def workload_module(name: str):
    if name == "evolve-mul8-d2":
        from perfbench import evolve_mul8 as module
    elif name == "build-small":
        from perfbench import build_small as module
    else:
        from perfbench import serve_mixed as module
    return module


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, corrupt: bool = False) -> dict:
    """Run one workload; return the result object and the full record."""
    from perfbench import tracing

    module = workload_module(workload)
    # The engine compiles its kernel once per host, on first use; that
    # one-off build is not part of any run's set-up.
    from repro.engine.native import native_lib

    native_lib()
    steal_before = common.steal_seconds()
    plain = module.run(seed, seconds, tiny=tiny, corrupt=corrupt)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": common.fingerprint(),
        "host_steal_s": common.steal_seconds() - steal_before,
        "untraced": {"values": plain.values, "details": plain.details,
                     "failures": plain.failures},
    }
    if not trace:
        return {"result": plain.result(common.END_TO_END), "record": record}

    trace_dir = common.run_dir(f"trace-{workload}")
    tracer = tracing.Tracer(trace_dir)
    try:
        # Spans cover the measured window only, not set-up or checks.
        traced = module.run(seed, seconds, tiny=tiny, corrupt=corrupt,
                            begin=lambda: tracing.install(tracer),
                            end=tracer.unwrap_all)
    finally:
        tracer.unwrap_all()
    tracer.collect()
    spans_path = os.path.join(common.STATE, "traces",
                              f"{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    common.remove_dir(trace_dir)

    layers = {name: 0.0 for name in common.PER_LAYER}
    layers.update(tracing.layer_metrics(tracer))
    layers.update(traced.layers)
    layers["trace.overhead_pct"] = 100.0 * (
        1.0 - traced.values["throughput_per_s"]
        / plain.values["throughput_per_s"]
    )
    combined = common.Outcome()
    combined.values = layers
    combined.attempted = plain.attempted + traced.attempted
    combined.failed = plain.failed + traced.failed
    record["traced"] = {"values": traced.values, "layers": layers,
                        "details": traced.details,
                        "failures": traced.failures,
                        "spans_file": os.path.relpath(spans_path,
                                                      common.ROOT)}
    return {"result": combined.result(common.PER_LAYER), "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.checkout_ok():
        print(f"perfbench: no program sources under {common.SRC}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    common.prepare_environment()
    outcome = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    common.write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        outcome["record"],
    )
    print(json.dumps({"record": outcome["record"]}, sort_keys=True,
                     default=str))
    print(json.dumps(outcome["result"], sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
