"""Self-test of the benchmark at a tiny size (a few seconds per workload).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run print,
with the units BENCHMARK.json gives, exactly the end-to-end and the
per-layer metrics BENCHMARK.json names, that a clean run counts no
failure, and that the recorded fingerprint shows no ``REPRO_*``
variable added or changed by the benchmark.  It then corrupts one
result per workload (a wrong area on an evolved design, a tampered
store row, a tampered served body) and checks that the corruption is
counted as a failed operation.  It also
checks that ``run.py`` refuses to run, without a result, in a directory
that holds only the benchmark.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, run  # noqa: E402


def _expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def _spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    _expect(sorted(names) == sorted(run.WORKLOADS),
            f"BENCHMARK.json workloads {names} != {list(run.WORKLOADS)}")
    return spec


def _check_printed(result: dict, metrics: list, label: str) -> None:
    # The result must survive the exact serialization run.py prints.
    printed = json.loads(json.dumps(result, sort_keys=True))
    _expect(set(printed) == {"correct", "attempted", "failed", "metrics"},
            f"{label}: result keys {sorted(printed)}")
    wanted = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in printed["metrics"].items()}
    _expect(got == wanted, f"{label}: printed metrics/units {got} != "
            f"BENCHMARK.json {wanted}")
    for name, entry in printed["metrics"].items():
        _expect(isinstance(entry["value"], float),
                f"{label}: {name} value {entry['value']!r} is not a number")


def _bare_directory_refuses() -> None:
    with tempfile.TemporaryDirectory(dir=common.STATE) as bare:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(common.PKG, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    _expect(proc.returncode != 0 and not proc.stdout.strip(),
            f"run.py in a bare directory exited {proc.returncode} with "
            f"output {proc.stdout[-200:]!r}")


def main() -> int:
    _expect(common.checkout_ok(), "program sources missing")
    common.prepare_environment()
    spec = _spec()
    _expect(
        [m["name"] for m in spec["end_to_end"]] == list(common.END_TO_END),
        "end_to_end names differ from common.END_TO_END",
    )
    _expect(
        [m["name"] for m in spec["per_layer"]] == list(common.PER_LAYER),
        "per_layer names differ from common.PER_LAYER",
    )
    for workload in run.WORKLOADS:
        for trace, metrics in ((False, spec["end_to_end"]),
                               (True, spec["per_layer"])):
            label = f"{workload} trace={int(trace)}"
            out = run.measure(workload, 3, 1.0, trace, tiny=True)
            result = out["result"]
            _check_printed(result, metrics, label)
            _expect(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1,
                    f"{label}: clean run reported {result['failed']} "
                    f"failures of {result['attempted']}: "
                    f"{out['record']['untraced']['failures']}")
            changed = out["record"]["fingerprint"][
                "repro_env_set_by_benchmark"]
            _expect(changed == [],
                    f"{label}: the benchmark set REPRO_* variables {changed}")
            print(f"selftest: ok {label}: {result['attempted']} attempted")
        out = run.measure(workload, 3, 1.0, False, tiny=True, corrupt=True)
        result = out["result"]
        _expect(not result["correct"] and result["failed"] >= 1,
                f"{workload}: corrupted result was not counted as failed")
        print(f"selftest: ok {workload} corrupted: {result['failed']} failed")
    _bare_directory_refuses()
    print("selftest: ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
