"""Fast self-test of the benchmark: every workload at a tiny size, traced.

For each workload it computes tiny-size references with the serial engines,
runs ``perfbench/run.py --size tiny`` with ``--trace 0`` and ``--trace 1``,
and asserts that

* the run passes its output checks and its trace-integrity checks;
* the ``--trace 0`` result line holds exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` and the ``--trace 1`` line exactly its ``per_layer``
  metrics, each with its unit;
* every wrapper saw a call on at least one workload.

Usage, from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.make_references import reference_cells  # noqa: E402
from perfbench.run import OUT, sample_env  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    references = os.path.join(OUT, "tiny-references.json")
    cells = {}
    for workload in WORKLOADS:
        for key, summary in reference_cells(workload, "tiny", 4, 16).items():
            cells[f"{workload}|{key}"] = summary
    with open(references, "w", encoding="utf-8") as handle:
        json.dump({"cells": cells}, handle)

    called: set[str] = set()
    wrappers: set[str] = set()
    failures = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
                 "--size", "tiny", "--references", references],
                cwd=ROOT, env=sample_env(), capture_output=True, text=True, timeout=600,
            )
            lines = run.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if run.returncode != 0 or not lines:
                failures.append(f"{label}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: checks failed\n{run.stdout}")
            expected = {metric["name"]: metric["unit"] for metric in benchmark[kind]}
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if emitted != expected:
                failures.append(f"{label}: metrics differ from BENCHMARK.json {kind}: "
                                f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
            print(f"{label}: {result['attempted']} cells, correct={result['correct']}")
        with open(os.path.join(OUT, f"{workload}-seed1-trace1.json"), encoding="utf-8") as handle:
            samples = json.load(handle)["samples"]
        for sample in samples:
            for name, calls in sample.get("calls", {}).items():
                wrappers.add(name)
                if calls["parent"] + calls["worker"]:
                    called.add(name)
    if wrappers - called:
        failures.append(f"wrappers that saw no call on any workload: {sorted(wrappers - called)}")
    for failure in failures:
        print(f"SELFTEST FAILURE: {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
