"""The repository benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-async --seed 1 --seconds 30 --trace 0

For ``--seconds`` the launcher starts one fresh sample process
(``perfbench/child.py``) after another, each doing set-up and one pass over
the workload's cells, and folds the samples into one value per metric
(see ``AGGREGATE``):

* ``--trace 0``: the end-to-end metrics ``wall_s``, ``setup_s``,
  ``trials_per_s`` and ``peak_rss_mib``; ``failed_frac`` is
  ``failed / attempted`` of the result line.
* ``--trace 1``: untraced and traced samples alternate on the same inputs;
  it prints the per-layer metrics, each wrapper's call count, the self-time
  tree and ``telemetry.trace_overhead_ratio`` (traced / untraced ``wall_s``),
  and writes the spans as Chrome Trace Event JSON.

Every cell's output is checked.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when a check
failed (the result line is still printed), and 2 with no result line when a
sample could not run at all (for instance without the program's ``src/``).
Full records go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("paper-async", "scenario-sweep", "large-n-sync")

#: End-to-end metrics and their units (a sample reports each one).
END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "trials/s", "peak_rss_mib": "MiB"}

#: How a run folds its samples into one value per end-to-end metric.  The
#: machines this runs on alternate between fast and slow phases of tens of
#: seconds, so per-sample times are bimodal and a median over one run's
#: samples flips between the modes; the mean wall time and the throughput
#: over all samples (total trials / total trial-phase time) average over
#: the phases.  Set-up and memory are medians.
AGGREGATE = {
    "wall_s": lambda records: statistics.fmean(r["wall_s"] for r in records),
    "setup_s": lambda records: statistics.median(r["setup_s"] for r in records),
    "trials_per_s": lambda records: (sum(r["trials"] for r in records)
                                     / sum(r["trial_phase_s"] for r in records)),
    "peak_rss_mib": lambda records: statistics.median(r["peak_rss_mib"] for r in records),
}

#: Every run must end within this many seconds, whatever ``--seconds`` says.
DEADLINE_S = 170.0

#: The traced run fails its integrity check below this span coverage.
MIN_SPAN_COVERAGE = 0.9

#: Environment variables that pin BLAS/OpenMP pools to one thread, so the
#: only parallelism is the sweep's pool workers.
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SampleFailed(RuntimeError):
    """A sample process exited without a record."""


def sample_env() -> dict[str, str]:
    """The sample processes' environment: pinned threads, no stray knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update({name: "1" for name in SINGLE_THREAD})
    # The traced run's wrappers reach pool workers because they are forked
    # from the sample process after the wrappers are installed.
    env["REPRO_MP_START_METHOD"] = "fork"
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def run_sample(args: argparse.Namespace, index: int, trace: int, deadline: float,
               chrome_trace: Optional[str] = None) -> dict[str, Any]:
    """Start one sample process, wait for it, and return its record."""
    command = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
               "--seed", str(args.seed), "--index", str(index), "--trace", str(trace),
               "--src", SRC, "--size", args.size]
    if args.references:
        command += ["--references", args.references]
    if chrome_trace:
        command += ["--chrome-trace", chrome_trace]
    t0 = time.monotonic()
    process = subprocess.Popen(command + ["--t0", repr(t0)], cwd=ROOT, env=sample_env(),
                               stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        # The whole session, pool workers included, goes down with it.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SampleFailed(f"sample {index} exceeded the run deadline") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SampleFailed(f"sample {index} exited with code {process.returncode}")
    return json.loads(lines[-1])


def describe(name: str, value: float, unit: str, samples: list[float]) -> str:
    return (f"{name:<40} {value:>14.6g} {unit:<9} ({len(samples)} samples: median "
            f"{statistics.median(samples):.6g}, min {min(samples):.6g}, max {max(samples):.6g})")


def report_samples(records: list[dict]) -> None:
    for record in records:
        kind = "traced" if record["traced"] else "untraced"
        print(f"sample {record['index']} ({kind}): wall {record['wall_s']:.3f} s, set-up "
              f"{record['setup_s']:.3f} s, {record['trials']} trials in "
              f"{record['trial_phase_s']:.3f} s, peak RSS {record['peak_rss_mib']:.1f} MiB, "
              f"{record['failed_cells']}/{record['cells']} cells failed")
        for key, problems in record["problems"].items():
            print(f"  FAILED {key}: {'; '.join(problems)}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes (perfbench/selftest.py)")
    parser.add_argument("--references", default=None,
                        help="references file (default: perfbench/references.json)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    chrome_trace = stem + ".chrome.json" if args.trace else None

    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        index = 0
        while index == 0 or time.monotonic() - started < args.seconds:
            untraced.append(run_sample(args, index, 0, deadline))
            if args.trace:
                traced.append(run_sample(args, index, 1, deadline, chrome_trace))
            index += 1
    except SampleFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    records = untraced + traced
    report_samples(records)
    machine = untraced[0]["machine"]
    print("machine: " + json.dumps(machine))
    print("budgets: " + json.dumps(untraced[0]["budgets"])
          + f", pool workers: {untraced[0]['workers']}")
    attempted = sum(record["cells"] for record in records)
    failed = sum(record["failed_cells"] for record in records)
    print(f"{'failed_frac':<40} {failed / attempted:>14.6g} {'ratio':<9} "
          f"({failed} of {attempted} cells)")

    integrity: list[str] = []
    metrics: dict[str, dict[str, Any]] = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            value = AGGREGATE[name](untraced)
            print(describe(name, value, unit, [record[name] for record in untraced]))
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            print(describe(f"untraced {name}", AGGREGATE[name](untraced), unit,
                           [record[name] for record in untraced]))
        last = traced[-1]
        print(f"\nself-time tree, parent-side spans ({args.workload}, sample {last['index']}):")
        print(last["tree"])
        if last["worker_table"]:
            print(last["worker_table"])
            print("provenance: " + last["provenance"])
        print("\nwrapper calls (parent / worker):")
        for name, calls in last["calls"].items():
            print(f"  {name:<46} {calls['parent']:>7d} / {calls['worker']:>7d}")
        print("\nper-layer metrics (median over traced samples):")
        for name, (_, unit) in last["layers"].items():
            values = [record["layers"][name][0] for record in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(describe(name, metrics[name]["value"], unit, values))
        ratio = AGGREGATE["wall_s"](traced) / AGGREGATE["wall_s"](untraced)
        metrics["telemetry.trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        print(f"{'telemetry.trace_overhead_ratio':<40} {ratio:>14.6g} ratio     "
              "(traced wall_s / untraced wall_s, paired samples)")
        for record in traced:
            integrity += [f"sample {record['index']}: {item} saw no call"
                          for item in record["missing_layers"]]
        coverage = metrics["telemetry.span_coverage"]["value"]
        if coverage < MIN_SPAN_COVERAGE:
            integrity.append(f"layer spans cover {coverage:.3f} of the trial phase, "
                             f"below {MIN_SPAN_COVERAGE}")
        for problem in integrity:
            print(f"TRACE INTEGRITY: {problem}")
        print(f"spans written to {os.path.relpath(chrome_trace, ROOT)}")

    result = {"correct": failed == 0 and not integrity, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "machine": machine, "samples": records}, handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
