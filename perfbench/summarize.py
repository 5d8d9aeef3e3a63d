"""Run the benchmark over several seeds and write one result set.

    python3 perfbench/summarize.py [--seeds 0-9] [--out FILE]

For each workload: one ``run.py`` per seed with tracing off, then one
traced run on the first seed, all with ``run_seconds`` from BENCHMARK.json.
Each run's figures come from its JSON result line and the details file it
writes under ``.perfbench_out/``.
The result set records the environment, the run count, every run's
metrics, and per metric the median, the quartiles and their spread
(IQR / median, the figure the benchmark's bounds are set against).  For
``wall_s`` it also gives the highest percentile of the pooled pass times
that leaves at least ten passes beyond it.  ``baseline`` collects the
figures a later change is compared with: per-criterion times, the D7
depth-6 check, the criterion-3 call counts and the longest
``GroupTable.rows`` build.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from ops import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / ".perfbench_out" /
                          f"run-{workload}-{seed}-trace{trace}.json")
                         .read_text())
    return {"seed": seed, **result, **details}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values),
            "min": min(values), "max": max(values)}


def tail_percentile(values: list[float]) -> dict:
    """Highest whole percentile p with at least ten values above it.

    The value is the eleventh largest; with eleven samples that is the
    smallest, and with fewer there is none.
    """
    n = len(values)
    out = {"samples": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = sorted(values)[-11]
    else:
        out["note"] = "fewer than 11 samples: no value has ten beyond it"
    return out


def longest_spans(trace: dict) -> dict:
    """Longest single span of each traced function (spans >= 1 ms kept)."""
    out: dict[str, float] = {}
    for _, name, start, end, _ in trace["spans"]:
        out[name] = max(out.get(name, 0.0), end - start)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def baseline(workloads: dict) -> dict:
    out: dict = {"criterion_s": {}}
    for entry in workloads.values():
        for op, figures in entry["ops"].items():
            if op.startswith("suite.criterion_"):
                out["criterion_s"][op[len("suite."):]] = figures["s"]
    dense = workloads["measure-dense"]
    d7 = dense["ops"]["cli.mu-invariance-d7-depth6"]
    out["d7_uniform_invariance_depth6"] = {"s": d7["s"],
                                           "peak_rss_mb": d7["rss_mb"]}
    calls = dense["traced"]["op_calls"]["op.suite.criterion_3"]
    out["criterion_3_calls"] = {
        k: calls[k] for k in ("automaton.is_bipermutative",
                              "automaton.fiber_preimages",
                              "measure.CylinderMeasure.eval")}
    traced = workloads["algebra"]["traced"]
    out["group_table_rows"] = {
        "builds": traced["per_layer"]["groups.GroupTable.rows.builds"]
        ["value"],
        "longest_build_s": traced["longest_span_s"]["groups.GroupTable.rows"]}
    return out


def environment(runs_per_workload: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(),
            "runs_per_workload": runs_per_workload}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result = {"environment": environment(len(seeds)),
              "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, s, seconds, 0) for s in seeds]
        entry = {"runs": runs, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = spread(values) if len(values) > 1 \
                else {"median": values[0]}
            entry["metrics"][name]["unit"] = runs[0]["metrics"][name]["unit"]
        passes = [t for r in runs for t in r["pass_s"]]
        entry["metrics"]["wall_s"]["pooled_passes"] = tail_percentile(passes)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["ops"] = {
            op: {k: statistics.median(r["ops"][op][k] for r in runs)
                 for k in ("s", "rss_mb")}
            for op in runs[0]["ops"]}
        traced = run(workload, seeds[0], seconds, 1)
        entry["traced"] = {"seed": seeds[0], "per_layer": traced["metrics"],
                           "op_calls": traced["op_calls"],
                           "longest_span_s": longest_spans(traced)}
        result["workloads"][workload] = entry
        m = entry["metrics"]
        print(f"{workload}: fail_frac "
              f"{entry['failed'] / entry['attempted']:.4f} ratio "
              f"({entry['failed']} of {entry['attempted']} ops); "
              + "; ".join(f"{k} median {v['median']:.4g} {v['unit']} "
                          f"spread {v.get('iqr_over_median', 0):.3f}"
                          for k, v in m.items()), flush=True)
    result["baseline"] = baseline(result["workloads"])
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
