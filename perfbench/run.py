"""qgca benchmark: one workload, closed loop, one client, fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qgca checkout; qgca is imported from its ``src``.
Each pass runs every op of the workload once, in order, each op starting
when the previous one returns, in a fresh process (``child.py``), so peak
RSS, per-object memos and module-level caches start cold as they do for a
user.

``--trace 0`` repeats passes while the next one is expected to end within
S seconds (at least one), and reports the end-to-end metrics:

    wall_s       median wall time of one pass
    peak_rss_mb  median ru_maxrss of the pass processes
    setup_s      median set-up time (import, fixture export, input build),
                 over at least MIN_SETUPS processes

``--trace 1`` runs one untraced pass and one with layer spans, and reports
the per-layer metrics (``layers.py``) with the tracing overhead.

Every run also writes ``.perfbench_out/run-<workload>-<seed>-trace<0|1>.json``
in the checkout: each pass's time, each op's median time and peak RSS, and,
for a traced run, each op's call counts and the spans.

Every op's exact result is checked; ``failed``/``attempted`` count the ops
that raised or returned a wrong value.  The last line of the output is
one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SETUPS = 5
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
RUN_LIMIT_S = 170       # the whole run, trace or not, ends within this


class PassError(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    # string hashing, and with it set order, follows the seed too
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass did not end within the run limit") \
            from None
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_passes(workload: str, seed: int, seconds: float,
                 deadline: float) -> list[dict]:
    start = time.monotonic()
    passes = [child(workload, seed, "plain", deadline)]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes
        passes.append(child(workload, seed, "plain", deadline))


def op_medians(passes: list[dict]) -> dict[str, dict[str, float]]:
    """Per op: median time and median ru_maxrss after the op returned."""
    return {r["op"]: {k: statistics.median(p["ops"][i][k] for p in passes)
                      for k in ("s", "rss_mb")}
            for i, r in enumerate(passes[0]["ops"])}


def report_ops(passes: list[dict], ops: dict) -> None:
    for name, m in ops.items():
        print(f"  op {name:40s} {m['s']:11.6f} s {m['rss_mb']:8.1f} MB")
    for p in passes:
        for r in p["ops"]:
            if not r["ok"]:
                print(f"  FAILED {r['op']}: {r['error']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qgca" / "__init__.py").is_file():
        print(f"no qgca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if args.trace:
            import layers
            passes = [child(args.workload, args.seed, mode, deadline)
                      for mode in ("plain", "spans")]
            metrics = layers.metrics(*passes)
            details = {"op_calls": passes[1]["op_calls"],
                       "span_fields": ["id", "name", "start", "end",
                                       "parent"],
                       "spans": passes[1]["spans"]}
        else:
            passes = timed_passes(args.workload, args.seed, args.seconds,
                                  deadline)
            setups = [p["setup_s"] for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(
                    child(args.workload, args.seed, "setup", deadline)
                    ["setup_s"])
            values = {"wall_s": [p["pass_s"] for p in passes],
                      "peak_rss_mb": [p["rss_mb"] for p in passes],
                      "setup_s": setups}
            metrics = {name: {"value": statistics.median(values[name]),
                              "unit": unit}
                       for name, unit in END_TO_END.items()}
            details = {}
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["ops"])
    ops = op_medians(passes)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"pass_s": [p["pass_s"] for p in passes], "ops": ops, **details}))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es)"
          f", details in {out_file.relative_to(ROOT)}")
    report_ops(passes, ops)
    print(f"  fail_frac {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} ops failed)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
