"""One pass over a workload in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N [--mode MODE]

MODE is ``plain`` (no tracing), ``spans`` (layer spans, counts and RSS
rises, see ``tracer.py``) or ``setup`` (set-up only).
Set-up, timed as ``setup_s``, imports qgca from the checkout's ``src``,
exports the fixtures to a temporary directory inside the checkout and
builds the op list from the seed.  The pass then runs every op once, in
order, and checks each result.  ``run.py`` starts this script and reads the
last line of its output.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"


def run_ops(ops, tracer=None) -> list[dict]:
    """Run each op once; a raised exception or a wrong result fails it."""
    records = []
    for op in ops:
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                observed = op.run()
            else:
                with tracer.root(f"op.{op.name}"):
                    observed = op.run()
        except Exception as exc:
            observed = None
            error = "".join(traceback.format_exception_only(exc)).strip()
        took = time.perf_counter() - start
        ok = error is None and observed == op.expected
        if error is None and not ok:
            error = f"observed {observed!r}, expected {op.expected!r}"
        records.append({"op": op.name, "s": took, "ok": ok, "error": error,
                        "rss_mb": maxrss_mb()})
    return records


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", default="plain",
                    choices=("plain", "spans", "setup"))
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qgca.cli  # noqa: F401
    import qgca.suite  # noqa: F401
    from qgca.fixtures import export_fixtures
    from ops import build_ops
    if not Path(qgca.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qgca imported from {qgca.__file__}, "
                         f"not from {ROOT / 'src'}")
    TMP.mkdir(exist_ok=True)
    fixtures = tempfile.mkdtemp(dir=TMP)
    try:
        export_fixtures(fixtures)
        ops = build_ops(args.workload, fixtures, args.seed)
        setup_s = time.perf_counter() - start
        out = {"setup_s": setup_s}
        if args.mode != "setup":
            out.update(run_pass(ops, args.mode))
    finally:
        shutil.rmtree(fixtures, ignore_errors=True)
    out["rss_mb"] = maxrss_mb()
    print(json.dumps(out))
    return 0


def run_pass(ops, mode: str) -> dict:
    tracer = None
    if mode == "spans":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    records = run_ops(ops, tracer)
    out = {"pass_s": time.perf_counter() - start, "ops": records}
    if tracer is not None:
        out["stats"] = tracer.stats
        out["errors"] = tracer.errors
        out["peak_rss_rise"] = tracer.peak_rss_rise
        out["distinct"] = {k: v.count for k, v in tracer.distinct.items()}
        out["op_calls"] = tracer.op_calls
        out["spans"] = tracer.spans()
    return out


if __name__ == "__main__":
    sys.exit(main())
