"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs a few algebra ops with their real expected values (they must pass),
then with a deliberately wrong expected value, one op that exits with
code 3 (bound exceeded) and one with a usage error (exit code 2); those
must be counted as failed.  Also checks that
``BENCHMARK.json`` lists exactly the metrics ``run.py`` and ``layers.py``
print.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace

from child import ROOT, TMP, run_ops


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ops import build_ops, cli_op
    from qgca.fixtures import export_fixtures

    TMP.mkdir(exist_ok=True)
    fixtures = tempfile.mkdtemp(dir=TMP)
    try:
        export_fixtures(fixtures)
        ops = {op.name: op for op in build_ops("algebra", fixtures, 0)}
    finally:
        shutil.rmtree(fixtures, ignore_errors=True)
    c2 = ops["suite.criterion_2"]
    subspaces = ops["cli.eca-invsubspaces-identity-3-4"]
    cases = [
        (c2, True),
        (subspaces, True),
        (replace(c2, expected=("FAIL",)), False),
        (replace(subspaces, expected=(0, {"count": "211"})), False),
        # 24^5 words for the depth-5 entropy exceed the bound: exits 3
        (cli_op("cli.mu-example11-c3-depth4",
                ["mu", "example11", "@cyclic,3", "--depth", "4"],
                shift_dev="0/1"), False),
        # argparse rejects the option and raises SystemExit(2)
        (cli_op("cli.eca-invsubspaces-bad-option",
                ["eca", "invsubspaces", "@identity,3,4", "--no-such-option"],
                count=subspaces.expected[1]["count"]), False),
    ]
    records = run_ops([op for op, _ in cases])
    bad = 0
    for (op, should_pass), rec in zip(cases, records):
        good = rec["ok"] == should_pass
        bad += not good
        print(f"{'ok  ' if good else 'BAD '} {op.name}: counted "
              f"{'passed' if rec['ok'] else 'failed'}"
              f"{'' if rec['ok'] else ' (' + rec['error'] + ')'}")
    print(f"{len(cases) - bad} of {len(cases)} ops counted as expected")
    return 1 if bad or not benchmark_lists_metrics() else 0


def benchmark_lists_metrics() -> bool:
    from layers import PER_LAYER
    from run import END_TO_END
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
              [(m["name"], m["unit"]) for m in spec["per_layer"]])
    ok = listed == (list(END_TO_END.items()), PER_LAYER)
    print(f"{'ok  ' if ok else 'BAD '} "
          "BENCHMARK.json lists the printed metrics")
    return ok


if __name__ == "__main__":
    sys.exit(main())
