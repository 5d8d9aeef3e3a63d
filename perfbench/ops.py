"""The three benchmark workloads: their ops and each op's expected result.

An op builds its own rules, groups and measures from plain inputs (a seed,
a fixture path, an ``@`` spec), calls qgca's public API or ``qgca.cli.main``
in-process, and returns an observed value.  The op passes when the observed
value equals ``expected``.  Expected values do not depend on the seed: they
are invariants of the mathematics (a deviation of 0, a fiber count equal to
the alphabet or factor-group order, a subspace count from a Gaussian
binomial), so any seed must give ``fail_frac = 0``.

qgca is imported inside the ops only, so ``run.py`` can read the workload
names without importing the package.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("measure-dense", "measure-sparse", "algebra")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    expected: object


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def cli_op(name: str, argv: list[str], **fields: str) -> Op:
    """An op that runs ``qgca <argv>`` and observes (exit code, {key: value})
    for the keys of ``fields``; it expects exit code 0 and ``fields``.

    Values come from ``key=value`` tokens and two-column ``key<TAB>value``
    TSV rows of the captured standard output.  A usage error, which argparse
    raises as ``SystemExit(2)``, is observed as exit code 2.
    """
    def run():
        from qgca.cli import main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        found: dict[str, str] = {}
        for line in out.getvalue().splitlines():
            cells = line.split("\t")
            if len(cells) == 2 and "=" not in line:
                found.setdefault(cells[0], cells[1])
            for token in line.split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    found.setdefault(key, value)
        return code, {k: found.get(k) for k in fields}
    return Op(name, run, (0, fields))


def suite_op(criterion: int, seed: int) -> Op:
    """Statuses other than INFO; a clean criterion gives exactly ('PASS',)."""
    def run():
        from qgca import suite
        rows = getattr(suite, f"criterion_{criterion}")(None, seed)
        return tuple(sorted({r.status for r in rows} - {"INFO"}))
    return Op(f"suite.criterion_{criterion}", run, ("PASS",))


def _d7_fiber_spectrum():
    from qgca import automaton, measure, quasigroup
    rule = automaton.from_quasigroup(quasigroup.builtin("D7"))
    rep = measure.fiber_spectrum(measure.UniformMeasure(7), rule, 4)
    return rep.K_estimate, rep.eta_constant, rep.invariance_deviation


def _example11_system(c_order: int):
    from qgca import automaton, groups, measure
    c = groups.cyclic_group(c_order)
    g = groups.group_product(c, groups.quaternion_group())
    return g, automaton.from_quasigroup(g.quasigroup()), measure.example11(c)


def _c4q_invariance():
    from qgca import measure
    _, rule, m = _example11_system(4)
    return measure.invariance_report(m, 4, rule).max_abs_deviation


def _c4q_coset_check():
    from qgca import measure
    g, _, m = _example11_system(4)
    # C x {1}: the quaternion identity is index 0 of each 8-symbol block
    rep = measure.coset_measure_check(m, g, [c * 8 for c in range(4)], 4)
    return rep.passed, rep.shift_deviation


def _c4q_fiber_spectrum():
    from qgca import measure
    _, rule, m = _example11_system(4)
    rep = measure.fiber_spectrum(m, rule, 3)
    return rep.K_estimate, rep.invariance_deviation


def _z2x5_subquasigroups():
    from qgca import groups, quasigroup
    table = groups.elementary_abelian_group(2, 5).quasigroup()
    return len(quasigroup.subquasigroups(table))


def build_ops(workload: str, fixtures: str, seed: int) -> list[Op]:
    """The ops of one pass, in order.  ``fixtures`` holds export_fixtures()."""
    zero = Fraction(0)
    if workload == "measure-dense":
        return [
            suite_op(3, seed),
            cli_op("cli.mu-invariance-d7-depth6",
                   ["mu", "invariance", "@uniform,7", "--ca",
                    f"{fixtures}/d7.rule", "--depth", "6"],
                   max_dev="0/1"),
            Op("api.fiber_spectrum-d7-depth4", _d7_fiber_spectrum,
               (7, Fraction(1, 7), zero)),
        ]
    if workload == "measure-sparse":
        return [
            suite_op(4, seed),
            cli_op("cli.mu-invariance-c2q-depth4",
                   ["mu", "invariance", "@example11,2", "--ca",
                    f"{fixtures}/c2q.rule", "--depth", "4"],
                   max_dev="0/1"),
            cli_op("cli.mu-fibers-c2q-depth3",
                   ["mu", "fibers", "@example11,2", f"{fixtures}/c2q.rule",
                    "--depth", "3"],
                   K_estimate="2", eta="1/2", invariance_dev="0/1"),
            cli_op("cli.mu-example11-c4-depth3",
                   ["mu", "example11", "@cyclic,4", "--depth", "3"],
                   alphabet="32", shift_dev="0/1", ca_dev="0/1",
                   entropy_increments="2 2 2"),
            Op("api.invariance-c4q-depth4", _c4q_invariance, zero),
            Op("api.coset_measure_check-c4q-depth4", _c4q_coset_check,
               (True, zero)),
            Op("api.fiber_spectrum-c4q-depth3", _c4q_fiber_spectrum,
               (4, zero)),
        ]
    if workload == "algebra":
        subspaces = sum(gaussian_binomial(4, k, 3) for k in range(1, 4))
        subgroups = sum(gaussian_binomial(5, k, 2) for k in range(1, 5))
        return [suite_op(c, seed) for c in (1, 2, 5, 6, 7, 8, 9)] + [
            cli_op("cli.eca-audit-z7x4",
                   ["eca", "audit", "@z7x4", "@z7x4"],
                   has_invariant_subgroup="True", order="7", simple="True",
                   eigenvalue_scan="[2]", has_invariant_subspace="True",
                   rcf_lemma="DISAGREE"),
            cli_op("cli.eca-invsubspaces-identity-3-4",
                   ["eca", "invsubspaces", "@identity,3,4"],
                   count=str(subspaces)),
            Op("api.subquasigroups-z2x5", _z2x5_subquasigroups, subgroups),
        ]
    raise ValueError(f"unknown workload {workload!r}")
