"""Command-line front end.

Verbs are grouped by module: ``qg`` (tables), ``ca`` (rules and words),
``mu`` (measures), ``eca`` (group/endomorphism analysis), plus
``paper-suite`` and ``export-fixtures``.  Inputs are file paths or ``@`` specs
naming built-ins (see fixtures).  Reports are TSV with a header row;
rationals print as p/q and floats with 12 significant digits.

Every verb is one row of ``_VERBS``: its group, name, handler, arguments
and common options (``--out``, ``--depth``, ``--mass-floor``), in the order
the choices are listed.  ``build_parser(argv)`` builds only the parsers on
the path ``argv`` names (the top parser, the group's, the verb's); help,
usage and error output are the same as from the full parser, which it
builds when ``argv`` names no verb.

A handler takes resolved inputs and returns its report: the text, or (exit
code, text) when the report carries a verdict.  ``main`` resolves every input
(``_INPUTS``) and word in the verb's argument order, so the first bad one is
reported, and alone writes the report, to stdout or to ``--out``.

Exit codes: 0 success, or output cut off by a reader that closed stdout
early (the result is then unknown), 1 analysis failure or falsification, 2
bad input, 3 resource bound exceeded.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import automaton as ca
from . import eca as eca_mod
from . import fixtures
from . import matfp
from . import measure as mu
from . import quasigroup as qg
from .errors import (AnalysisError, BadParams, BoundError, InputError,
                     ParseError)
from .measure import format_fraction, parse_fraction
from .suite import paper_suite


def _fmt_float(v: float) -> str:
    return f"{v:.12g}"


def _parse_word(text: str, symbols, n: int) -> tuple[int, ...]:
    out = []
    for tok in text.split():
        if symbols is not None and tok in symbols:
            out.append(symbols.index(tok))
            continue
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"unknown symbol {tok!r}") from None
        if not 0 <= v < n:
            raise ParseError(f"symbol index {v} outside 0..{n - 1}")
        out.append(v)
    return tuple(out)


def _names(word, symbols) -> str:
    if symbols is None:
        return " ".join(str(s) for s in word)
    return " ".join(symbols[s] for s in word)


# ---------------------------------------------------------------------------
# qg

def _cmd_qg_validate(args) -> str:
    return f"LATIN OK N={args.table.order}"


def _cmd_qg_dual(args) -> str:
    return qg.format_table(qg.dual(args.table))


def _cmd_qg_sub(args) -> str:
    q = args.table
    subs = qg.subquasigroups(q, include_trivial=args.include_trivial)
    lines = ["size\tmembers"]
    for s in subs:
        lines.append(f"{len(s)}\t" + " ".join(q.symbols[i] for i in s))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ca

def _cmd_ca_step(args) -> str:
    if args.times < 0:
        raise BadParams(f"--times must be nonnegative, got {args.times}")
    rule, symbols = args.rule
    w = args.word
    for _ in range(args.times):
        w = ca.step(rule, w)
    return _names(w, symbols)


def _cmd_ca_orbit(args) -> str:
    rule, _ = args.rule
    pre, per = ca.orbit_period(rule, args.word)
    return f"preperiod={pre} period={per}"


def _cmd_ca_fiber(args) -> str:
    rule, symbols = args.rule
    lines = ["first_symbol\tpreimage"]
    for b, f in enumerate(ca.fiber_preimages(rule, args.word)):
        name = symbols[b] if symbols else str(b)
        lines.append(f"{name}\t{_names(f, symbols)}")
    return "\n".join(lines)


def _cmd_ca_xi(args) -> str:
    rule, symbols = args.rule
    w = args.word
    out = ca.xi_inverse(rule, w) if args.inverse else ca.xi(rule, w)
    return _names(out, symbols)


def _cmd_ca_dual(args) -> str:
    rule, _ = args.rule
    return ca.format_rule(ca.dual_rule(rule))


def _cmd_ca_recode(args) -> str:
    rule, _ = args.rule
    rec = ca.recode_block(rule)
    lines = [f"block={rec.block} alphabet={rec.rule.alphabet_size}"]
    if args.word:
        enc = rec.encode(args.word)
        lines.append("encoded\t" + " ".join(str(v) for v in enc))
        lines.append("stepped\t" + " ".join(str(v)
                                            for v in ca.step(rec.rule, enc)))
    lines.append(ca.format_rule(rec.rule).rstrip("\n"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# mu

def _cmd_mu_eval(args) -> str:
    return format_fraction(mu.eval_cylinder(args.measure.measure, args.word))


def _cmd_mu_invariance(args) -> tuple[int, str]:
    doc = args.measure
    rule = None
    if args.ca:
        rule, _ = args.ca
    rep = mu.invariance_report(doc.measure, args.depth, rule)
    worst = "-" if rep.worst_word is None else _names(rep.worst_word, doc.symbols)
    return (0 if rep.max_abs_deviation == 0 else 1,
            f"transform={rep.transform} depth={rep.depth} "
            f"max_dev={format_fraction(rep.max_abs_deviation)} worst={worst}")


def _cmd_mu_entropy(args) -> str:
    lines = ["depth\tblock_entropy\tincrement"]
    blocks, increments = mu.entropy_profile(args.measure.measure, args.depth)
    for k, h in enumerate(blocks, 1):
        inc = _fmt_float(increments[k - 2]) if k >= 2 else "-"
        lines.append(f"{k}\t{_fmt_float(h)}\t{inc}")
    return "\n".join(lines)


def _cmd_mu_conditional(args) -> str:
    doc = args.measure
    dist = mu.conditional_dist(doc.measure, args.word)
    lines = ["symbol\tweight"]
    for b, v in enumerate(dist):
        name = doc.symbols[b] if doc.symbols else str(b)
        lines.append(f"{name}\t{format_fraction(v)}")
    return "\n".join(lines)


def _cmd_mu_cmeasure(args) -> tuple[int, str]:
    doc = args.measure
    rep = mu.coset_measure_check(doc.measure, args.group, args.subgroup,
                                 args.depth, args.mass_floor)
    lines = [f"passed={rep.passed} depth={rep.depth} "
             f"checked={rep.words_checked} "
             f"shift_dev={format_fraction(rep.shift_deviation)}"]
    if not rep.passed:
        lines.append(f"worst={_names(rep.worst_word, doc.symbols)} "
                     f"reason={rep.worst_reason}")
    return (0 if rep.passed else 1), "\n".join(lines)


def _cmd_mu_fibers(args) -> str:
    doc = args.measure
    rule, _ = args.rule
    rep = mu.fiber_spectrum(doc.measure, rule, args.depth, args.mass_floor)
    lines = ["word\ttotal_mass\tsupport\tweights"]
    for r in rep.rows:
        lines.append("\t".join((
            _names(r.word, doc.symbols), format_fraction(r.total_mass),
            str(r.support_count),
            " ".join(format_fraction(v) for v in r.weights))))
    eta = "nonconstant" if rep.eta_constant is None \
        else format_fraction(rep.eta_constant)
    lines.append(f"K_estimate={rep.K_estimate} eta={eta} "
                 f"entropy_check={_fmt_float(rep.entropy_check)} "
                 f"invariance_dev={format_fraction(rep.invariance_deviation)}")
    return "\n".join(lines)


def _cmd_mu_support(args) -> str:
    doc = args.measure
    symbols, full = mu.support_alphabet(doc.measure, args.depth)
    name = (lambda b: doc.symbols[b]) if doc.symbols else str
    return (f"symbols={' '.join(name(b) for b in sorted(symbols))}\n"
            f"full_shift_over_support={full}")


def _cmd_mu_example11(args) -> tuple[int, str]:
    from .groups import group_product, quaternion_group
    combined = group_product(args.group, quaternion_group())
    rule = ca.from_quasigroup(combined.quasigroup())
    m = mu.example11(args.group)
    d = args.depth
    shift = mu.invariance_report(m, d).max_abs_deviation
    phi = mu.invariance_report(m, d, rule).max_abs_deviation
    prof = mu.entropy_rate_profile(m, d + 1)
    lines = ["check\tvalue",
             f"alphabet\t{combined.order}",
             f"shift_dev\t{format_fraction(shift)}",
             f"ca_dev\t{format_fraction(phi)}",
             "entropy_increments\t" + " ".join(_fmt_float(v) for v in prof)]
    return (0 if shift == 0 and phi == 0 else 1), "\n".join(lines)


# ---------------------------------------------------------------------------
# eca

def _cmd_eca_decompose(args) -> str:
    rule, _ = args.rule
    g = args.group
    dec = eca_mod.decompose_affine(rule, g)
    lines = [f"phi0_automorphism={dec.phi0_automorphism} "
             f"phi1_automorphism={dec.phi1_automorphism} "
             f"bipermutative={dec.bipermutative}"]
    if g.order <= 64:
        lines.append("a\tphi0(a)\tphi1(a)")
        for a in range(g.order):
            lines.append(f"{g.symbols[a]}\t{g.symbols[dec.phi0[a]]}\t"
                         f"{g.symbols[dec.phi1[a]]}")
    return "\n".join(lines)


def _cmd_eca_kernel(args) -> str:
    rule, _ = args.rule
    g = args.group
    rep = eca_mod.kernel(rule, g)
    lines = ["symbol\trho\tperiod\tkernel_word"]
    shown = range(g.order) if g.order <= 64 else range(8)
    for a in shown:
        word = " ".join(g.symbols[v] for v in rep.word(a)) \
            if rep.periods[a] <= 16 else f"(period {rep.periods[a]})"
        lines.append(f"{g.symbols[a]}\t{g.symbols[rep.rho[a]]}\t"
                     f"{rep.periods[a]}\t{word}")
    if g.order > 64:
        lines.append(f"... {g.order - 8} more symbols")
    return "\n".join(lines)


def _cmd_eca_orbits(args) -> str:
    rule, _ = args.rule
    g = args.group
    rep = eca_mod.kernel(rule, g)
    orb = eca_mod.rho_orbits(rep.rho, g)
    lines = [f"orbits={len(orb.orbits)} single_orbit={orb.single_orbit}"]
    for cyc in orb.orbits[:64]:
        if len(cyc) <= 32:
            lines.append(" ".join(g.symbols[v] for v in cyc))
        else:
            lines.append(f"(cycle of length {len(cyc)} from {g.symbols[cyc[0]]})")
    return "\n".join(lines)


def _cmd_eca_invsubgroups(args) -> str:
    g = args.group
    rho = None
    if args.rule:
        rule, _ = args.rule
        rho = eca_mod.kernel(rule, g).rho
    subs = eca_mod.invariant_subgroups(g, rho)
    lines = ["order\tmembers"]
    for s in subs:
        lines.append(f"{len(s)}\t" + " ".join(g.symbols[i] for i in s))
    return "\n".join(lines)


def _cmd_eca_hmax(args) -> str:
    return f"h_max={_fmt_float(eca_mod.h_max(args.group))}"


def _cmd_eca_charpoly(args) -> str:
    m = args.matrix
    return (f"char={matfp.p_str(matfp.char_poly(m))}\n"
            f"min={matfp.p_str(matfp.min_poly(m))}")


def _cmd_eca_rcf(args) -> str:
    result = matfp.rcf(args.matrix)
    lines = [f"simple={result.simple} blocks={len(result.invariant_factors)}"]
    for f in result.invariant_factors:
        lines.append(matfp.p_str(f))
    return "\n".join(lines)


def _cmd_eca_invsubspaces(args) -> str:
    spaces = matfp.invariant_subspaces(args.matrix)
    lines = [f"count={len(spaces)}"]
    for basis in spaces:
        lines.append(f"dim={len(basis)}\t" +
                     " | ".join(" ".join(str(v) for v in row) for row in basis))
    return "\n".join(lines)


def _cmd_eca_audit(args) -> str:
    rule, _ = args.rule
    g = args.group
    rep = eca_mod.lemma_audit(g, rule)
    lines = [
        f"single_orbit={rep.single_orbit} orbit_count={len(rep.orbits)}",
        f"has_invariant_subgroup={rep.has_invariant_subgroup} "
        f"method={rep.subgroup_method}",
        f"kernel_lemma={rep.kernel_lemma_verdict}",
    ]
    if rep.subgroup_witness:
        shown = " ".join(g.symbols[i] for i in rep.subgroup_witness[:16])
        lines.append(f"subgroup_witness=[{shown}]"
                     f" order={len(rep.subgroup_witness)}")
    if rep.linear:
        blocks = [matfp.p_str(f) for f in rep.invariant_factors]
        lines.append(f"simple={rep.simple} blocks={blocks}")
        lines.append(f"eigenvalue_scan={list(rep.eigenvalues)}")
        lines.append(f"has_invariant_subspace={rep.has_invariant_subspace}")
        if rep.subspace_witness:
            basis = " | ".join(" ".join(str(v) for v in row)
                               for row in rep.subspace_witness)
            lines.append(f"subspace_witness={basis}")
        lines.append(f"rcf_lemma={rep.rcf_lemma_verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# suite and fixtures

def _cmd_paper_suite(args) -> tuple[int, str]:
    rows = paper_suite(depth=args.depth, seed=args.seed)
    lines = ["criterion\tname\tstatus\tdetail"]
    for r in rows:
        lines.append(f"{r.criterion}\t{r.name}\t{r.status}\t{r.detail}")
    return (1 if any(r.status == "FAIL" for r in rows) else 0,
            "\n".join(lines))


def _cmd_export_fixtures(args) -> str:
    return "\n".join(fixtures.export_fixtures(args.directory))


# ---------------------------------------------------------------------------
# parser assembly

_HELP = {"qg": "quasigroup tables", "ca": "rules and words",
         "mu": "cylinder measures", "eca": "endomorphic-CA analysis",
         "paper-suite": "run every acceptance scenario",
         "export-fixtures": "write the builtin example files"}

# One row per verb, in choice order: (group, or None for a top-level verb;
# verb; handler; arguments; _add_common options, or None for none).  An
# argument is a bare positional name or (name or flag, add_argument keywords).
_VERBS = (
    ("qg", "validate", _cmd_qg_validate, ("table",), {}),
    ("qg", "dual", _cmd_qg_dual, ("table",), {}),
    ("qg", "sub", _cmd_qg_sub,
     ("table", ("--include-trivial", dict(action="store_true"))), {}),
    ("ca", "step", _cmd_ca_step,
     ("rule", "word", ("--times", dict(type=int, default=1))), {}),
    ("ca", "orbit", _cmd_ca_orbit, ("rule", "word"), {}),
    ("ca", "fiber", _cmd_ca_fiber, ("rule", "word"), {}),
    ("ca", "xi", _cmd_ca_xi,
     ("rule", "word", ("--inverse", dict(action="store_true"))), {}),
    ("ca", "dual", _cmd_ca_dual, ("rule",), {}),
    ("ca", "recode", _cmd_ca_recode,
     ("rule", ("word", dict(nargs="?", default=None))), {}),
    ("mu", "eval", _cmd_mu_eval, ("measure", "word"), {}),
    ("mu", "invariance", _cmd_mu_invariance,
     ("measure", ("--ca", dict(default=None, metavar="RULE"))), dict(depth=4)),
    ("mu", "entropy", _cmd_mu_entropy, ("measure",), dict(depth=5)),
    ("mu", "conditional", _cmd_mu_conditional, ("measure", "word"), {}),
    ("mu", "cmeasure", _cmd_mu_cmeasure,
     ("measure", "group", ("--subgroup", dict(
         required=True,
         help="subgroup members, space-separated names or indices"))),
     dict(depth=4, mass_floor=True)),
    ("mu", "fibers", _cmd_mu_fibers, ("measure", "rule"),
     dict(depth=3, mass_floor=True)),
    ("mu", "support", _cmd_mu_support, ("measure",), dict(depth=3)),
    ("mu", "example11", _cmd_mu_example11,
     (("group", dict(help="the factor group C (file or @spec)")),),
     dict(depth=4)),
    ("eca", "decompose", _cmd_eca_decompose, ("rule", "group"), {}),
    ("eca", "kernel", _cmd_eca_kernel, ("rule", "group"), {}),
    ("eca", "orbits", _cmd_eca_orbits, ("rule", "group"), {}),
    ("eca", "audit", _cmd_eca_audit, ("rule", "group"), {}),
    ("eca", "hmax", _cmd_eca_hmax, ("group",), {}),
    ("eca", "charpoly", _cmd_eca_charpoly, ("matrix",), {}),
    ("eca", "rcf", _cmd_eca_rcf, ("matrix",), {}),
    ("eca", "invsubspaces", _cmd_eca_invsubspaces, ("matrix",), {}),
    ("eca", "invsubgroups", _cmd_eca_invsubgroups,
     ("group", ("--rule", dict(default=None,
                               help="derive rho from this rule's kernel"))),
     {}),
    (None, "paper-suite", _cmd_paper_suite,
     (("--depth", dict(type=int, default=None)),
      ("--seed", dict(type=int, default=0)), ("--out", dict(default=None))),
     None),
    (None, "export-fixtures", _cmd_export_fixtures, ("directory",), None),
)


def _rational(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser, *, depth: int | None = None,
                mass_floor: bool = False) -> None:
    p.add_argument("--out", default=None, help="write the report to a file")
    if depth is not None:
        p.add_argument("--depth", type=int, default=depth)
    if mass_floor:
        p.add_argument("--mass-floor", type=_rational, default=Fraction(0),
                       dest="mass_floor", metavar="P/Q")


def _path(row) -> list[str]:
    return [row[0], row[1]] if row[0] else [row[1]]


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``qgca`` parser.  If ``argv`` starts with a verb's path (``GROUP
    VERB``, or a top-level verb), only the parsers on that path are built;
    otherwise (``qgca``, ``qgca --help``, ``qgca mu bogus``) all of them."""
    head = list(argv or ())[:2]
    rows = [r for r in _VERBS if head[:len(_path(r))] == _path(r)] or _VERBS
    top = argparse.ArgumentParser(
        prog="qgca",
        description="exact quasigroup-CA, cylinder-measure, and "
                    "endomorphic-CA analysis")
    # A one-path build names every command in its usage line, as the full
    # build does; the full build keeps the default metavar, so that a
    # missing command is reported as 'command'.
    sub = top.add_subparsers(
        dest="command", required=True,
        metavar=None if rows is _VERBS else "{" + ",".join(_HELP) + "}")
    groups = {}
    for group, verb, fn, arguments, common in rows:
        if group is None:
            p = sub.add_parser(verb, help=_HELP[verb])
        else:
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=_HELP[group]).add_subparsers(
                    dest="verb", required=True)
            p = groups[group].add_parser(verb)
        for arg in arguments:
            name, kwargs = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(name, **kwargs)
        if common is not None:
            _add_common(p, **common)
        p.set_defaults(fn=fn)
    return top


# Input arguments by name, each with the ``fixtures`` resolver of its file
# path or @spec, looked up when it runs so a wrapper set on ``fixtures`` sees
# the call; then the word arguments, and the alphabet (symbol names or None,
# size) of each input that a word can follow.  A rule resolves to a pair.
_INPUTS = {"table": "resolve_table", "rule": "resolve_rule",
           "ca": "resolve_rule", "group": "resolve_group",
           "measure": "resolve_measure", "matrix": "resolve_matrix"}
_WORDS = ("word", "subgroup")
_ALPHABETS = {"rule": lambda pair: (pair[1], pair[0].alphabet_size),
              "group": lambda g: (g.symbols, g.order),
              "measure": lambda doc: (doc.symbols, doc.measure.alphabet_size)}


def _read_inputs(args) -> None:
    """Replace each input and word given in ``args``, in the verb's argument
    order: an input by its object, a word by its symbol indices in the
    alphabet of the input named before it."""
    last = None
    for arg in next(row[3] for row in _VERBS if row[2] is args.fn):
        dest = (arg if isinstance(arg, str) else arg[0]).lstrip("-")
        text = vars(args).get(dest)
        if text is not None and dest in _INPUTS:
            setattr(args, dest, getattr(fixtures, _INPUTS[dest])(text))
            last = dest
        elif text is not None and dest in _WORDS:
            symbols, n = _ALPHABETS[last](getattr(args, last))
            setattr(args, dest, _parse_word(text, symbols, n))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        _read_inputs(args)
        report = args.fn(args)
        code, text = report if isinstance(report, tuple) else (0, report)
        if vars(args).get("out"):
            Path(args.out).write_text(
                text if text.endswith("\n") else text + "\n")
        else:
            print(text)
        # a reader gone before the buffered report is written fails here,
        # not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BoundError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): the output is cut off, not
        # an error; what is still buffered goes to the null device so the
        # flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
