"""The paper-suite: every acceptance scenario as a deterministic PASS/FAIL
row, plus the seeded generators the randomized sweeps use.

Each criterion function returns rows (criterion id, name, status, detail);
lemma-audit findings are reported as informational rows alongside the
pass/fail machinery checks.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import automaton as ca
from . import eca
from . import fixtures
from . import matfp
from . import measure as mu
from . import quasigroup as qg
from .errors import BadParams, QgcaError
from .measure import format_fraction
from .fixtures import M7_MATRIX
from .groups import (cyclic_group, group_product, nonabelian21_group,
                     quaternion_group)


@dataclass(frozen=True)
class SuiteRow:
    criterion: int
    name: str
    status: str          # PASS / FAIL / INFO
    detail: str


# ---------------------------------------------------------------------------
# seeded generators

def random_latin_square(n: int, rng: random.Random) -> list[list[int]]:
    """Uniformly varied Latin square by randomized backtracking.

    The cells are filled in row-major order from an explicit stack: each
    cell shuffles its candidates when it is entered and tries them in that
    order, and a cell that runs out of candidates sends the search back one
    cell.  The order is free of the recursion limit, but the backtracking
    itself still stalls past order about 28.
    """
    grid = [[-1] * n for _ in range(n)]
    row_used = [set() for _ in range(n)]
    col_used = [set() for _ in range(n)]
    untried: list = []       # untried[i]: the rest of cell i's candidates
    cell = 0
    while cell < n * n:
        r, c = divmod(cell, n)
        if len(untried) == cell:
            cands = [v for v in range(n)
                     if v not in row_used[r] and v not in col_used[c]]
            rng.shuffle(cands)
            untried.append(iter(cands))
        else:                # back from the next cell: take this value out
            row_used[r].remove(grid[r][c])
            col_used[c].remove(grid[r][c])
        v = next(untried[cell], None)
        if v is None:
            grid[r][c] = -1
            untried.pop()
            cell -= 1
        else:
            grid[r][c] = v
            row_used[r].add(v)
            col_used[c].add(v)
            cell += 1
    return grid


def random_bipermutative_rule(n: int, rng: random.Random) -> ca.LocalRule:
    return ca.from_quasigroup(qg.validate_latin(random_latin_square(n, rng)))


def random_word(n: int, length: int, rng: random.Random) -> tuple[int, ...]:
    """length draws of rng.randrange(n), with the same stream and result.

    Each symbol is drawn by the rejection loop randrange runs for a single
    positive argument (Random._randbelow_with_getrandbits), without its
    two Python frames per symbol.  Like randrange, an n below 1 raises
    ValueError at the first draw; getrandbits(0) is 0, so the loop would
    otherwise never end."""
    if n < 1 and length > 0:
        raise ValueError("empty range for randrange()")
    bits, k = rng.getrandbits, n.bit_length()
    word = []
    for _ in range(length):
        r = bits(k)
        while r >= n:
            r = bits(k)
        word.append(r)
    return tuple(word)


# ---------------------------------------------------------------------------
# suite-side exhaustive oracle (independent of the closure enumerator)

def exhaustive_closed_subsets(q: qg.Quasigroup) -> list[tuple[int, ...]]:
    """Every closed subset, by scanning all 2^N subsets."""
    n = q.order
    rows = q.rows
    out = []
    for mask in range(1, 1 << n):
        elems = [i for i in range(n) if mask >> i & 1]
        if all(rows[a][b] in set(elems) for a in elems for b in elems):
            out.append(tuple(elems))
    return out


# ---------------------------------------------------------------------------
# criteria

def _row(criterion: int, name: str, ok: bool, detail: str) -> SuiteRow:
    return SuiteRow(criterion, name, "PASS" if ok else "FAIL", detail)


def criterion_1(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    d7 = qg.builtin("D7")
    found = qg.subquasigroups(d7)
    oracle = sorted((s for s in exhaustive_closed_subsets(d7)
                     if 1 < len(s) < 7), key=lambda s: (len(s), s))
    expected = [(0, 1), (2, 3)]
    ok = found == oracle and all(e in found for e in expected)
    return [_row(1, "d7-subquasigroups", ok,
                 f"found={found} oracle_agrees={found == oracle}")]


def criterion_2(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    quat = qg.builtin("quaternion")
    rule = ca.from_quasigroup(quat)
    p = quat.word("i j k")
    stepped = ca.step_periodic(rule, p)
    pre, per = ca.orbit_period(rule, p)
    ok = stepped == quat.word("k i j") and (pre, per) == (0, 3)
    return [_row(2, "quaternion-orbit", ok,
                 f"step={quat.names(stepped)} preperiod={pre} period={per}")]


def _check_suite_depth(depth: int | None) -> None:
    """Reject a depth below 1: criterion 3 checks depths 1..depth, and with
    none to check it would report a PASS that checked nothing."""
    if depth is not None and depth < 1:
        raise BadParams("depth must be at least 1")


def criterion_3(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    _check_suite_depth(depth)
    max_depth = depth if depth is not None else 5
    rng = random.Random(seed or 3)
    rules = [ca.from_quasigroup(qg.builtin("D7")),
             ca.from_quasigroup(qg.builtin("quaternion"))]
    for _ in range(25):
        rules.append(random_bipermutative_rule(rng.randrange(2, 6), rng))
    worst = Fraction(0)
    for rule in rules:
        m = mu.UniformMeasure(rule.alphabet_size)
        for d in range(1, max_depth + 1):
            rep = mu.invariance_report(m, d, rule)
            worst = max(worst, rep.max_abs_deviation)
    ok = worst == 0
    return [_row(3, "uniform-invariance", ok,
                 f"rules={len(rules)} max_dev={format_fraction(worst)}")]


def criterion_4(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    rows = []
    d = depth if depth is not None else 4
    d = max(2, min(d, 4))
    c2 = cyclic_group(2)
    g = group_product(c2, quaternion_group())
    rule = ca.from_quasigroup(g.quasigroup())
    m = mu.example11(c2)

    shift_dev = mu.invariance_report(m, d).max_abs_deviation
    ca_dev = mu.invariance_report(m, d, rule).max_abs_deviation
    rows.append(_row(4, "example11-invariance", shift_dev == 0 and ca_dev == 0,
                     f"depth={d} shift_dev={format_fraction(shift_dev)} ca_dev={format_fraction(ca_dev)}"))

    prof = mu.entropy_rate_profile(m, d + 1)
    ok = all(v == 1.0 for v in prof)
    rows.append(_row(4, "example11-entropy-increments", ok,
                     f"increments={prof}"))

    coset_c = sorted(c * 8 + 0 for c in range(2))      # C x {1}
    crep = mu.coset_measure_check(m, g, coset_c, d)
    rows.append(_row(4, "example11-coset-measure", crep.passed,
                     f"checked={crep.words_checked} "
                     f"shift_dev={format_fraction(crep.shift_deviation)}"))

    frep = mu.fiber_spectrum(m, rule, d)
    weights_ok = all(v in (Fraction(0), Fraction(1, 2))
                     for r in frep.rows for v in r.weights)
    ok = (frep.K_estimate == 2 and weights_ok
          and frep.eta_constant == Fraction(1, 2) and frep.entropy_check == 0.0)
    rows.append(_row(4, "example11-fiber-spectrum", ok,
                     f"K={frep.K_estimate} eta={frep.eta_constant} "
                     f"entropy_check={frep.entropy_check}"))

    symbols, full = mu.support_alphabet(m, d)
    expected = frozenset(c * 8 + s for c in range(2) for s in (2, 4, 6))
    subs = qg.subquasigroups(g.quasigroup(), include_trivial=True)
    conflicting = [b for b in subs if set(b) == symbols and full]
    ok = symbols == expected and not full and not conflicting
    rows.append(_row(4, "example11-support", ok,
                     f"symbols={sorted(symbols)} full={full} "
                     f"subquasigroup_with_full_support={bool(conflicting)}"))
    return rows


def criterion_5(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    rng = random.Random(seed or 5)
    tables = [qg.builtin("D7"), qg.builtin("quaternion")]
    checked = 0
    ok = True
    for table in tables:
        rule = ca.from_quasigroup(table)
        dual = ca.dual_rule(rule)
        for _ in range(100):
            w = random_word(table.order, rng.randrange(2, 13), rng)
            a = ca.xi(rule, ca.step(rule, w)) == ca.xi(rule, w)[1:]
            b = ca.xi_inverse(rule, ca.xi(rule, w)) == w
            c = ca.step(dual, ca.xi(rule, w)) == ca.xi(rule, w[1:])
            ok = ok and a and b and c
            checked += 1
    return [_row(5, "xi-conjugacy", ok, f"words={checked}")]


def criterion_6(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    rows = []
    g, rule = fixtures._z7x4()
    audit = eca.lemma_audit(g, rule)          # its rho is the kernel's
    dec = audit.split                         # and so is its split

    digits = np.array(qg.unpack_digits(7, 4, np.arange(g.order)))
    m_action = tuple(qg.pack_digits(7, np.array(M7_MATRIX.rows) @ digits).tolist())
    identity_map = tuple(range(g.order))
    ok_dec = dec.phi0 == m_action and dec.phi1 == identity_map
    rows.append(_row(6, "z7x4-decompose", ok_dec,
                     f"phi0_is_M={dec.phi0 == m_action} "
                     f"phi1_is_identity={dec.phi1 == identity_map}"))

    ok_rho = audit.rho == eca.affine_rho(g, dec)
    neg_action = tuple(g.inv(v) for v in m_action)
    ok_rho = ok_rho and audit.rho == neg_action
    rows.append(_row(6, "z7x4-kernel-rho", ok_rho,
                     "rho == -phi0 action"))

    result = matfp.rcf(M7_MATRIX.neg())
    roots = matfp.char_roots(M7_MATRIX.neg())
    ok_rcf = result.simple and len(result.invariant_factors) == 1 \
        and roots == [2]
    rows.append(_row(6, "z7x4-rcf", ok_rcf,
                     f"simple={result.simple} blocks={len(result.invariant_factors)} "
                     f"eigenvalue_scan={roots}"))

    ok_audit = (audit.kernel_lemma_verdict in ("AGREE", "DISAGREE")
                and audit.rcf_lemma_verdict in ("AGREE", "DISAGREE")
                and (audit.has_invariant_subgroup is not None))
    rows.append(_row(6, "z7x4-audit-ran", ok_audit,
                     f"subgroup_witness_order="
                     f"{len(audit.subgroup_witness) if audit.subgroup_witness else 0}"))
    rows.append(SuiteRow(6, "z7x4-audit-kernel-lemma", "INFO",
                         f"{audit.kernel_lemma_verdict}: single_orbit="
                         f"{audit.single_orbit} has_invariant_subgroup="
                         f"{audit.has_invariant_subgroup}"))
    rows.append(SuiteRow(6, "z7x4-audit-rcf-lemma", "INFO",
                         f"{audit.rcf_lemma_verdict}: simple={audit.simple} "
                         f"has_invariant_subspace={audit.has_invariant_subspace}"))
    return rows


def criterion_7(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    h21 = eca.h_max(nonabelian21_group())
    ok = abs(h21 - 2.807354922057604) <= 1e-12 and h21 == math.log2(7)
    primes_ok = all(eca.h_max(cyclic_group(p)) == 0.0 for p in (2, 3, 5, 7, 11))
    return [_row(7, "h-max", ok and primes_ok,
                 f"h_max(21)={h21:.12g} primes_zero={primes_ok}")]


def criterion_8(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    rng = random.Random(seed or 8)
    ok = True
    for _ in range(50):
        n = rng.randrange(2, 7)
        rule = random_bipermutative_rule(n, rng)
        rows = rule._pair_rows           # the forward rows step reads
        for _ in range(100):
            w = random_word(n, rng.randrange(2, 11), rng)
            fibers = ca.fiber_preimages(rule, w)
            # n distinct preimages, each one symbol longer than w and
            # stepping to it; the lengths are checked one by one, so a
            # long and a short preimage cannot cancel in the flat images
            ok = (ok and len(set(fibers)) == n
                  and set(map(len, fibers)) == {len(w) + 1}
                  and [rows[a][b] for f in fibers for a, b in zip(f, f[1:])]
                  == list(w) * n)
        x = random_word(n, rng.randrange(2, 11), rng)
        y = x
        for _ in range(n):
            y = ca.tau(rule, y)
        ok = ok and y == x
        uni = mu.UniformMeasure(n)
        rep = mu.fiber_spectrum(uni, rule, 2)
        ok = ok and all(r.support_count == n for r in rep.rows)
        ok = ok and rep.eta_constant == Fraction(1, n)
        ok = ok and rep.K_estimate == n
    return [_row(8, "fiber-sweep", ok, "rules=50 words=100 each")]


def criterion_9(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    rows = []
    g3 = cyclic_group(3)
    rule3 = ca.from_quasigroup(qg.builtin("ledrappier", [3, 2, 1]))
    audit = eca.lemma_audit(g3, rule3)
    ok = (audit.kernel_lemma_verdict == "DISAGREE"
          and audit.orbits == ((1,), (2,))
          and audit.has_invariant_subgroup is False
          and not audit.single_orbit)
    rows.append(_row(9, "z3-identity-rho-audit", ok,
                     f"verdict={audit.kernel_lemma_verdict} "
                     f"orbits={audit.orbits}"))
    rows.append(SuiteRow(9, "z3-audit-kernel-lemma", "INFO",
                         f"{audit.kernel_lemma_verdict}: single_orbit="
                         f"{audit.single_orbit} has_invariant_subgroup="
                         f"{audit.has_invariant_subgroup}"))

    ident = matfp.MatrixFp.identity(2, 2)
    result = matfp.rcf(ident)
    blocks_ok = result.invariant_factors == ((1, 1), (1, 1)) \
        and not result.simple
    main = matfp.invariant_subspaces(ident)
    exhaustive = matfp.invariant_subspaces_exhaustive(ident)
    lines_ok = len(main) == 3 and main == exhaustive
    rows.append(_row(9, "f2-identity-rcf-and-lines", blocks_ok and lines_ok,
                     f"blocks={[matfp.p_str(f) for f in result.invariant_factors]} "
                     f"lines={len(main)} strategies_agree={main == exhaustive}"))
    return rows


_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9]


def paper_suite(depth: int | None = None, seed: int = 0) -> list[SuiteRow]:
    """Run every acceptance scenario; deterministic for fixed depth and seed."""
    _check_suite_depth(depth)
    rows: list[SuiteRow] = []
    for idx, fn in enumerate(_CRITERIA, start=1):
        try:
            rows.extend(fn(depth, seed))
        except QgcaError as exc:
            rows.append(SuiteRow(idx, f"criterion-{idx}", "FAIL",
                                 f"{type(exc).__name__}: {exc}"))
    return rows
