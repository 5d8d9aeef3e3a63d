import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgca import automaton as ca
from qgca import groups as gr
from qgca import quasigroup as qg
from qgca.errors import (BadEntry, BadParams, DuplicateInColumn,
                         DuplicateInRow, ParseError, TableTooLarge, TooLarge,
                         UnknownName)
from qgca.suite import random_latin_square

import oracles
from oracles import closed_subsets_bitmask

D7_ROWS = (
    (0, 1, 4, 5, 3, 2, 6),
    (1, 0, 5, 4, 2, 6, 3),
    (4, 6, 2, 3, 5, 0, 1),
    (6, 4, 3, 2, 0, 1, 5),
    (2, 3, 6, 0, 1, 5, 4),
    (3, 5, 0, 1, 6, 4, 2),
    (5, 2, 1, 6, 4, 3, 0),
)


def test_d7_is_valid_and_matches_frozen_table(d7):
    assert d7.order == 7
    assert d7.symbols == ("a1", "a2", "b1", "b2", "c1", "c2", "c3")
    assert d7.rows == D7_ROWS


def test_validate_rejects_duplicate_row():
    with pytest.raises(DuplicateInRow) as exc:
        qg.validate_latin([[0, 0], [1, 1]])
    assert (exc.value.row, exc.value.col1, exc.value.col2) == (0, 0, 1)


def test_validate_rejects_duplicate_column():
    with pytest.raises(DuplicateInColumn) as exc:
        qg.validate_latin([[0, 1], [0, 1]])
    assert (exc.value.col, exc.value.row1, exc.value.row2) == (0, 0, 1)


def test_validate_rejects_bad_entry():
    with pytest.raises(BadEntry) as exc:
        qg.validate_latin([[0, 2], [1, 0]])
    assert (exc.value.row, exc.value.col) == (0, 1)


def test_validate_rejects_non_square():
    with pytest.raises(ParseError):
        qg.validate_latin([[0, 1]])


def permutative_table(n, arity, rng):
    """a_1 + .. + a_arity mod n under random symbol permutations."""
    return sum(rng.permutation(n)[np.arange(n).reshape((n,) + (1,) * k)]
               for k in range(arity)) % n


def edit(table, kind, rng, lo, hi):
    """Set one entry to a value in lo..hi-1, or swap two entries of one row
    or of one column."""
    n = table.shape[0]
    at, other = tuple(rng.integers(0, n, table.ndim)), int(rng.integers(0, n))
    if kind == "set":
        table[at] = rng.integers(lo, hi)
    elif kind == "row-swap":
        table[at[0], [at[1], other]] = table[at[0], [other, at[1]]]
    else:
        table[[at[0], other], at[1]] = table[[other, at[0]], at[1]]


def corrupted_table(n, arity, seed, in_range):
    """A permutative table with up to three random edits; set entries lie
    in 0..n-1, or in -1..n unless ``in_range``."""
    rng = np.random.default_rng(seed)
    table = permutative_table(n, arity, rng)
    lo, hi = (0, n) if in_range else (-1, n + 1)
    kinds = ("set", "row-swap", "column-swap") if arity == 2 else ("set",)
    for _ in range(rng.integers(0, 4)):
        edit(table, kinds[rng.integers(len(kinds))], rng, lo, hi)
    return table


def latin_fault(check, table):
    try:
        check(table)
    except (BadEntry, DuplicateInRow, DuplicateInColumn) as exc:
        return type(exc), str(exc), vars(exc)
    return None


@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_latin_witness_matches_line_scans(n, seed):
    table = corrupted_table(n, 2, seed, in_range=False)
    assert latin_fault(qg.validate_latin, table) \
        == latin_fault(oracles.latin_check, table)


@pytest.mark.parametrize("edits", [
    (), ("set",), ("row-swap",), ("column-swap",), ("row-swap", "column-swap"),
    ("column-swap", "out-of-range"),
])
def test_latin_witness_and_permutativity_match_at_order_520(edits):
    n = 520
    rng = np.random.default_rng(n)
    table = permutative_table(n, 2, rng)
    for kind in edits:
        if kind == "out-of-range":
            edit(table, "set", rng, n, n + 1)
        else:
            edit(table, kind, rng, 0, n)
    assert latin_fault(qg.validate_latin, table) \
        == latin_fault(oracles.latin_check, table)
    if table.max() < n:
        rule = ca.make_rule(n, 0, 1, table)
        assert ca.is_left_permutative(rule) \
            == oracles.left_permutative_sort(rule)
        assert ca.is_right_permutative(rule) \
            == oracles.right_permutative_sort(rule)


@given(n=st.integers(1, 6), arity=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_permutativity_matches_sort_check(n, arity, seed):
    table = corrupted_table(n, arity, seed, in_range=True)
    rule = ca.make_rule(n, 0, arity - 1, table)
    assert ca.is_left_permutative(rule) == oracles.left_permutative_sort(rule)
    assert ca.is_right_permutative(rule) \
        == oracles.right_permutative_sort(rule)


def test_dual_of_group_is_inverse_multiplication(quat):
    from qgca.groups import from_quasigroup
    g = from_quasigroup(quat)
    d = qg.dual(quat)
    for a in range(8):
        for b in range(8):
            assert d.mul(a, b) == g.mul(g.inv(a), b)


def test_dual_is_involution(d7, quat, rng):
    for q in (d7, quat,
              qg.validate_latin(random_latin_square(5, rng)),
              qg.validate_latin(random_latin_square(6, rng))):
        assert qg.dual(qg.dual(q)) == q


def test_dual_z3_frozen():
    z3 = qg.builtin("cyclic", [3])
    assert qg.dual(z3).rows == ((0, 1, 2), (2, 0, 1), (1, 2, 0))


@pytest.mark.parametrize("make", [
    lambda rng: qg.builtin("D7"),
    lambda rng: qg.validate_latin(random_latin_square(9, rng)),
    lambda rng: qg.builtin("cyclic", [600]),         # two row blocks
    lambda rng: gr.elementary_abelian_group(7, 4)],  # 23, the last of 3 rows
    ids=["D7", "latin9", "cyclic600", "z7x4"])
def test_row_inverses_match_argsort(make, rng):
    t = make(rng).table
    inv = qg.row_inverses(t)
    assert inv.dtype == t.dtype
    assert np.array_equal(inv, np.argsort(t, axis=1))


def test_first_hit_is_the_first_argwhere_row_in_any_block(rng, monkeypatch):
    """In blocks of a few hundred entries, first_hit returns the first row
    of np.argwhere(mask), whether that hit lies in the first, a middle or
    the last row block, with later hits behind it; None on an empty mask."""
    monkeypatch.setattr(qg, "BLOCK", 300)
    for _ in range(20):
        n = rng.randrange(30, 70)
        blocks = list(qg.row_blocks(n))
        assert len(blocks) >= 3
        mask = np.zeros((n, n), dtype=bool)
        assert qg.first_hit(lambda r: mask[r], n) is None
        for block in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
            mask[:] = False
            a, b = rng.choice(range(n)[block]), rng.randrange(n)
            later = [rng.randrange(a * n + b, n * n) for _ in range(4)]
            mask.flat[later] = True
            mask[a, b] = True
            assert qg.first_hit(lambda r: mask[r], n) \
                == tuple(np.argwhere(mask)[0]) == (a, b)


def test_row_solutions_are_the_columns_of_row_inverses(rng, monkeypatch):
    """row_solutions(t, v)[a] is the b with t[a, b] = v, in blocks of a few
    hundred entries as in one block."""
    squares = [qg.validate_latin(random_latin_square(n, rng)).table
               for n in (2, 5, 9, 16, 24)]
    for block in (qg.BLOCK, 200):
        monkeypatch.setattr(qg, "BLOCK", block)
        for t in squares:
            inv = qg.row_inverses(t)
            for v in range(len(t)):
                assert np.array_equal(qg.row_solutions(t, v), inv[:, v])


def test_index_dtype_edge():
    """int16 holds the indices of 2**15 symbols, not of one more."""
    assert qg.index_dtype(1) == qg.index_dtype(2 ** 15) == np.int16
    assert qg.index_dtype(2 ** 15 + 1) == np.int32
    assert np.iinfo(qg.index_dtype(ca.RULE_TABLE_BOUND)).max \
        >= ca.RULE_TABLE_BOUND - 1


@pytest.mark.parametrize("bound, fits, past", [
    (36, lambda: qg.builtin("cyclic", [6]), lambda: qg.builtin("cyclic", [7])),
    (49, lambda: qg.builtin("ledrappier", [7, 1, 2]),
     lambda: qg.builtin("ledrappier", [11, 1, 2])),
    (36, lambda: qg.builtin_from_spec("product cyclic 2 cyclic 3"),
     lambda: qg.builtin_from_spec("product cyclic 1 cyclic 7")),
    (64, lambda: gr.elementary_abelian_group(2, 3),
     lambda: gr.elementary_abelian_group(3, 2)),
], ids=["cyclic", "ledrappier", "product", "elementary_abelian_group"])
def test_builtin_tables_are_bounded_before_they_are_built(monkeypatch, bound,
                                                          fits, past):
    """N**2 entries equal to the rule-table bound fit; one symbol more (the
    next prime for ledrappier) is TableTooLarge.  The bound is read where it
    lives, when the table is asked for."""
    monkeypatch.setattr(ca, "RULE_TABLE_BOUND", bound)
    assert fits().order ** 2 == bound
    with pytest.raises(TableTooLarge) as exc:
        past()
    assert exc.value.bound == bound


def test_elementary_abelian_group_past_the_bound_allocates_nothing():
    """(Z/2)^16 has 2**32 entries: refused before any factor is built."""
    tracemalloc.start()
    try:
        with pytest.raises(TableTooLarge, match="4294967296 entries"):
            gr.elementary_abelian_group(2, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


_TABLE_MAKERS = {
    "builtin D7": lambda: qg.builtin("D7"),
    "builtin ledrappier": lambda: qg.builtin("ledrappier", [5, 2, 3]),
    "builtin quaternion": lambda: qg.builtin("quaternion"),
    "builtin cyclic": lambda: qg.builtin("cyclic", [6]),
    "builtin nonabelian21": lambda: qg.builtin("nonabelian21"),
    "builtin product": lambda: qg.builtin("product", ["cyclic 2", "D7"]),
    "validate_latin": lambda: qg.validate_latin(D7_ROWS),
    "dual": lambda: qg.dual(qg.builtin("D7")),
    "product": lambda: qg.product(qg.builtin("D7"), qg.builtin("cyclic", [3])),
    "group_product": lambda: gr.group_product(gr.cyclic_group(2),
                                              gr.quaternion_group()),
    "cyclic_group": lambda: gr.cyclic_group(5),
    "elementary_abelian_group": lambda: gr.elementary_abelian_group(3, 2),
    "groups.from_quasigroup": lambda: gr.from_quasigroup(qg.builtin("quaternion")),
    "make_rule": lambda: ca.make_rule(3, 0, 1, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    "make_rule past 2**15": lambda: ca.make_rule(2 ** 15 + 1, 0, 0,
                                                 np.arange(2 ** 15 + 1)),
    "parse_rule": lambda: ca.parse_rule("2 0 0\n0 1\n1 0\n"),
    "from_quasigroup": lambda: ca.from_quasigroup(qg.builtin("D7")),
    "recode_block": lambda: ca.recode_block(
        ca.make_rule(2, 1, 1, [a ^ c for a in (0, 1) for b in (0, 1)
                               for c in (0, 1)])).rule,
    "dual_rule": lambda: ca.dual_rule(ca.from_quasigroup(qg.builtin("D7"))),
}


@pytest.mark.parametrize("name", list(_TABLE_MAKERS))
def test_tables_are_read_only_in_the_index_dtype(name):
    made = _TABLE_MAKERS[name]()
    order = made.order if isinstance(made, qg.Quasigroup) else made.alphabet_size
    assert made.table.dtype == qg.index_dtype(order)
    assert not made.table.flags.writeable


@pytest.mark.parametrize("table", [[[0, 1], [1, 2 ** 16]],
                                   np.array([[0, 1], [1, 2 ** 32]])])
def test_make_rule_checks_entries_before_narrowing(table):
    """2**16 and 2**32 would wrap to 0 in int16 and int32."""
    with pytest.raises(ParseError, match="0..N-1"):
        ca.make_rule(2, 0, 1, table)


def test_cancellation_identities(d7, quat, rng):
    for q in (d7, quat, qg.validate_latin(random_latin_square(4, rng))):
        d = qg.dual(q)
        for a in range(q.order):
            for b in range(q.order):
                assert q.mul(a, d.mul(a, b)) == b
                assert d.mul(a, q.mul(a, b)) == b


def test_associativity(d7, quat):
    assert qg.is_associative(qg.builtin("cyclic", [7]))
    assert qg.is_associative(quat)
    assert not qg.is_associative(d7)
    w = qg.associativity_witness(d7)
    assert w == (0, 0, 2)
    a, b, c = w
    assert d7.mul(d7.mul(a, b), c) != d7.mul(a, d7.mul(b, c))


def test_associativity_witness_memory():
    """The check holds a few N^2 arrays at a time, never N^3 entries: at
    N = 128 it peaks under 10 bytes per N^2 entry, whatever the table's
    dtype (one N^3 array of int16 would be 4 MiB)."""
    q = qg.builtin("cyclic", [128])
    tracemalloc.start()
    try:
        assert qg.associativity_witness(q) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 128 ** 2


def _associativity_bruteforce(rows):
    n = len(rows)
    return next(((a, b, c) for a in range(n) for b in range(n)
                 for c in range(n)
                 if rows[rows[a][b]][c] != rows[a][rows[b][c]]), None)


def test_associativity_witness_stops_in_the_first_row_block():
    """Cyclic-1024 with columns 0 and 1 swapped fails at (0, 0, 0): the
    witness comes from the first row block of a = 0, under 1 MiB traced
    (one unblocked N^2 compare per first factor held 5 MiB)."""
    t = np.array(qg.builtin("cyclic", [1024]).table)
    t[:, [0, 1]] = t[:, [1, 0]]
    q = qg.validate_latin(t)
    tracemalloc.start()
    try:
        assert qg.associativity_witness(q) == (0, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _relabelled(q, rng):
    """q with its elements renumbered by a random permutation."""
    perm = np.array(rng.sample(range(q.order), q.order))
    t = np.empty_like(q.table)
    t[np.ix_(perm, perm)] = perm[q.table]
    return qg.validate_latin(t)


def test_associativity_witness_is_the_a_major_first_triple(rng, monkeypatch):
    """On random Latin squares, on random loops (the squares with rows and
    columns ordered so that 0 is the identity), on (Z/2)^4 with one random
    intercalate flipped (so the witness lies past the first rows), on
    groups, relabelled groups and group tables with two rows swapped, the
    witness is the first failing (a, b, c) in a-major order, in blocks of
    one row as in one block."""
    tables = [qg.builtin("quaternion"), qg.builtin("nonabelian21")]
    for n in (3, 4, 5, 6, 7, 8) * 3:
        t = np.array(random_latin_square(n, rng))
        tables.append(qg.validate_latin(t))
        t = t[:, np.argsort(t[0])]
        tables.append(qg.validate_latin(t[np.argsort(t[:, 0])]))
    xor = gr.elementary_abelian_group(2, 4).table
    for _ in range(8):
        r, c, x = rng.randrange(16), rng.randrange(16), rng.randrange(1, 16)
        t = np.array(xor)
        t[np.ix_([r, r ^ x], [c, c ^ x])] ^= x
        tables.append(qg.validate_latin(t))
    # groups relabelled, and group tables with two rows swapped
    groups = [qg.builtin(name) for name in ("quaternion", "nonabelian21")]
    groups += [qg.builtin("cyclic", [12]), gr.elementary_abelian_group(2, 3),
               qg.builtin("product", ["cyclic,2", "quaternion"])]
    for q in groups * 2:
        tables.append(_relabelled(q, rng))
        t = np.array(tables[-1].table)
        r = rng.sample(range(q.order), 2)
        t[r] = t[r[::-1]]
        tables.append(qg.validate_latin(t))
    expect = [_associativity_bruteforce(q.rows) for q in tables]
    assert expect[:2] == [None, None] and max(w[1] for w in expect if w) > 4
    assert expect[-20::2] == [None] * 10 and None not in expect[-19::2]
    assert [qg.associativity_witness(q) for q in tables] == expect
    monkeypatch.setattr(qg, "BLOCK", 1)
    assert [qg.associativity_witness(q) for q in tables] == expect


@pytest.mark.parametrize("make", [
    lambda rng: qg.builtin("cyclic", [1]),
    lambda rng: qg.builtin("cyclic", [2]),
    lambda rng: qg.builtin("cyclic", [1024]),
    lambda rng: gr.elementary_abelian_group(2, 5),
    lambda rng: gr.elementary_abelian_group(7, 4),
    lambda rng: qg.builtin("quaternion"),
    lambda rng: qg.builtin("nonabelian21"),
    lambda rng: _relabelled(qg.builtin("nonabelian21"), rng),
    lambda rng: _relabelled(gr.elementary_abelian_group(2, 6), rng),
    lambda rng: _relabelled(qg.builtin("product", ["cyclic,3", "quaternion"]),
                            rng),
], ids=["c1", "c2", "c1024", "z2^5", "z7^4", "quaternion", "nonabelian21",
        "relabelled-nonabelian21", "relabelled-z2^6", "relabelled-c3q"])
def test_light_test_compares_at_most_log2_n_plus_1_first_factors(
        make, rng, monkeypatch):
    """Each first factor compared is one first_hit scan; on a group each
    one at least doubles the subgroup the compared factors generate."""
    q = make(rng)
    calls = []
    scan = qg.first_hit
    monkeypatch.setattr(qg, "first_hit",
                        lambda *args: calls.append(1) or scan(*args))
    assert qg.associativity_witness(q) is None
    assert 1 <= len(calls) <= q.order.bit_length()


def test_group_mul_past_the_small_alphabet_builds_no_int_table():
    """g.mul on (Z/7)^4 reads a memoryview row and gives a Python int, with
    no N^2 Python ints built (5.76M of them, over 200 MB); the rows of a
    small table stay tuples of tuples, which closure and the oracles index."""
    g = gr.elementary_abelian_group(7, 4)
    tracemalloc.start()
    try:
        v = g.mul(1234, 2345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(v) is int and v == g.table[1234, 2345]
    assert peak < 2 * 2 ** 20
    rows = qg.builtin("D7").rows
    assert type(rows) is tuple and all(type(r) is tuple for r in rows)


def test_validate_latin_checks_a_table_in_its_own_dtype():
    """The (Z/7)^4 group table, int16 and read-only, is validated and kept
    without a copy: the range and Latin checks run in row blocks, under 1.5
    bytes per n^2 entry (an int64 copy alone is 8)."""
    table = gr.elementary_abelian_group(7, 4).table
    tracemalloc.start()
    try:
        q = qg.validate_latin(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2401 ** 2
    assert q.table is table


def test_validate_latin_leaves_a_writable_array_alone():
    table = np.array(D7_ROWS, dtype=np.int16)
    q = qg.validate_latin(table)
    assert table.flags.writeable and not np.shares_memory(q.table, table)
    assert q.rows == D7_ROWS


@pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int32, np.uint64])
def test_validate_latin_keeps_the_witness_in_every_dtype(dtype):
    """An out-of-range entry past the first row block is found in the
    array's own dtype, before the row and column scans."""
    n = 600                                # 436 rows per block
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    table[500, 7], table[520, 3] = n, n + 1
    table[0, 0] = table[0, 1]              # a row repeat, reported later
    first = (500, 7)
    if np.dtype(dtype).kind == "i":
        table[480, 5] = -1
        first = (480, 5)
    with pytest.raises(BadEntry) as exc:
        qg.validate_latin(table.astype(dtype))
    assert (exc.value.row, exc.value.col) == first
    assert latin_fault(qg.validate_latin, table.astype(dtype)) \
        == latin_fault(oracles.latin_check, table)


def _first_repeat_oracle(lines):
    for line, entries in enumerate(lines.tolist()):
        first = {}
        for pos, v in enumerate(entries):
            if first.setdefault(v, pos) != pos:
                return line, first[v], pos
    return None


@pytest.mark.parametrize("m, n, bad", [
    (100_000, 3, []),                   # 87,381 lines per block
    (100_000, 3, [5]),
    (100_000, 3, [90_001, 99_999]),     # past the first block
    (100_000, 3, [99_999]),             # the last line only
    (3, 2 ** 18 + 3, [1, 2]),           # one line per block
])
def test_first_repeat_blocks_keep_the_witness(m, n, bad):
    rng = np.random.default_rng(m + n)
    lines = (np.arange(n) + rng.integers(n, size=(m, 1))) % n
    for line in bad:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        lines[line, j] = lines[line, i]
    assert qg.first_repeat(lines) == _first_repeat_oracle(lines)
    assert (qg.first_repeat(lines) is None) == (not bad)


def test_bipermutativity_check_marks_hits_in_blocks():
    """Checking the (Z/7)^4 rule holds one block of hits at a time, not an
    n x n mask: its peak stays under 0.3 bytes per n^2 entry.  The rule is
    built fresh, since the result is cached on it."""
    rule = ca.from_quasigroup(gr.elementary_abelian_group(7, 4))
    n = rule.alphabet_size
    tracemalloc.start()
    try:
        assert ca.is_bipermutative(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * n ** 2


def test_subquasigroups_d7_matches_oracle(d7):
    found = qg.subquasigroups(d7)
    assert found == [(0, 1), (2, 3)]
    oracle = [s for s in closed_subsets_bitmask(d7.rows) if 1 < len(s) < 7]
    assert sorted(found) == sorted(oracle)


def test_subquasigroups_include_trivial(d7):
    full = qg.subquasigroups(d7, include_trivial=True)
    assert (0,) in full and (2,) in full
    assert tuple(range(7)) in full
    assert (0, 1) in full and (2, 3) in full
    # singletons are exactly the idempotents
    for s in full:
        if len(s) == 1:
            assert d7.mul(s[0], s[0]) == s[0]


def test_subquasigroups_prime_cyclic_empty():
    assert qg.subquasigroups(qg.builtin("cyclic", [5])) == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_subquasigroups_match_bitmask_oracle(n, rng):
    for _ in range(4):
        q = qg.validate_latin(random_latin_square(n, rng))
        found = qg.subquasigroups(q, include_trivial=True)
        oracle = sorted(closed_subsets_bitmask(q.rows),
                        key=lambda s: (len(s), s))
        assert found == oracle


@pytest.mark.parametrize("spec", ["quaternion", "cyclic 8", "cyclic 12",
                                  "product cyclic 2 cyclic 2"])
def test_subquasigroups_match_oracle_builtins(spec):
    q = qg.builtin_from_spec(spec)
    found = qg.subquasigroups(q, include_trivial=True)
    oracle = sorted(closed_subsets_bitmask(q.rows), key=lambda s: (len(s), s))
    assert found == oracle


def test_subquasigroups_of_groups_are_subgroups(quat):
    from qgca.groups import from_quasigroup
    for q in (quat, qg.builtin("cyclic", [12])):
        g = from_quasigroup(q)
        for s in qg.subquasigroups(q, include_trivial=True):
            members = set(s)
            assert g.identity in members
            assert all(g.inv(a) in members for a in members)


def test_subquasigroup_outputs_are_closed(d7, rng):
    for q in (d7, qg.validate_latin(random_latin_square(6, rng))):
        for s in qg.subquasigroups(q, include_trivial=True):
            members = set(s)
            assert all(q.mul(a, b) in members for a in members for b in members)


def test_order_bound():
    from qgca.errors import OrderTooLarge
    big = qg.builtin("product", [qg.builtin("cyclic", [9]),
                                 qg.builtin("cyclic", [9])])
    with pytest.raises(OrderTooLarge):
        qg.subquasigroups(big)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_closure_order_bound_admits_z2_to_the_6():
    """(Z/2)^6 has order CLOSURE_ORDER_BOUND and exactly the
    sum over k = 1..5 of [6 k]_2 = 2,823 proper nontrivial subgroups, each
    a subspace of F_2^6; one element more is refused."""
    from qgca.errors import OrderTooLarge
    q = gr.elementary_abelian_group(2, 6).quasigroup()
    assert q.order == qg.CLOSURE_ORDER_BOUND == 64
    expected = sum(gaussian_binomial(6, k, 2) for k in range(1, 6))
    assert expected == 2823
    found = qg.subquasigroups(q)
    assert len(found) == expected
    assert all(len(s) in (2, 4, 8, 16, 32) for s in found)
    with pytest.raises(OrderTooLarge) as exc:
        qg.subquasigroups(qg.builtin("cyclic", [qg.CLOSURE_ORDER_BOUND + 1]))
    assert (exc.value.order, exc.value.bound) == (65, 64)


@settings(max_examples=150)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_subquasigroups_of_random_latin_squares_match_bitmask_oracle(n, seed):
    q = qg.validate_latin(random_latin_square(n, random.Random(seed)))
    assert qg.subquasigroups(q, include_trivial=True) == sorted(
        closed_subsets_bitmask(q.rows), key=lambda s: (len(s), s))


_SMALL_GROUPS = ["cyclic 1", "cyclic 2", "cyclic 6", "cyclic 8", "cyclic 12",
                 "quaternion", "product cyclic 2 cyclic 2",
                 "product cyclic 2 product cyclic 2 cyclic 2",
                 "product cyclic 3 cyclic 3", "product cyclic 2 cyclic 4",
                 "product cyclic 2 cyclic 6"]


@settings(max_examples=150)
@given(spec=st.sampled_from(_SMALL_GROUPS), data=st.data())
def test_rho_invariant_subgroups_match_bitmask_oracle(spec, data):
    """Closure under the operation and one identity-fixing permutation rho
    (any permutation, not only automorphisms) against a scan of all 2^N
    subsets."""
    g = gr.from_quasigroup(qg.builtin_from_spec(spec))
    others = [a for a in range(g.order) if a != g.identity]
    rho = list(range(g.order))
    for a, b in zip(others, data.draw(st.permutations(others))):
        rho[a] = b
    oracle = oracles.subgroups_bitmask(
        g.rows, g.identity, [g.inv(a) for a in range(g.order)], rho=rho)
    assert qg.subquasigroups(g, include_trivial=True, unary=(tuple(rho),)) \
        == sorted(oracle, key=lambda s: (len(s), s))


def test_closure_from_a_closed_base_matches_closure_from_scratch(d7, quat,
                                                                 rng):
    for q in (d7, quat, qg.validate_latin(random_latin_square(6, rng))):
        for base in qg.subquasigroups(q, include_trivial=True):
            for a in range(q.order):
                assert qg.closure(q, (a,), base=base) \
                    == qg.closure(q, (a, *base))


def test_closed_sets_enumerate_each_set_once_from_few_closures(monkeypatch):
    """Fast Close-by-One closes (Z/2)^5's 374 nonempty subgroups from 1,599
    closures; a sweep joining every member with every element took 9,518.
    The count depends only on the table and the item order."""
    q = gr.elementary_abelian_group(2, 5).quasigroup()
    calls = []
    real = qg.closure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qg, "closure", counting)
    found = qg.subquasigroups(q, include_trivial=True)
    assert len(found) == len(set(found)) == 374
    assert len(calls) == 1599


def test_closed_sets_bound_and_left_out_sets():
    """Every subset of {0, 1, 2} is closed under the identity closure; the
    full set is left out by returning None, and a bound of 6 admits the six
    others while 5 is exceeded."""
    def close(x, j):
        z = set(x) | {j}
        if len(z) < 3:
            return sum(1 << a for a in z), tuple(sorted(z))

    found = qg.closed_sets(3, close, 6, "subsets")
    assert sorted(found) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    with pytest.raises(TooLarge, match="subsets exceeds 5"):
        qg.closed_sets(3, close, 5, "subsets")


def test_cyclic_builtin_memory():
    """The cyclic table is copied once from a rotating view in the index
    dtype: at order 2401 the build peaks under 2.5 bytes per n^2 entry,
    of which the int16 table holds 2."""
    n = 2401
    tracemalloc.start()
    try:
        q = qg.builtin("cyclic", [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.table.dtype == np.int16
    assert peak <= 2.5 * n ** 2
    assert q.table[1234].tolist() == [(1234 + b) % n for b in range(n)]


@pytest.mark.parametrize("name, params, formula", [
    ("cyclic", [1], lambda a, b: 0),
    ("cyclic", [9], lambda a, b: (a + b) % 9),
    ("ledrappier", [7, 3, 5], lambda a, b: (3 * a + 5 * b) % 7),
    ("ledrappier", [11, -4, 27], lambda a, b: (-4 * a + 27 * b) % 11),
])
def test_builtin_tables_match_their_formulas(name, params, formula):
    q = qg.builtin(name, params)
    n = q.order
    assert q.table.tolist() == [[formula(a, b) for b in range(n)]
                                for a in range(n)]


@pytest.mark.parametrize("left, right", [("cyclic 3", "quaternion"),
                                         ("quaternion", "cyclic 1"),
                                         ("cyclic 1", "D7"),
                                         ("D7", "product cyclic 2 cyclic 3")])
def test_product_table_packs_left_times_right_order_plus_right(left, right):
    lq, rq = qg.builtin_from_spec(left), qg.builtin_from_spec(right)
    q, nr = qg.product(lq, rq), rq.order
    assert q.table.dtype == qg.index_dtype(q.order)
    assert q.table.tolist() == [
        [lq.mul(a // nr, c // nr) * nr + rq.mul(a % nr, c % nr)
         for c in range(q.order)] for a in range(q.order)]


def test_builtin_ledrappier_xor():
    assert qg.builtin("ledrappier", [2, 1, 1]).rows == ((0, 1), (1, 0))


def test_builtin_ledrappier_rejects_bad_params():
    with pytest.raises(BadParams):
        qg.builtin("ledrappier", [4, 1, 1])      # composite modulus
    with pytest.raises(BadParams):
        qg.builtin("ledrappier", [5, 0, 2])      # zero coefficient


def test_builtin_quaternion_relations(quat):
    i, j, k = quat.index("i"), quat.index("j"), quat.index("k")
    minus_k, minus_one = quat.index("-k"), quat.index("-1")
    assert quat.mul(i, j) == k
    assert quat.mul(j, i) == minus_k
    assert quat.mul(i, i) == minus_one


def test_builtin_unknown_name():
    with pytest.raises(UnknownName):
        qg.builtin("octonion")


def test_builtin_product_and_spec():
    q = qg.builtin_from_spec("product cyclic 2 quaternion")
    assert q.order == 16
    assert q.symbols[0] == "(0,1)"
    # packing: (a1, b1) * (a2, b2) with combined index a * 8 + b
    quat = qg.builtin("quaternion")
    for a1, b1, a2, b2 in [(0, 2, 1, 4), (1, 7, 1, 3)]:
        lhs = q.mul(a1 * 8 + b1, a2 * 8 + b2)
        assert lhs == ((a1 + a2) % 2) * 8 + quat.mul(b1, b2)


def test_builtin_spec_errors():
    with pytest.raises(BadParams):
        qg.builtin_from_spec("product cyclic 2")
    with pytest.raises(BadParams):
        qg.builtin_from_spec("cyclic 2 3")
    with pytest.raises(UnknownName):
        qg.builtin_from_spec("frobnicate")


@pytest.mark.parametrize("make, error, text", [
    (lambda: qg.builtin("D7", [1]), BadParams,
     "D7 takes 0 parameter(s), got 1"),
    (lambda: qg.builtin("product", ["D7"]), BadParams,
     "product takes 2 parameter(s), got 1"),
    (lambda: qg.builtin("bogus"), UnknownName, "unknown builtin name 'bogus'"),
    (lambda: qg.builtin_from_spec("cyclic"), BadParams,
     "cyclic needs 1 parameter(s) in 'cyclic'"),
    (lambda: qg.builtin_from_spec("ledrappier 5 1"), BadParams,
     "ledrappier needs 3 parameter(s) in 'ledrappier 5 1'"),
    (lambda: qg.builtin_from_spec("product cyclic 2"), BadParams,
     "truncated builtin spec 'product cyclic 2'"),
    (lambda: qg.builtin_from_spec("cyclic 2 3"), BadParams,
     "trailing tokens in builtin spec 'cyclic 2 3'"),
    (lambda: qg.builtin_from_spec("product bogus D7"), UnknownName,
     "unknown builtin name 'bogus'"),
])
def test_builtin_error_texts(make, error, text):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == text


def test_nonabelian21_is_a_nonabelian_group():
    from qgca.groups import from_quasigroup
    q = qg.builtin("nonabelian21")
    g = from_quasigroup(q)
    assert g.order == 21 and not g.abelian


def test_table_roundtrip(d7, quat):
    for q in (d7, quat):
        text = qg.format_table(q)
        again = qg.parse_table(text)
        assert again == q
        assert qg.format_table(again) == text


def test_parse_rejects_unknown_names():
    text = "2 a b\na b\nb c\n"
    with pytest.raises(ParseError):
        qg.parse_table(text)


def test_parse_rejects_wrong_row_count():
    with pytest.raises(ParseError):
        qg.parse_table("2 a b\na b\n")


def test_word_and_names_roundtrip(d7):
    w = d7.word("a1 b2 c3")
    assert w == (0, 3, 6)
    assert d7.names(w) == "a1 b2 c3"
    with pytest.raises(ParseError):
        d7.word("a1 nope")


def test_table_is_readonly(d7):
    with pytest.raises(ValueError):
        d7.table[0, 0] = 3
    assert isinstance(d7.table, np.ndarray)


# ---------------------------------------------------------------------------
# base-p digit codec and primality

def _is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_is_exact_below_the_test_bound():
    """Miller-Rabin on the first 13 primes against trial division, then on
    strong pseudoprimes to the first 4, 11 and 12 of those bases (561, a
    Carmichael number, is one to none of them), on the Mersenne prime
    2**61 - 1 and at the bound."""
    assert [n for n in range(20001) if qg.is_prime(n)] == \
        [n for n in range(20001) if _is_prime_by_trial_division(n)]
    for n in (561, 3_215_031_751, 3_825_123_056_546_413_051,
              318_665_857_834_031_151_167_461):
        assert not qg.is_prime(n)
    assert qg.is_prime(2 ** 61 - 1)
    with pytest.raises(TooLarge, match=f"bound {qg.PRIME_TEST_BOUND}$"):
        qg.is_prime(qg.PRIME_TEST_BOUND)


@settings(max_examples=60, deadline=None)
@given(base=st.integers(2, 9), width=st.integers(1, 4), data=st.data())
def test_digit_codec_roundtrip(base, width, data):
    from qgca.automaton import BlockRecoding, make_rule

    n = base ** width
    value = data.draw(st.integers(0, n - 1))
    digits = qg.unpack_digits(base, width, value)
    assert len(digits) == width and all(0 <= d < base for d in digits)
    assert qg.pack_digits(base, digits) == value
    # the array form agrees with the scalar form at every value
    columns = qg.unpack_digits(base, width, np.arange(n))
    assert [tuple(row) for row in zip(*(c.tolist() for c in columns))] == \
        [qg.unpack_digits(base, width, v) for v in range(n)]
    assert np.array_equal(qg.pack_digits(base, columns), np.arange(n))
    # block recoding packs and unpacks blocks with the same codec
    rec = BlockRecoding(make_rule(2, 0, 1, [[0, 1], [1, 0]]), width, base)
    assert rec.unpack(value) == digits and rec.pack(digits) == value
