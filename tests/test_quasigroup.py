import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgca import automaton as ca
from qgca import quasigroup as qg
from qgca.errors import (BadEntry, BadParams, DuplicateInColumn,
                         DuplicateInRow, ParseError, UnknownName)
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
    """The check holds a few N^2 table entries at a time, never N^3."""
    q = qg.builtin("cyclic", [128])
    tracemalloc.start()
    try:
        assert qg.associativity_witness(q) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * q.order ** 2 * q.table.itemsize


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
# base-p digit codec

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
