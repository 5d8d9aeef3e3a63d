import random
import tracemalloc

import numpy as np
import pytest

from qgca import automaton as ca
from qgca import quasigroup as qg
from qgca.errors import (NotBipermutative, ParseError, PeriodTooLarge,
                         WordTooShort)
from qgca.suite import random_bipermutative_rule, random_word

from oracles import recode_table, xi_table_bruteforce


def rule_of(name, params=()):
    return ca.from_quasigroup(qg.builtin(name, params))


def test_step_xor(xor_rule):
    assert ca.step(xor_rule, (0, 1, 1, 0)) == (1, 0, 1)


def test_step_quaternion(quat):
    rule = ca.from_quasigroup(quat)
    w = quat.word("i j k i j k")
    assert quat.names(ca.step(rule, w)) == "k i j k i"


def test_step_constant_word_over_idempotent(d7):
    rule = ca.from_quasigroup(d7)
    assert d7.mul(0, 0) == 0
    assert ca.step(rule, (0, 0, 0, 0)) == (0, 0, 0)


def test_step_word_too_short(xor_rule):
    with pytest.raises(WordTooShort):
        ca.step(xor_rule, (1,))


def test_permutativity_ledrappier():
    rule = rule_of("ledrappier", [5, 2, 3])
    assert ca.is_left_permutative(rule)
    assert ca.is_right_permutative(rule)


def test_permutativity_projection_rule():
    rule = ca.make_rule(2, 0, 1, [[0, 0], [1, 1]])   # phi(a, b) = a
    assert ca.is_left_permutative(rule)
    assert not ca.is_right_permutative(rule)


def test_rnnca_bipermutative_iff_latin(rng):
    from qgca.suite import random_latin_square
    for n in (2, 3, 4):
        latin = random_latin_square(n, rng)
        assert ca.is_bipermutative(ca.make_rule(n, 0, 1, latin))
    not_latin = ca.make_rule(3, 0, 1, [[0, 1, 2], [1, 2, 0], [0, 1, 2]])
    assert not ca.is_bipermutative(not_latin)
    with pytest.raises(Exception):
        qg.validate_latin([[0, 1, 2], [1, 2, 0], [0, 1, 2]])


# ---------------------------------------------------------------------------
# block recoding

def wide_xor_rule():
    # phi(a, b, c) = a xor c, left radius 1, right radius 1
    table = [[[a ^ c for c in range(2)] for _ in range(2)] for a in range(2)]
    return ca.make_rule(2, 1, 1, table)


def test_recode_identity_for_rnnca(xor_rule):
    rec = ca.recode_block(xor_rule)
    assert rec.rule == xor_rule
    assert rec.block == 1


def test_recode_wide_xor_conjugacy(rng):
    rule = wide_xor_rule()
    rec = ca.recode_block(rule)
    assert rec.rule.alphabet_size == 4
    assert rec.rule.is_rnnca
    for _ in range(100):
        w = random_word(2, 16, rng)
        assert rec.encode(ca.step(rule, w)) == ca.step(rec.rule, rec.encode(w))
        assert rec.decode(rec.encode(w)) == w


def test_recode_preserves_bipermutativity(rng):
    rule = wide_xor_rule()
    assert ca.is_bipermutative(rule)
    assert ca.is_bipermutative(ca.recode_block(rule).rule)
    # middle-projection rule is not left-permutative and stays that way
    table = [[[b for _ in range(2)] for b in range(2)] for _ in range(2)]
    proj = ca.make_rule(2, 1, 1, table)
    assert not ca.is_bipermutative(proj)
    assert not ca.is_bipermutative(ca.recode_block(proj).rule)


def test_bipermutativity_is_checked_once_per_rule(monkeypatch, d7):
    calls = []
    real = ca.is_left_permutative
    monkeypatch.setattr(ca, "is_left_permutative",
                        lambda rule: calls.append(rule) or real(rule))
    rule = ca.from_quasigroup(d7)
    for _ in range(100):
        ca.fiber_preimages(rule, (0, 1, 2))
    assert ca.is_bipermutative(rule)
    assert len(calls) == 1


@pytest.mark.parametrize("n, arity", [(2, 3), (3, 3), (2, 4), (3, 4),
                                      (2, 5), (2, 6)])
def test_recode_table_matches_the_stepped_pairs(n, arity):
    """Every split of the radius, on random rules: the recoded table equals
    the per-pair steps of the oracle, bytes and dtype."""
    rng = random.Random(n * 10 + arity)
    for left in range(arity):
        table = [rng.randrange(n) for _ in range(n ** arity)]
        rule = ca.make_rule(n, left, arity - 1 - left, table)
        got = ca.recode_block(rule).rule.table
        big = n ** (arity - 1)
        assert got.dtype == qg.index_dtype(big)
        assert got.tobytes() == recode_table(rule).astype(got.dtype).tobytes()


def test_recode_table_peaks_at_two_tables():
    """A 1024-symbol recoding is built in place: its peak is the table and
    one image symbol's read, under 2.5 times the table's bytes."""
    rng = np.random.default_rng(11)
    rule = ca.make_rule(2, 4, 6, rng.integers(0, 2, 2 ** 11))
    tracemalloc.start()
    try:
        rec = ca.recode_block(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.rule.alphabet_size == 1024
    assert peak <= 2.5 * rec.rule.table.nbytes


def test_recode_needs_width():
    rule = ca.make_rule(2, 0, 0, [0, 1])
    with pytest.raises(ParseError):
        ca.recode_block(rule)


# ---------------------------------------------------------------------------
# periodic orbits

def test_orbit_quaternion(quat):
    rule = ca.from_quasigroup(quat)
    assert ca.orbit_period(rule, quat.word("i j k")) == (0, 3)


def test_orbit_xor_fixed_point(xor_rule):
    assert ca.orbit_period(xor_rule, (0,)) == (0, 1)


def test_orbit_xor_01_frozen(xor_rule):
    # direct iteration: 01 -> 11 -> 00 -> 00
    assert ca.orbit_period(xor_rule, (0, 1)) == (2, 1)


def test_orbit_bound(xor_rule):
    with pytest.raises(PeriodTooLarge):
        ca.orbit_period(xor_rule, tuple(0 for _ in range(25)))


# ---------------------------------------------------------------------------
# fibers and tau

def test_fiber_xor_frozen(xor_rule):
    assert ca.fiber_preimages(xor_rule, (1, 0)) == [(0, 1, 1), (1, 0, 0)]


def test_fiber_group_rule_single_symbol(quat):
    from qgca.groups import from_quasigroup as to_group
    g = to_group(quat)
    rule = ca.from_quasigroup(quat)
    for target in range(8):
        fibers = ca.fiber_preimages(rule, (target,))
        for b in range(8):
            assert fibers[b] == (b, g.mul(g.inv(b), target))


def test_fiber_properties_random(rng):
    for _ in range(10):
        n = rng.randrange(2, 7)
        rule = random_bipermutative_rule(n, rng)
        w = random_word(n, rng.randrange(2, 15), rng)
        fibers = ca.fiber_preimages(rule, w)
        assert len(set(fibers)) == n
        assert all(f[0] == b for b, f in enumerate(fibers))
        assert all(ca.step(rule, f) == w for f in fibers)


def test_solver_reads_the_numpy_table_past_the_small_alphabet(rng, monkeypatch):
    """Past _SMALL_ALPHABET the right-cancellation solver reads the numpy
    table; fibers and xi_inverse come out as from the python-int rows."""
    for _ in range(5):
        n = rng.randrange(2, 7)
        table = random_bipermutative_rule(n, rng).table
        small, large = (ca.make_rule(n, 0, 1, table) for _ in range(2))
        w = random_word(n, rng.randrange(1, 10), rng)
        expect = (ca.fiber_preimages(small, w), ca.xi_inverse(small, w))
        with monkeypatch.context() as m:
            m.setattr(qg, "_SMALL_ALPHABET", 1)
            assert (ca.fiber_preimages(large, w), ca.xi_inverse(large, w)) == expect


def _word_dynamics(rule, w):
    return (ca.fiber_preimages(rule, w),
            [ca.xi(rule, w), ca.xi_inverse(rule, w), ca.tau(rule, w)])


def _python_ints(results):
    return all(type(v) is int for words in results for word in words
               for v in word)


def test_word_dynamics_give_python_ints_on_both_sides_of_the_small_alphabet(
        rng, monkeypatch):
    """fiber_preimages, xi, xi_inverse and tau give the same words from the
    python-int rows and, past _SMALL_ALPHABET, from the numpy rows, and
    every symbol of every word is a Python int, not a numpy scalar."""
    for _ in range(5):
        n = rng.randrange(2, 7)
        table = random_bipermutative_rule(n, rng).table
        small, large = (ca.make_rule(n, 0, 1, table) for _ in range(2))
        w = random_word(n, rng.randrange(2, 10), rng)
        expect = _word_dynamics(small, w)
        with monkeypatch.context() as m:
            m.setattr(qg, "_SMALL_ALPHABET", 1)
            got = _word_dynamics(large, w)
        assert type(small.solve[0]) is tuple
        assert type(large.solve[0]) is not tuple
        assert got == expect
        assert _python_ints(expect) and _python_ints(got)


def test_word_dynamics_on_the_z7x4_alphabet_give_python_ints():
    """The 2401-symbol rule is past _SMALL_ALPHABET: its words still come
    out as Python ints, xi_inverse undoes xi, and tau moves along a fiber."""
    from qgca.fixtures import _z7x4
    _, rule = _z7x4()
    assert rule.alphabet_size > qg._SMALL_ALPHABET
    w = (5, 2400, 17, 0, 1234)
    fibers, (x, back, moved) = results = _word_dynamics(rule, w)
    assert _python_ints(results)
    assert ca.xi_inverse(rule, x) == w and ca.xi(rule, back) == w
    assert moved[0] == 6 and ca.step(rule, moved) == ca.step(rule, w)
    assert all(f[0] == b and ca.step(rule, f) == w
               for b, f in enumerate(fibers))


def test_fiber_requires_bipermutativity():
    rule = ca.make_rule(2, 0, 1, [[0, 0], [1, 1]])
    with pytest.raises(NotBipermutative):
        ca.fiber_preimages(rule, (0, 1))


def test_solver_needs_a_bipermutative_rule():
    """phi(a, b) = b has permutation rows but is not left permutative."""
    rule = ca.make_rule(2, 0, 1, [[0, 1], [0, 1]])
    assert ca.is_right_permutative(rule)
    with pytest.raises(NotBipermutative, match="right-cancellation"):
        rule.solve


def test_tau_xor_frozen(xor_rule):
    assert ca.tau(xor_rule, (0, 1, 1)) == (1, 0, 0)


def test_tau_cycles_and_preserves_step(rng):
    for _ in range(10):
        n = rng.randrange(2, 7)
        rule = random_bipermutative_rule(n, rng)
        x = random_word(n, rng.randrange(2, 12), rng)
        assert ca.step(rule, ca.tau(rule, x)) == ca.step(rule, x)
        y = x
        for _ in range(n):
            y = ca.tau(rule, y)
        assert y == x


def test_tau_word_too_short(xor_rule):
    with pytest.raises(WordTooShort):
        ca.tau(xor_rule, (1,))


# ---------------------------------------------------------------------------
# xi and duality

def test_xi_xor_frozen(xor_rule):
    assert ca.xi(xor_rule, (0, 1, 1, 0)) == (0, 1, 1, 0)


def test_xi_first_symbol(rng):
    for _ in range(5):
        n = rng.randrange(2, 7)
        rule = random_bipermutative_rule(n, rng)
        w = random_word(n, rng.randrange(1, 10), rng)
        assert ca.xi(rule, w)[0] == w[0]
        assert len(ca.xi(rule, w)) == len(w)


def test_xi_group_telescoping(quat):
    from qgca.groups import from_quasigroup as to_group
    g = to_group(quat)
    rule = ca.from_quasigroup(quat)
    a = quat.word("i j -k j i")
    b = ca.xi(rule, a)
    lifted = ca.xi(rule, (g.identity,) + a)
    expect = [g.identity]
    acc = g.identity
    for s in b:
        acc = g.mul(acc, s)
        expect.append(acc)
    assert lifted == tuple(expect)


def test_xi_inverse_roundtrip(rng):
    for _ in range(10):
        n = rng.randrange(2, 8)
        rule = random_bipermutative_rule(n, rng)
        w = random_word(n, rng.randrange(1, 14), rng)
        assert ca.xi_inverse(rule, ca.xi(rule, w)) == w


def test_xi_inverse_against_bruteforce(xor_rule):
    table = xi_table_bruteforce(xor_rule, 4)
    for image, word in table.items():
        assert ca.xi_inverse(xor_rule, image) == word
    assert ca.xi_inverse(xor_rule, (0, 1, 1, 0)) == table[(0, 1, 1, 0)]


def test_xi_inverse_length_one(xor_rule):
    assert ca.xi_inverse(xor_rule, (1,)) == (1,)


def test_dual_rule_group(quat):
    from qgca.groups import from_quasigroup as to_group
    g = to_group(quat)
    rule = ca.from_quasigroup(quat)
    d = ca.dual_rule(rule)
    for a in range(8):
        for b in range(8):
            assert d.apply(a, b) == g.mul(g.inv(a), b)


def test_dual_rule_involution(d7, rng):
    for q in (d7, qg.builtin("quaternion")):
        rule = ca.from_quasigroup(q)
        assert ca.dual_rule(ca.dual_rule(rule)) == rule


def test_conjugacy_relations(d7, quat, rng):
    for table in (d7, quat):
        rule = ca.from_quasigroup(table)
        dual = ca.dual_rule(rule)
        for _ in range(40):
            w = random_word(table.order, rng.randrange(2, 13), rng)
            # xi conjugates the rule to the shift
            assert ca.xi(rule, ca.step(rule, w)) == ca.xi(rule, w)[1:]
            # and the shift to the dual rule
            assert ca.step(dual, ca.xi(rule, w)) == ca.xi(rule, w[1:])


# ---------------------------------------------------------------------------
# rule files

def test_rule_file_roundtrip(xor_rule):
    text = ca.format_rule(xor_rule)
    again = ca.parse_rule(text)
    assert again == xor_rule
    assert ca.format_rule(again) == text


def test_rule_file_wide_roundtrip():
    rule = wide_xor_rule()
    assert ca.parse_rule(ca.format_rule(rule)) == rule


def test_rule_file_quasigroup_reference(tmp_path, d7):
    (tmp_path / "d7.table").write_text(qg.format_table(d7))
    (tmp_path / "d7.rule").write_text("quasigroup d7.table\n")
    rule = ca.load_rule(tmp_path / "d7.rule")
    assert rule == ca.from_quasigroup(d7)


def test_rule_file_errors():
    with pytest.raises(ParseError):
        ca.parse_rule("")
    with pytest.raises(ParseError):
        ca.parse_rule("2 0\n")
    with pytest.raises(ParseError):
        ca.parse_rule("2 0 1\n0 0 0\n0 1 1\n1 0 1\n1 0 0\n")  # duplicate
    with pytest.raises(ParseError):
        ca.parse_rule("2 0 1\n0 0 0\n")                        # missing rows


@pytest.mark.parametrize("text, message", [
    ("2 0 x\n", 'rule header must be "N l r" with integers'),
    ("0 0 1\n", "need N >= 1, l >= 0, r >= 0"),
    ("2 0 1\n0 0 0\n0 1\n1 0 1\n1 1 0\n", "bad neighbourhood line '0 1'"),
    ("2 0 1\n0 0 0\n0 1 x\n1 0 1\n1 1 0\n",
     "bad neighbourhood line '0 1 x'"),
    ("2 0 1\n0 0 0\n0 2 1\n1 0 1\n1 1 0\n",
     "indices out of range in '0 2 1'"),
    ("quasigroup a.table b.table\n", "quasigroup line takes one path"),
])
def test_rule_file_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        ca.parse_rule(text)
    assert str(exc.value) == message
