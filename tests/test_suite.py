"""The paper-suite's seeded generators and the criterion-8 fiber check.

The generators are pinned to the streams of their earlier forms, so every
seeded suite row stays the same; the fiber check is run against mutants
of ``fiber_preimages`` that it has to reject.
"""
import inspect
import random
import sys

import pytest

from qgca import automaton as ca
from qgca import suite
from qgca.suite import random_latin_square, random_word

from oracles import latin_square_recursive


def test_random_word_draws_what_randrange_draws():
    """Each word and the generator state after it equal those of
    randrange(n) drawn length times, for n = 1..64 (1 and the powers of
    two among them) and lengths 0..12."""
    for n in range(1, 65):
        fast, slow = random.Random(n), random.Random(n)
        for length in range(13):
            assert random_word(n, length, fast) == tuple(
                slow.randrange(n) for _ in range(length))
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", [0, -1, -64])
def test_random_word_over_no_symbols_raises_like_randrange(n):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError):
        rng.randrange(n)
    with pytest.raises(ValueError):
        random_word(n, 3, rng)
    assert rng.getstate() == state
    assert random_word(n, 0, rng) == ()


def test_random_latin_square_matches_the_recursive_backtracking():
    """The explicit stack makes the recursion's shuffles in its order: the
    same squares and the same generator state after them."""
    for seed in range(20):
        fast, slow = random.Random(seed), random.Random(seed)
        for n in range(15):
            assert random_latin_square(n, fast) == latin_square_recursive(n, slow)
            assert fast.getstate() == slow.getstate()


def test_random_latin_square_needs_no_frame_per_cell():
    """Under a recursion limit 60 frames above the caller's depth, the
    recursive form fails on an order-10 square (100 cells) and the stack
    draws it."""
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        with pytest.raises(RecursionError):
            latin_square_recursive(10, random.Random(0))
        rows = random_latin_square(10, random.Random(0))
    finally:
        sys.setrecursionlimit(limit)
    assert rows == latin_square_recursive(10, random.Random(0))


def _long_and_short(rule, w, fibers):
    """The first preimage one symbol too long and the second one too short,
    so that the images of all of them, read flat, are still w n times."""
    first, second = fibers[0], fibers[1]
    return [first + (rule.solve[first[-1]][w[0]],), second[1:], *fibers[2:]]


def _one_symbol_changed(rule, w, fibers):
    first = fibers[0]
    return [first[:-1] + ((first[-1] + 1) % rule.alphabet_size,), *fibers[1:]]


_MUTANTS = {
    "long-and-short": _long_and_short,
    "one-symbol-changed": _one_symbol_changed,
    "one-missing": lambda rule, w, fibers: fibers[:-1],
    "one-duplicated": lambda rule, w, fibers: [*fibers[:-1], fibers[0]],
    "one-duplicated-extra": lambda rule, w, fibers: [*fibers, fibers[0]],
}


@pytest.mark.parametrize("mutant", _MUTANTS.values(), ids=_MUTANTS)
def test_criterion_8_fails_on_a_mutant_fiber(monkeypatch, mutant):
    real = ca.fiber_preimages
    monkeypatch.setattr(ca, "fiber_preimages",
                        lambda rule, w: mutant(rule, w, real(rule, w)))
    [row] = suite.criterion_8(None, 0)
    assert row.status == "FAIL"


def test_the_long_and_short_mutant_cancels_in_flat_images():
    """Without the per-preimage length check the long-and-short mutant
    would pass: n distinct preimages whose flat images are w n times."""
    rng = random.Random(3)
    rule = suite.random_bipermutative_rule(5, rng)
    rows = rule._pair_rows
    w = random_word(5, 6, rng)
    fibers = _long_and_short(rule, w, ca.fiber_preimages(rule, w))
    assert len(set(fibers)) == 5
    assert [rows[a][b] for f in fibers for a, b in zip(f, f[1:])] == list(w) * 5


def test_criterion_3_checks_every_rule_to_the_asked_depth(monkeypatch):
    """Only the enumeration bound stops a rule: at depth 6 the quaternion
    rule (8**6 words) is checked, at every depth 1..6."""
    seen = []
    real = suite.mu.invariance_report

    def spy(m, depth, rule=None):
        seen.append((rule.alphabet_size, depth))
        return real(m, depth, rule)
    monkeypatch.setattr(suite.mu, "invariance_report", spy)
    [row] = suite.criterion_3(6)
    assert row.status == "PASS"
    assert [(8, d) for d in range(1, 7)] == [s for s in seen if s[0] == 8]
    assert len(seen) == 27 * 6


def test_criterion_3_past_the_bound_is_a_fail_row():
    rows = [r for r in suite.paper_suite(7) if r.criterion == 3]
    assert rows == [suite.SuiteRow(
        3, "criterion-3", "FAIL",
        "DepthTooLarge: 8^7 cylinder words exceed bound 1048576")]
