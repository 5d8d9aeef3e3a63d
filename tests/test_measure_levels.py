"""The level-array measure engine against the recursive per-word oracle.

Every report is compared field by field, with floats compared bit for bit,
on random measures of every kind (including nested pushforwards and a
subclass that only implements ``_eval``), on the suite's own measures and
rules, and on a measure whose denominators overflow int64.
"""
import dataclasses
import random
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgca import automaton as ca
from qgca import cli
from qgca import measure as mu
from qgca import quasigroup as qg
from qgca import suite
from qgca.errors import BadParams, NotASubgroup, QgcaError
from qgca.groups import (cyclic_group, elementary_abelian_group,
                         group_product, quaternion_group)
from qgca.suite import random_bipermutative_rule


def key(x):
    """A comparable form of a result: dataclasses by field, floats by bits."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if dataclasses.is_dataclass(x):
        return {k: key(v) for k, v in vars(x).items()}
    if isinstance(x, (list, tuple)):
        return [key(v) for v in x]
    return x


def outcome(fn, *args):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return key(fn(*args))
    except QgcaError as exc:
        return type(exc), str(exc)


class Relabelled(mu.CylinderMeasure):
    """A measure with only ``_eval``: ``inner`` with symbol s read as perm[s]."""

    def __init__(self, inner, perm):
        super().__init__(inner.alphabet_size)
        self.inner, self.perm = inner, tuple(perm)

    def _eval(self, word):
        return self.inner.eval(tuple(self.perm[s] for s in word))


@st.composite
def distributions(draw, n, least=0):
    weights = draw(st.lists(st.integers(least, 3), min_size=n, max_size=n)
                   .filter(any))
    return [F(w, sum(weights)) for w in weights]


@st.composite
def rules(draw, n):
    return random_bipermutative_rule(n, random.Random(draw(st.integers(0, 99))))


@st.composite
def base_measures(draw, n):
    kinds = ["uniform", "bernoulli", "positive", "markov", "orbit",
             "relabelled"]
    kind = draw(st.sampled_from(kinds + ["product"] if n == 4 else kinds))
    if kind == "uniform":
        return mu.UniformMeasure(n)
    if kind in ("bernoulli", "positive"):
        # "positive" has full support, so each chunk of its levels is a
        # run of whole slices, imaged by row broadcast
        return mu.BernoulliMeasure(draw(distributions(
            n, least=int(kind == "positive"))))
    if kind == "markov":
        return mu.MarkovMeasure(draw(distributions(n)),
                                [draw(distributions(n)) for _ in range(n)])
    if kind == "orbit":
        return mu.OrbitMeasure(n, draw(st.lists(st.integers(0, n - 1),
                                                min_size=1, max_size=4)))
    if kind == "product":
        # the product with symbol s read as the pair pairing[s], whose own
        # symbol is a * 2 + b; the identity pairing keeps the product's
        # sliced levels under test
        pairing = draw(st.permutations([(a, b) for a in range(2)
                                        for b in range(2)]))
        product = mu.ProductMeasure(draw(base_measures(2)),
                                    draw(base_measures(2)))
        perm = [a * 2 + b for a, b in pairing]
        return product if perm == sorted(perm) else Relabelled(product, perm)
    return Relabelled(draw(base_measures(n)), draw(st.permutations(range(n))))


@st.composite
def measures(draw, n):
    """A base measure under zero to two CA or shift pushforwards."""
    m = draw(base_measures(n))
    for _ in range(draw(st.integers(0, 2))):
        m = mu.pushforward_shift(m) if draw(st.booleans()) \
            else mu.pushforward_ca(m, draw(rules(n)))
    return m


floors = st.sampled_from([F(0), F(1, 50), F(1, 9), F(1, 3), F(2)])


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(2, 5), depth=st.integers(0, 3))
def test_invariance_words_support_entropy_match_oracle(data, n, depth):
    m = data.draw(measures(n))
    rule = data.draw(st.none() | rules(n))
    assert outcome(mu.invariance_report, m, depth, rule) \
        == outcome(oracles.invariance_report, m, depth, rule)
    assert list(m.positive_words(depth)) \
        == list(oracles.positive_words(m, depth))
    assert outcome(mu.support_alphabet, m, depth) \
        == outcome(oracles.support_alphabet, m, depth)
    assert outcome(mu.block_entropy, m, depth) \
        == outcome(oracles.block_entropy, m, depth)
    assert outcome(mu.entropy_rate_profile, m, depth + 1) \
        == outcome(oracles.entropy_rate_profile, m, depth + 1)


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(2, 5), depth=st.integers(0, 2),
       floor=floors)
def test_fiber_spectrum_matches_oracle(data, n, depth, floor):
    m, rule = data.draw(measures(n)), data.draw(rules(n))
    assert outcome(mu.fiber_spectrum, m, rule, depth, floor) \
        == outcome(oracles.fiber_spectrum, m, rule, depth, floor)


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(2, 3), depth=st.integers(1, 3),
       words=st.sampled_from(["same", "as many", "any"]))
def test_max_deviation_matches_a_per_word_comparison(data, n, depth, words):
    """Two levels with the same words, as many words or any others, over
    any two denominators, against the masses compared word by word; the
    worst word is the first one reaching the maximum."""
    def level(codes):
        den = data.draw(st.integers(1, 12))
        nums = data.draw(st.lists(st.integers(1, den), min_size=len(codes),
                                  max_size=len(codes)))
        return mu.Level(n, depth, np.array(codes, dtype=np.int64),
                        np.array(nums, dtype=np.int64), den)

    def codes(count=None):
        return sorted(data.draw(st.sets(st.integers(0, n ** depth - 1),
                                        min_size=count or 1,
                                        max_size=count)))

    a = level(codes())
    b = level(a.codes.tolist() if words == "same" else
              codes(len(a.codes) if words == "as many" else None))
    masses = [{c: F(v, lv.den) for c, v in zip(lv.codes.tolist(),
                                                lv.nums.tolist())}
              for lv in (a, b)]
    devs = {c: abs(masses[0].get(c, 0) - masses[1].get(c, 0))
            for c in masses[0].keys() | masses[1].keys()}
    best = max(devs.values())
    worst = min(c for c, d in devs.items() if d == best)
    assert mu._max_deviation(a, b) == (
        best, None if best == 0 else
        tuple(worst // n ** k % n for k in range(depth - 1, -1, -1)))


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(2, 5), depth=st.integers(0, 3),
       floor=floors)
def test_coset_check_matches_oracle(data, n, depth, floor):
    g = cyclic_group(n) if n != 4 or data.draw(st.booleans()) \
        else group_product(cyclic_group(2), cyclic_group(2))
    m = data.draw(measures(n))
    subgroups = qg.subquasigroups(g.quasigroup(), include_trivial=True)
    members = data.draw(st.sampled_from(subgroups)
                        | st.sets(st.integers(0, n - 1)))
    assert outcome(mu.coset_measure_check, m, g, members, depth, floor) \
        == outcome(oracles.coset_measure_check, m, g, members, depth, floor)


def test_coset_check_matches_oracle_on_chosen_measures(capsys, tmp_path):
    c2 = cyclic_group(2)
    e11 = (mu.example11(c2), group_product(c2, quaternion_group()), [0, 8])
    # conditional (1/2, 1/2) after 0 but (1/4, 3/4) after 1
    late = (mu.MarkovMeasure([F(1, 3), F(2, 3)],
                             [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]), c2, [0, 1])
    # after 0 the conditional is (1/2, 3/4): the lighter weight is right
    heavy = (mu.MarkovMeasure([F(1, 2), F(1, 2)],
                              [[F(1, 2), F(1, 2)], [F(3, 4), F(1, 4)]]), c2, [0, 1])
    # only 0 precedes 0, with weight 1/2: part of a coset
    part = (mu.MarkovMeasure([F(1), F(0)], [[F(1, 2), F(1, 2)]] * 2), c2, [0, 1])
    for m, g, members in (e11, late, heavy, part):
        for floor in (F(0), F(1, 40)):
            assert outcome(mu.coset_measure_check, m, g, members, 3, floor) \
                == outcome(oracles.coset_measure_check, m, g, members, 3, floor)
    assert mu.coset_measure_check(*e11, 3).passed
    rep = mu.coset_measure_check(*late, 1)
    assert (rep.words_checked, rep.worst_word, rep.worst_reason) \
        == (2, (1,), "weight at 0 is 1/4, expected 1/2")
    assert mu.coset_measure_check(*heavy, 1).worst_reason \
        == "weight at 1 is 3/4, expected 1/2"
    assert mu.coset_measure_check(*part, 1).worst_reason \
        == "support [0] is not the coset [0, 1]"
    # nothing precedes 0 with positive mass: a failure, not an IndexError
    # (the oracle, like the recursive engine it keeps, still raises one)
    empty = (mu.MarkovMeasure([F(1), F(0)], [[F(0), F(1)], [F(0), F(1)]]),
             c2, [0])
    rep = mu.coset_measure_check(*empty, 1)
    assert (rep.passed, rep.words_checked, rep.worst_word, rep.worst_reason) \
        == (False, 1, (0,), "no predecessor has positive mass")
    path = tmp_path / "empty.measure"
    path.write_text("kind=markov\ninitial=1 0\ntransition=0 1 ; 0 1\n")
    assert cli.main(["mu", "cmeasure", str(path), "@cyclic,2",
                     "--subgroup", "0", "--depth", "1"]) == 1
    assert "reason=no predecessor has positive mass" in capsys.readouterr().out


@pytest.mark.parametrize("criterion, depth", [(3, 3), (4, 4), (8, None)])
def test_suite_measure_calls_match_oracle(monkeypatch, criterion, depth):
    """Run a measure criterion with every sweep it makes also run by the
    oracle, on the suite's own measures and rules."""
    checked = []
    for name in ("invariance_report", "fiber_spectrum", "coset_measure_check",
                 "support_alphabet", "entropy_rate_profile"):
        def both(*args, _new=getattr(mu, name), _old=getattr(oracles, name),
                 _name=name):
            got = _new(*args)
            assert key(got) == key(_old(*args)), (_name, args)
            checked.append(_name)
            return got
        monkeypatch.setattr(mu, name, both)
    rows = getattr(suite, f"criterion_{criterion}")(depth, 0)
    assert checked and all(r.status == "PASS" for r in rows)


def test_levels_widen_to_python_ints_past_int64():
    p = 2 ** 31 - 1
    m = mu.BernoulliMeasure([F(1, p), F(p - 1, p)])
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    lv = m.level(3)
    assert lv.den == p ** 3 > 2 ** 63 and lv.nums.dtype == object
    assert m.level(2).nums.dtype == np.int64
    pushed = mu.pushforward_ca(m, xor)
    assert pushed.level(3).nums.dtype == object
    assert list(pushed.positive_words(3)) \
        == list(oracles.positive_words(pushed, 3))
    for rule in (xor, None):
        assert key(mu.invariance_report(m, 3, rule)) \
            == key(oracles.invariance_report(m, 3, rule))
        assert key(mu.invariance_report(pushed, 3, rule)) \
            == key(oracles.invariance_report(pushed, 3, rule))
    # at depth 1 the level-2 masses fit int64, but a product of two
    # numerators does not, so no combined integer key may wrap
    assert int(m.level(2).nums.max()) ** 2 > 2 ** 63
    for depth in (1, 2):
        assert key(mu.fiber_spectrum(m, xor, depth)) \
            == key(oracles.fiber_spectrum(m, xor, depth))


def test_levels_hold_only_the_support():
    lv = mu.example11(cyclic_group(4)).level(5)
    assert len(lv.codes) == len(lv.nums) == 3072     # 4^5 * 3 of 32^5 words
    assert np.all(np.diff(lv.codes) > 0)


def test_coset_check_reads_the_table_not_rows():
    g = elementary_abelian_group(7, 2)
    rep = mu.coset_measure_check(mu.UniformMeasure(49), g, range(49), 1)
    assert rep.passed and rep.words_checked == 49
    with pytest.raises(NotASubgroup, match=r"not closed at \(1, 1\)"):
        mu.coset_measure_check(mu.UniformMeasure(49), g, [0, 1, 6], 1)
    assert "rows" not in vars(g)


def test_negative_depths_are_rejected(xor_rule):
    m = mu.UniformMeasure(2)
    with pytest.raises(BadParams):
        m.level(-1)
    with pytest.raises(BadParams):
        next(m.positive_words(-1))
    with pytest.raises(BadParams):
        mu.fiber_spectrum(m, xor_rule, -1)


def test_support_check_stays_within_the_support_alphabet():
    # started at 0, so S = {0}, but level d holds 30**(d-1) words
    n, depth = 30, 12
    m = mu.MarkovMeasure([F(1)] + [F(0)] * (n - 1), [[F(1, n)] * n] * n)
    assert mu.support_alphabet(m, depth) == (frozenset({0}), True)
    assert mu.support_alphabet(m, depth) == oracles.support_alphabet(m, depth)
    # 0 -> 0 is forbidden: S = {0, 1}, and the word 00 has no mass
    m = mu.MarkovMeasure([F(1, 2), F(1, 2), F(0)],
                         [[F(0), F(1, 2), F(1, 2)]] + [[F(1, 3)] * 3] * 2)
    assert mu.support_alphabet(m, depth) == (frozenset({0, 1}), False)
