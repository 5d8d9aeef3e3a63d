from fractions import Fraction as F
from itertools import product

import pytest

from qgca import automaton as ca
from qgca import measure as mu
from qgca import quasigroup as qg
from qgca.errors import (AlphabetMismatch, BadParams, DepthTooLarge,
                         NotASubgroup, NotBipermutative, ParseError,
                         ZeroMassCondition)
from qgca.groups import cyclic_group, from_quasigroup as to_group, group_product, quaternion_group
from qgca.suite import random_bipermutative_rule

import oracles
from oracles import pushforward_bruteforce

QUAT_IJK = (2, 4, 6)


def orbit_ijk():
    return mu.OrbitMeasure(8, QUAT_IJK)


def markov_example():
    return mu.MarkovMeasure([F(1, 2), F(1, 2)],
                            [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]])


def stationary_markov():
    return mu.MarkovMeasure([F(2, 5), F(3, 5)],
                            [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]])


# ---------------------------------------------------------------------------
# evaluation

def test_uniform_eval_frozen():
    assert mu.eval_cylinder(mu.UniformMeasure(7), (0, 1, 2)) == F(1, 343)


def test_orbit_eval_frozen():
    assert orbit_ijk().eval(QUAT_IJK[:2]) == F(1, 3)
    assert orbit_ijk().eval((2, 2)) == 0


def test_bernoulli_eval_frozen():
    m = mu.BernoulliMeasure([F(1, 2), F(1, 2)])
    assert m.eval((0, 1, 0)) == F(1, 8)


def test_empty_word_has_mass_one():
    for m in (mu.UniformMeasure(3), orbit_ijk(), markov_example()):
        assert m.eval(()) == 1


def test_eval_checks_alphabet():
    with pytest.raises(AlphabetMismatch):
        mu.UniformMeasure(3).eval((0, 3))


def test_size_mismatch_names_both_sizes():
    with pytest.raises(AlphabetMismatch) as exc:
        mu.pushforward_ca(mu.UniformMeasure(2),
                          ca.from_quasigroup(qg.builtin("D7")))
    assert str(exc.value) == ("rule alphabet of size 7 does not match "
                              "measure alphabet of size 2")
    g = group_product(cyclic_group(2), quaternion_group())
    with pytest.raises(AlphabetMismatch) as exc:
        mu.coset_measure_check(mu.UniformMeasure(4), g, [0], 2)
    assert str(exc.value) == ("group of size 16 does not match "
                              "measure alphabet of size 4")


def test_bernoulli_validation():
    with pytest.raises(BadParams):
        mu.BernoulliMeasure([F(1, 2), F(1, 3)])
    with pytest.raises(BadParams):
        mu.MarkovMeasure([F(1)], [[F(1, 2)]])


def test_example11_product_formula():
    m = mu.example11(cyclic_group(3))
    word = (0 * 8 + 2, 1 * 8 + 4)     # (0,i), (1,j)
    assert m.eval(word) == F(1, 27)   # (1/9) * (1/3)
    m2 = mu.example11(2)
    assert m2.eval((2, 12)) == F(1, 12)


# ---------------------------------------------------------------------------
# additivity and shift consistency

def all_measures_small():
    e11 = mu.example11(cyclic_group(2))
    rule = ca.from_quasigroup(qg.builtin_from_spec("product cyclic 2 quaternion"))
    return [
        mu.UniformMeasure(3),
        mu.BernoulliMeasure([F(1, 3), F(2, 3)]),
        markov_example(),
        orbit_ijk(),
        e11,
        mu.pushforward_ca(e11, rule),
        mu.pushforward_shift(markov_example()),
    ]


def test_right_additivity_everywhere():
    for m in all_measures_small():
        n = m.alphabet_size
        depth = 3 if n <= 4 else 2
        for w in product(range(n), repeat=depth):
            assert m.eval(w) == sum(m.eval(w + (b,)) for b in range(n))


def test_shift_consistency_for_stationary_kinds():
    for m in (mu.UniformMeasure(4),
              mu.BernoulliMeasure([F(1, 6), F(1, 3), F(1, 2)]),
              stationary_markov(), orbit_ijk()):
        n = m.alphabet_size
        for w in product(range(n), repeat=2):
            assert m.eval(w) == sum(m.eval((b,) + w) for b in range(n))


# ---------------------------------------------------------------------------
# pushforwards

def test_pushforward_ca_matches_bruteforce(rng):
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    led3 = ca.from_quasigroup(qg.builtin("ledrappier", [3, 2, 1]))
    rule4 = random_bipermutative_rule(4, rng)
    cases = [
        (mu.BernoulliMeasure([F(1, 3), F(2, 3)]), xor),
        (mu.UniformMeasure(3), led3),
        (mu.OrbitMeasure(4, (0, 2, 1)), rule4),
        (mu.MarkovMeasure([F(1, 2), F(1, 4), F(1, 4)],
                          [[F(1, 3)] * 3] * 3), led3),
    ]
    for m, rule in cases:
        pushed = mu.pushforward_ca(m, rule)
        n = rule.alphabet_size
        assert pushed.eval(()) == 1
        top = 4 if n <= 3 else 3
        for length in range(1, top + 1):
            for w in product(range(n), repeat=length):
                assert pushed.eval(w) == pushforward_bruteforce(m, rule, w)
        if n == 4:       # depth-4 spot checks where the full scan is heavy
            for w in [(0, 1, 2, 3), (3, 3, 0, 1), (2, 0, 2, 0)]:
                assert pushed.eval(w) == pushforward_bruteforce(m, rule, w)


def test_pushforward_ca_requires_bipermutative():
    proj = ca.make_rule(2, 0, 1, [[0, 0], [1, 1]])
    with pytest.raises(NotBipermutative):
        mu.pushforward_ca(mu.UniformMeasure(2), proj)


def test_uniform_is_invariant_under_qgca(d7, rng):
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    for rule, depth in ((xor, 6), (ca.from_quasigroup(d7), 4)):
        m = mu.UniformMeasure(rule.alphabet_size)
        assert mu.invariance_report(m, depth, rule).max_abs_deviation == 0


def test_orbit_pushforward_is_rotated_orbit(quat):
    rule = ca.from_quasigroup(quat)
    pushed = mu.pushforward_ca(orbit_ijk(), rule)
    rotated = mu.OrbitMeasure(8, (6, 2, 4))        # [k, i, j]
    for length in range(0, 5):
        for w, mass in rotated.positive_words(length):
            assert pushed.eval(w) == mass
        for w, mass in pushed.positive_words(length):
            assert rotated.eval(w) == mass


def test_orbit_shift_pushforward_same_measure():
    pushed = mu.pushforward_shift(orbit_ijk())
    for length in range(0, 5):
        for w in product(range(8), repeat=length) if length < 3 else \
                [w for w, _ in orbit_ijk().positive_words(length)]:
            assert pushed.eval(w) == orbit_ijk().eval(w)


def test_orbit_shift_invariance_depth5_exact():
    assert mu.invariance_report(orbit_ijk(), 5).max_abs_deviation == 0


def test_markov_nonstationary_shift_deviation_frozen():
    rep = mu.invariance_report(markov_example(), 1)
    assert rep.max_abs_deviation == F(1, 12)
    assert rep.worst_word == (0,)
    assert mu.invariance_report(stationary_markov(), 3).max_abs_deviation == 0


def test_bernoulli_xor_invariance_frozen():
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    rep = mu.invariance_report(mu.BernoulliMeasure([F(1, 3), F(2, 3)]), 3, xor)
    assert rep.max_abs_deviation == F(16, 81)
    assert rep.worst_word == (1, 1, 1)


def test_invariance_depth_bound():
    with pytest.raises(DepthTooLarge):
        mu.invariance_report(mu.UniformMeasure(2), 21)


# ---------------------------------------------------------------------------
# entropy

def test_uniform8_block_entropy_exact():
    m = mu.UniformMeasure(8)
    for n in range(1, 6):
        assert mu.block_entropy(m, n) == 3.0 * n
    assert mu.entropy_rate_profile(m, 5) == [3.0] * 4


def test_example11_entropy_increments_exact():
    m = mu.example11(cyclic_group(2))
    assert mu.entropy_rate_profile(m, 5) == [1.0, 1.0, 1.0, 1.0]
    import math
    assert mu.block_entropy(m, 1) == pytest.approx(1 + math.log2(3), abs=1e-12)


def test_orbit_entropy_increments_zero():
    assert mu.entropy_rate_profile(orbit_ijk(), 5) == [0.0] * 4


def test_entropy_increments_nonincreasing():
    for m in (mu.UniformMeasure(4),
              mu.BernoulliMeasure([F(1, 4), F(3, 4)]),
              stationary_markov(), orbit_ijk(),
              mu.example11(cyclic_group(2))):
        prof = mu.entropy_rate_profile(m, 5)
        for a, b in zip(prof, prof[1:]):
            assert b <= a + 1e-12


@pytest.mark.parametrize("n_max", [0, 1, 4])
def test_entropy_profile_is_each_block_entropy_and_increment(n_max):
    """H_k is bit for bit ``block_entropy`` at k, and the increments are the
    oracle's exact differences."""
    for m in (mu.BernoulliMeasure([F(1, 3), F(2, 3)]), stationary_markov(),
              orbit_ijk(), mu.example11(cyclic_group(2))):
        blocks, increments = mu.entropy_profile(m, n_max)
        assert blocks == [mu.block_entropy(m, k) for k in range(1, n_max + 1)]
        assert increments == oracles.entropy_rate_profile(m, n_max) \
            == mu.entropy_rate_profile(m, n_max)


# ---------------------------------------------------------------------------
# conditionals and coset measures

def test_conditional_uniform():
    m = mu.UniformMeasure(5)
    assert mu.conditional_dist(m, (3, 1)) == [F(1, 5)] * 5


def test_conditional_markov_frozen():
    dist = mu.conditional_dist(markov_example(), (0,))
    assert dist == [F(1, 2), F(1, 3)]
    # literal ratio formula: proportional to initial(b) * transition(b, a0)
    assert dist[0] * F(1, 6) == dist[1] * F(1, 4)


def test_conditional_zero_mass():
    with pytest.raises(ZeroMassCondition):
        mu.conditional_dist(orbit_ijk(), (0, 0))


def test_conditional_sums_to_one_for_shift_consistent():
    m = mu.example11(cyclic_group(2))
    for w, _ in m.positive_words(3):
        assert sum(mu.conditional_dist(m, w)) == 1


def test_coset_measure_example11():
    c2 = cyclic_group(2)
    g = group_product(c2, quaternion_group())
    m = mu.example11(c2)
    rep = mu.coset_measure_check(m, g, [0, 8], 3)
    assert rep.passed and rep.shift_deviation == 0
    assert rep.words_checked == 24        # 3 * 2^3 positive words


def test_coset_measure_uniform_full_group(quat):
    g = to_group(quat)
    m = mu.UniformMeasure(8)
    rep = mu.coset_measure_check(m, g, list(range(8)), 2)
    assert rep.passed


def test_coset_measure_point_mass_identity(quat):
    g = to_group(quat)
    point = mu.OrbitMeasure(8, (g.identity,))
    rep = mu.coset_measure_check(point, g, [g.identity], 3)
    assert rep.passed


def test_coset_measure_failure_is_reported(quat):
    g = to_group(quat)
    m = orbit_ijk()                        # conditionals are point masses
    rep = mu.coset_measure_check(m, g, [0, 1], 3)
    assert not rep.passed
    assert rep.worst_word is not None and rep.worst_reason


def test_coset_measure_rejects_non_subgroup(quat):
    g = to_group(quat)
    with pytest.raises(NotASubgroup):
        mu.coset_measure_check(mu.UniformMeasure(8), g, [2, 3], 2)
    with pytest.raises(NotASubgroup):
        mu.coset_measure_check(mu.UniformMeasure(8), g, [2], 2)


# ---------------------------------------------------------------------------
# fiber spectra and support

def test_fiber_spectrum_uniform(d7):
    rule = ca.from_quasigroup(d7)
    rep = mu.fiber_spectrum(mu.UniformMeasure(7), rule, 2)
    assert rep.K_estimate == 7
    assert rep.eta_constant == F(1, 7)
    assert rep.entropy_check == 0.0
    assert rep.invariance_deviation == 0
    assert all(r.support_count == 7 for r in rep.rows)
    assert all(v == F(1, 7) for r in rep.rows for v in r.weights)


def test_fiber_rows_are_immutable_records(d7):
    row = mu.fiber_spectrum(mu.UniformMeasure(7), ca.from_quasigroup(d7),
                            1).rows[3]
    assert (row.word, row.total_mass, row.support_count, row.weights) \
        == ((3,), F(1, 7), 7, (F(1, 7),) * 7)
    with pytest.raises(AttributeError):
        row.support_count = 1


def test_fiber_spectrum_example11():
    c2 = cyclic_group(2)
    rule = ca.from_quasigroup(qg.builtin_from_spec("product cyclic 2 quaternion"))
    rep = mu.fiber_spectrum(mu.example11(c2), rule, 3)
    assert rep.K_estimate == 2
    assert rep.eta_constant == F(1, 2)
    assert rep.entropy_check == 0.0
    assert rep.invariance_deviation == 0


def test_example11_invariance_depth5_exact():
    m = mu.example11(cyclic_group(2))
    rule = ca.from_quasigroup(qg.builtin_from_spec("product cyclic 2 quaternion"))
    assert mu.invariance_report(m, 5).max_abs_deviation == 0
    assert mu.invariance_report(m, 5, rule).max_abs_deviation == 0


def test_fiber_spectrum_orbit(quat):
    rule = ca.from_quasigroup(quat)
    rep = mu.fiber_spectrum(orbit_ijk(), rule, 3)
    assert rep.K_estimate == 1
    assert rep.eta_constant == F(1)
    assert len(rep.rows) == 3


def test_fiber_spectrum_mass_floor(quat):
    rule = ca.from_quasigroup(quat)
    rep = mu.fiber_spectrum(orbit_ijk(), rule, 3, mass_floor=F(1, 3))
    assert len(rep.rows) == 3 and rep.K_estimate == 1
    with pytest.raises(BadParams) as exc:
        mu.fiber_spectrum(orbit_ijk(), rule, 3, mass_floor=F(1, 2))
    assert str(exc.value) == ("mass floor 1/2 prunes every image word: the "
                              "largest pushforward mass at depth 3 is 1/3")


@pytest.mark.parametrize("floor", [F(1, 2), F(2)])
def test_fiber_spectrum_floor_above_every_image_mass_is_bad_params(floor):
    """A floor that prunes every image word is an input error naming the
    floor and the largest pushforward mass, not an empty report with a NaN
    entropy check; a floor at that mass keeps its words."""
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    with pytest.raises(BadParams) as exc:
        mu.fiber_spectrum(mu.UniformMeasure(2), xor, 2, mass_floor=floor)
    assert str(exc.value) == (f"mass floor {floor} prunes every image word: "
                              f"the largest pushforward mass at depth 2 is "
                              f"1/4")
    rep = mu.fiber_spectrum(mu.UniformMeasure(2), xor, 2, mass_floor=F(1, 4))
    assert len(rep.rows) == 4 and rep.entropy_check == 0.0


def test_fiber_weights_are_shared_by_value_not_by_numerator():
    """fiber_spectrum makes one Fraction per distinct (numerator, row
    total): equal weights of different pairs give one eta, and a numerator
    shared by two totals keeps two weights."""
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    # a word and its complement have equal mass: every weight is 1/2, over
    # row totals that differ
    flip = mu.MarkovMeasure([F(1, 2), F(1, 2)],
                            [[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]])
    rep = mu.fiber_spectrum(flip, xor, 2)
    assert len({r.total_mass for r in rep.rows}) > 1
    assert rep.eta_constant == F(1, 2)
    # masses 1/6 (00), 1/6 (01), 1/6 (10), 1/2 (11): over totals 2/3 and
    # 1/3 the shared mass 1/6 weighs 1/4 and 1/2
    chain = mu.MarkovMeasure([F(1, 3), F(2, 3)],
                             [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    rep = mu.fiber_spectrum(chain, xor, 1)
    assert [r.weights for r in rep.rows] \
        == [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))]
    assert rep.eta_constant is None
    for m, depth in ((flip, 2), (chain, 1), (chain, 3)):
        assert mu.fiber_spectrum(m, xor, depth).rows \
            == oracles.fiber_spectrum(m, xor, depth).rows


def test_support_alphabet_example11():
    m = mu.example11(cyclic_group(2))
    symbols, full = mu.support_alphabet(m, 3)
    assert symbols == frozenset({2, 4, 6, 10, 12, 14})
    assert not full


def test_support_alphabet_uniform():
    symbols, full = mu.support_alphabet(mu.UniformMeasure(3), 4)
    assert symbols == frozenset({0, 1, 2})
    assert full


def test_support_alphabet_depth_guard():
    with pytest.raises(BadParams):
        mu.support_alphabet(mu.UniformMeasure(2), 1)


def test_support_alphabet_bound_counts_support_words():
    """The bound is on words over the 6 support symbols, not the 16 of the
    alphabet: 6**8 words exceed it."""
    with pytest.raises(DepthTooLarge) as exc:
        mu.support_alphabet(mu.example11(cyclic_group(2)), 8)
    assert str(exc.value) == "6^8 cylinder words exceed bound 1048576"


# ---------------------------------------------------------------------------
# measure files

def test_parse_inline_kinds():
    doc = mu.parse_measure("kind=uniform\nalphabet_size=5\n")
    assert doc.measure.eval((0,)) == F(1, 5)
    doc = mu.parse_measure("kind=bernoulli\nweights=1/4 3/4\n")
    assert doc.measure.eval((1,)) == F(3, 4)
    doc = mu.parse_measure(
        "kind=markov\ninitial=1/2 1/2\ntransition=1/2 1/2 ; 1/3 2/3\n")
    assert doc.measure.eval((1, 0)) == F(1, 6)
    doc = mu.parse_measure(
        "kind=orbit\nalphabet_size=8\nperiod_word=2 4 6\nsymbols=1 -1 i -i j -j k -k\n")
    assert doc.measure.eval((2,)) == F(1, 3)
    assert doc.symbols[2] == "i"


def test_parse_nested_product_and_pushforwards(tmp_path):
    (tmp_path / "u.measure").write_text("kind=uniform\nalphabet_size=2\n")
    (tmp_path / "o.measure").write_text(
        "kind=orbit\nalphabet_size=8\nperiod_word=2 4 6\n")
    (tmp_path / "prod.measure").write_text(
        "kind=product\nleft=u.measure\nright=o.measure\n")
    doc = mu.load_measure(tmp_path / "prod.measure")
    assert doc.measure.eval((2, 12)) == F(1, 12)

    (tmp_path / "xor.rule").write_text(
        "2 0 1\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n")
    (tmp_path / "push.measure").write_text(
        "kind=pushforward_ca\nbase=u.measure\nrule=xor.rule\n")
    doc = mu.load_measure(tmp_path / "push.measure")
    assert doc.measure.eval((0, 1)) == F(1, 4)

    (tmp_path / "shift.measure").write_text(
        "kind=pushforward_shift\nbase=u.measure\n")
    doc = mu.load_measure(tmp_path / "shift.measure")
    assert doc.measure.eval((0,)) == F(1, 2)


def test_parse_measure_errors():
    with pytest.raises(ParseError):
        mu.parse_measure("kind=nope\n")
    with pytest.raises(ParseError):
        mu.parse_measure("kind=uniform\n")
    with pytest.raises(ParseError):
        mu.parse_measure("kind=uniform\nalphabet_size=2\nsymbols=a b c\n")
    with pytest.raises(ParseError):
        mu.parse_fraction("1/0")
