"""Sliced levels against the whole-level pushforward oracle, and the memory
the sliced reductions allocate.

A pushforward's level d is built from its base's level d+1 one chunk of
first-symbol slices at a time.  ``oracles.whole_level`` builds it from the
whole level instead; the two must agree exactly, array dtypes included.
"""
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgca import automaton as ca
from qgca import fixtures
from qgca import measure as mu
from qgca import quasigroup as qg
from qgca.suite import random_bipermutative_rule
from test_measure_levels import base_measures, rules

INT64 = np.dtype(np.int64)


def arrays(lv):
    """Everything a level holds, dtypes included."""
    return (lv.alphabet_size, lv.depth, lv.den, lv.codes.dtype,
            lv.nums.dtype, lv.codes.tolist(), lv.nums.tolist())


def check_slices(m, depth):
    """The chunks of level ``depth`` >= 1 make up that level, each of whole
    first-symbol slices and at most N**(depth-1) entries unless it holds one
    slice; the level is one chunk exactly when it has that few entries."""
    n, cap = m.alphabet_size, m.alphabet_size ** (depth - 1)
    chunks = [part() for part in m._slices(depth)]
    lv = m.level(depth)
    joined = mu.Level(n, depth, np.concatenate([c.codes for c in chunks]),
                      np.concatenate([c.nums for c in chunks]), lv.den)
    assert arrays(joined) == arrays(lv)
    assert lv.codes.tolist() == sorted(set(lv.codes.tolist()))
    assert all(c.den == lv.den for c in chunks)
    firsts = [{code // cap for code in c.codes.tolist()} for c in chunks]
    for c, f in zip(chunks, firsts):
        assert len(c.codes) <= cap or len(f) == 1
    assert all(max(f) < min(g) for f, g in zip(firsts, firsts[1:]) if f and g)
    assert (len(chunks) == 1) == (len(lv.codes) <= cap)


def check_base_dtypes(m, depth):
    """A base kind's arrays are int64 while their values fit."""
    lv = m.level(depth)
    assert lv.codes.dtype == mu._dtype(m.alphabet_size ** depth)
    assert lv.nums.dtype == mu._dtype(lv.den)


@st.composite
def nested(draw, n):
    """A base measure under zero to three CA or shift pushforwards."""
    m = draw(base_measures(n))
    for _ in range(draw(st.integers(0, 3))):
        m = mu.pushforward_shift(m) if draw(st.booleans()) \
            else mu.pushforward_ca(m, draw(rules(n)))
    return m


@settings(max_examples=120)
@given(data=st.data(), n=st.integers(2, 5), depth=st.integers(0, 3))
def test_sliced_levels_match_the_whole_level_oracle(data, n, depth):
    m = data.draw(nested(n))
    assert arrays(m.level(depth)) == arrays(oracles.whole_level(m, depth))
    check_slices(m, depth + 1)
    inner = m
    while hasattr(inner, "base"):
        inner = inner.base
    check_base_dtypes(inner, depth + 1)


def test_nested_images_of_every_base_kind_match_the_oracle():
    rng = random.Random(6)
    c2, q = mu.UniformMeasure(2), mu.OrbitMeasure(2, [0, 1, 1])
    bases = [mu.UniformMeasure(4), mu.BernoulliMeasure([F(1, 2), F(1, 4),
                                                        F(0), F(1, 4)]),
             mu.MarkovMeasure([F(1), F(0), F(0), F(0)],
                              [[F(0), F(1, 2), F(1, 2), F(0)]] * 4),
             mu.OrbitMeasure(4, [0, 3, 3, 1]), mu.ProductMeasure(c2, q),
             mu.ProductMeasure(q, c2)]
    for base in bases:
        rule = random_bipermutative_rule(4, rng)
        for m in (mu.pushforward_ca(mu.pushforward_shift(base), rule),
                  mu.pushforward_shift(mu.pushforward_ca(base, rule)),
                  mu.pushforward_ca(mu.pushforward_ca(base, rule), rule)):
            for depth in range(5):
                assert arrays(m.level(depth)) \
                    == arrays(oracles.whole_level(m, depth))
        for depth in range(1, 6):
            check_slices(base, depth)
            check_base_dtypes(base, depth)
            assert list(base.positive_words(depth)) \
                == list(oracles.positive_words(base, depth))


PRODUCT_FACTORS = {
    2: (mu.UniformMeasure(2), mu.BernoulliMeasure([F(1, 3), F(2, 3)]),
        mu.OrbitMeasure(2, [0, 1, 1])),
    3: (mu.UniformMeasure(3), mu.BernoulliMeasure([F(1, 2), F(1, 3), F(1, 6)]),
        mu.BernoulliMeasure([F(1, 2), F(0), F(1, 2)])),
}


@pytest.mark.parametrize("nl, nr", [(2, 3), (3, 2)])
def test_products_of_two_and_three_symbols_match_the_per_word_oracle(nl, nr):
    """Uniform, full-support and sparse factors at depths 1..5.  Besides the
    chunks ``_slices`` takes, every chunk lo..hi-1 is built: ones that cut
    the slices of a left symbol and ones that span several left symbols.
    Each is the level's run of codes in [lo, hi) * N**(depth-1)."""
    n = nl * nr
    for left in PRODUCT_FACTORS[nl]:
        for right in PRODUCT_FACTORS[nr]:
            m = mu.ProductMeasure(left, right)
            for depth in range(1, 6):
                assert list(m.positive_words(depth)) \
                    == list(oracles.positive_words(m, depth))
                check_slices(m, depth)
                lv, cap = m.level(depth), n ** (depth - 1)
                sizes, build = m._parts(depth)
                for lo in range(n):
                    for hi in range(lo + 1, n + 1):
                        a, b = np.searchsorted(lv.codes, [lo * cap, hi * cap])
                        assert sizes[lo:hi].sum() == b - a
                        assert arrays(build(lo, hi)) == arrays(mu.Level(
                            n, depth, lv.codes[a:b], lv.nums[a:b], lv.den))


def test_sliced_levels_widen_to_python_ints_past_int64():
    p = 2 ** 31 - 1
    xor = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    rule4 = random_bipermutative_rule(4, random.Random(4))
    # several chunks: the scatter-add runs on Python-int masses
    bern = mu.BernoulliMeasure([F(1, p), F(p - 1, p)])
    # one chunk: the sort-and-sum runs on Python-int masses
    chain = mu.MarkovMeasure([F(1), F(0)], [[F(1, p), F(p - 1, p)],
                                            [F(0), F(1)]])
    # codes past 2**63 too, in one chunk
    orbit = mu.ProductMeasure(chain, mu.OrbitMeasure(2, [0, 1, 1]))
    for base, rule, depths in ((bern, xor, range(1, 5)),
                               (chain, xor, range(1, 8)),
                               (orbit, rule4, (3, 30, 31, 32, 40))):
        for m in (mu.pushforward_ca(base, rule), mu.pushforward_shift(base),
                  mu.pushforward_ca(mu.pushforward_shift(base), rule)):
            for depth in depths:
                lv = m.level(depth)
                assert arrays(lv) == arrays(oracles.whole_level(m, depth))
                check_slices(m, depth)
        check_slices(base, max(depths))
        check_base_dtypes(base, max(depths))
    assert mu.pushforward_ca(bern, xor).level(3).nums.dtype == object
    assert mu.pushforward_ca(chain, xor).level(4).nums.dtype == object
    assert mu.pushforward_ca(orbit, rule4).level(32).codes.dtype == object
    assert len(mu.pushforward_ca(bern, xor)._slices(4)) > 1
    assert len(chain._slices(5)) == len(orbit._slices(40)) == 1


def stepped_codes(rule, codes, depth, at):
    """The code of step(w) for the word w of each code codes[i], i in
    ``at``: decoded digit by digit, stepped by the automaton, re-encoded."""
    n, out = rule.alphabet_size, []
    for code in codes[at].tolist():
        word = []
        for _ in range(depth + 1):
            code, digit = divmod(code, n)
            word.append(digit)
        image = 0
        for s in ca.step(rule, word[::-1]):
            image = image * n + s
        out.append(image)
    return out


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(2, 9), depth=st.integers(1, 9))
def test_ca_image_matches_step_on_decoded_words(data, n, depth):
    """The windowed image of a run of codes, which may start anywhere and be
    long enough for wide windows, against the automaton's own step."""
    rule = data.draw(rules(n))
    count = min(n ** (depth + 1),
                data.draw(st.integers(0, 17).flatmap(
                    lambda e: st.integers(1, 2 ** e))))
    start = data.draw(st.integers(0, n ** (depth + 1) - count))
    codes = np.arange(start, start + count)
    image = mu._ca_image(rule, codes, depth)
    at = sorted({0, count - 1, *data.draw(st.lists(
        st.integers(0, count - 1), max_size=40))})
    assert image.dtype == codes.dtype and len(image) == count
    assert image[at].tolist() == stepped_codes(rule, codes, depth, at)


def images_with_path(rule, codes, depth):
    """The image of ``codes`` and whether it was made by row broadcast, the
    one path that calls ``_slice_image``."""
    calls = []

    def spy(*args):
        calls.append(args)
        return slice_image(*args)

    slice_image = mu._slice_image
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mu, "_slice_image", spy)
        image = mu._ca_image(rule, codes, depth)
    return image, bool(calls)


@settings(max_examples=120)
@given(data=st.data(), n=st.integers(2, 9))
def test_whole_slices_are_imaged_by_row_broadcast(data, n):
    """int64 codes of the whole first-symbol slices lo..hi-1 take the dense
    path and match the stepped-word oracle on every code and the automaton
    on drawn codes; a run one code short, shifted by one or starting
    mid-slice, and the same slices as Python ints, take the windowed path
    and match the oracle too.  Every run is a range of codes, so the oracle
    images the range one code wider on each side once, and each run is
    checked against its part of that."""
    top = max(d for d in range(17) if n ** (d + 1) <= 2 ** 17)
    depth = data.draw(st.integers(0, top))
    rule = data.draw(rules(n))
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    size = n ** depth
    first = max(lo * size - 1, 0)
    expect = oracles._ca_image(
        rule, np.arange(first, min(hi * size + 1, n * size)), depth).tolist()

    def oracle(run):
        return expect[run[0] - first:run[-1] - first + 1]
    codes = np.arange(lo * size, hi * size, dtype=np.int64)
    image, dense = images_with_path(rule, codes, depth)
    assert dense and image.dtype == INT64
    assert image.tolist() == oracle(codes)
    if depth == 0:
        return      # every run of one-symbol words is whole slices
    at = sorted({0, len(codes) - 1, *data.draw(st.lists(
        st.integers(0, len(codes) - 1), max_size=40))})
    assert image[at].tolist() == stepped_codes(rule, codes, depth, at)
    near = [codes[:-1], codes[size // 2:], codes.astype(object)]
    near += [codes + s for s in (1, -1)
             if 0 <= codes[0] + s and codes[-1] + s < n * size]
    for run in near:
        image, dense = images_with_path(rule, run, depth)
        assert not dense and image.dtype == run.dtype
        assert image.tolist() == oracle(run)


def test_ca_image_of_python_int_codes_matches_step():
    """Codes past 2**63 are Python ints, imaged one two-symbol window per
    image symbol at an odd and an even depth."""
    rule = random_bipermutative_rule(16, random.Random(16))
    for depth in (15, 16):
        count = 2 ** 16 + 5
        start = 16 ** (depth + 1) - count - 12345
        codes = np.arange(count).astype(object) + start
        image = mu._ca_image(rule, codes, depth)
        at = [0, 1, count - 1, *range(2, count, 997)]
        assert image.dtype == object
        assert image[at].tolist() == stepped_codes(rule, codes, depth, at)


def test_windowed_images_build_no_suffix_images(monkeypatch):
    """A long run that is not whole slices is imaged from the rule table
    alone: no images of longer words are built for it."""
    rule = ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))
    built = []
    monkeypatch.setattr(mu, "_suffix_images",
                        lambda rule, depth: built.append(depth))
    codes = np.arange(100, 4100)
    image = mu._ca_image(rule, codes, 11)
    assert built == [] and image.dtype == INT64
    assert image.tolist() == stepped_codes(rule, codes, 11, slice(None))


def traced_peak(fn, *args):
    """The result of a call and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_d7_depth6_invariance_holds_no_level_seven():
    rule = ca.from_quasigroup(qg.builtin("D7"))
    rep, peak = traced_peak(mu.invariance_report, mu.UniformMeasure(7), 6,
                            rule)
    assert (rep.max_abs_deviation, rep.worst_word) == (0, None)
    # the whole level 7 alone is 2 * 7**7 entries
    assert peak <= 8 * 7 ** 6 * INT64.itemsize


@pytest.mark.parametrize("nl, nr", [(2, 3), (3, 2)])
def test_dense_product_invariance_peak(nl, nr):
    """A chunk of a uniform 2 x 3 or 3 x 2 product is one slice, built from
    the left words of its first symbol and every right word: the depth-6
    sweep peaks under 15 * 6**6 int64 entries."""
    m = mu.ProductMeasure(mu.UniformMeasure(nl), mu.UniformMeasure(nr))
    rule = ca.from_quasigroup(qg.builtin("cyclic", [6]))
    rep, peak = traced_peak(mu.invariance_report, m, 6, rule)
    assert (rep.max_abs_deviation, rep.worst_word) == (0, None)
    assert peak <= 15 * 6 ** 6 * INT64.itemsize


def test_d7_fiber_spectrum_holds_about_its_rows():
    """The rows of 7**5 image words, each with 7 weights, make most of the
    peak: the sweep's arrays as long as level 6 are dropped before the rows
    are built."""
    rule = ca.from_quasigroup(qg.builtin("D7"))
    rep, peak = traced_peak(mu.fiber_spectrum, mu.UniformMeasure(7), rule, 5)
    assert (len(rep.rows), rep.K_estimate, rep.eta_constant,
            rep.invariance_deviation) == (7 ** 5, 7, F(1, 7), 0)
    assert peak <= 9.5 * 7 ** 6 * INT64.itemsize


def counted_sweeps(monkeypatch):
    """Counts of uniform chunk builds by depth, of ``_ca_image`` calls and
    of suffix image builds by depth, as the measure module makes them."""
    calls = Counter()
    parts = mu.UniformMeasure._parts
    ca_image, suffix_images = mu._ca_image, mu._suffix_images

    def counted_parts(self, depth):
        sizes, build = parts(self, depth)

        def counted_build(lo, hi):
            calls["build", depth] += 1
            return build(lo, hi)
        return sizes, counted_build

    def counted_image(*args):
        calls["image"] += 1
        return ca_image(*args)

    def counted_suffix_images(rule, depth):
        calls["suffix", depth] += 1
        return suffix_images(rule, depth)
    monkeypatch.setattr(mu.UniformMeasure, "_parts", counted_parts)
    monkeypatch.setattr(mu, "_ca_image", counted_image)
    monkeypatch.setattr(mu, "_suffix_images", counted_suffix_images)
    return calls


def test_d7_sweeps_build_and_image_each_chunk_once(monkeypatch):
    """Level 5 of the uniform measure is 7 one-slice chunks: the fiber
    spectrum builds and images each once and builds S_4 once.  The depth-6
    invariance check builds S_6 once for its 7 chunks of level 7."""
    rule = ca.from_quasigroup(qg.builtin("D7"))
    calls = counted_sweeps(monkeypatch)
    rep = mu.fiber_spectrum(mu.UniformMeasure(7), rule, 4)
    assert (rep.K_estimate, rep.eta_constant) == (7, F(1, 7))
    assert (calls["build", 5], calls["image"], calls["suffix", 4]) \
        == (7, 7, 1)
    calls.clear()
    rep = mu.invariance_report(mu.UniformMeasure(7), 6, rule)
    assert rep.max_abs_deviation == 0
    assert (calls["build", 7], calls["image"], calls["suffix", 6]) \
        == (7, 7, 1)


def test_whole_slices_of_a_large_table_widen_only_their_rows():
    """At depth 1 the rule table is larger than a chunk of slices: the dense
    image widens the chunk's rows, not the 2401**2 table."""
    rule = ca.from_quasigroup(qg.builtin("cyclic", [2401]))
    codes = np.arange(5 * 2401, 25 * 2401)
    image, peak = traced_peak(mu._ca_image, rule, codes, 1)
    assert image.tolist() == oracles._ca_image(rule, codes, 1).tolist()
    assert peak <= 3 * codes.nbytes


def test_z7x4_coset_check_holds_no_level_two():
    g, m = fixtures.resolve_group("@z7x4"), mu.UniformMeasure(2401)
    rep, peak = traced_peak(mu.coset_measure_check, m, g, [0], 1)
    support = list(range(2401))
    assert (rep.passed, rep.words_checked, rep.worst_word, rep.worst_reason,
            rep.shift_deviation) \
        == (False, 1, (0,), f"support {support} is not the coset [0]", 0)
    assert peak < 2401 ** 2 * INT64.itemsize
