"""Exact cylinder measures on one-sided shift spaces.

Every probability is an exact rational, so invariance statements reduce to
equalities and deviation reports carry no tolerance.  Entropies are the one
float surface; they are assembled from an exact decomposition of log2 of
each cylinder mass into prime parts, which keeps quantities like entropy
increments of dyadic measures exactly representable.

The sweeps (invariance, entropy, fibers, cosets) run on levels: the
level of depth d holds every positive-mass word of length d as its base-N
code, with integer numerators over one common denominator.  A level is
also read in slices, one per first symbol, taken in chunks of whole slices
of at most N**(d-1) entries.  A pushforward's level d is its base's level
d+1 read chunk by chunk: a bipermutative rule maps each slice one to one
onto the words of length d, so the chunks' images scatter-add into an
array of all N**d codes, and a level that fits in one chunk is sorted and
summed in one pass.  The invariance, coset and fiber reductions read
level d+1 in one such sweep each; only a fiber spectrum keeps the chunks,
with their images, until the sweep ends.

A chunk of whole slices with int64 codes, as every chunk of a uniform or
full-support level is, is imaged by one broadcast add onto the images of
all words of length d, built once per sweep; a uniform chunk's numerators
are a zero-stride view of 1.  Any other chunk is imaged with one lookup
in the rule table per image symbol.  Fiber weights are gathered with
numpy, one Fraction per distinct (numerator, row total).
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .automaton import LocalRule, fiber_preimages, is_bipermutative, load_rule
from .errors import (AlphabetMismatch, AlphabetSizeMismatch, BadParams,
                     DepthTooLarge, NotASubgroup, NotBipermutative, ParseError,
                     WordTooShort, ZeroMassCondition, read_int)
from .groups import GroupTable
from .quasigroup import pack_digits, unpack_digits

WORD_ENUMERATION_BOUND = 2 ** 20

Word = tuple[int, ...]
ZERO = Fraction(0)
ONE = Fraction(1)

_INT64_MAX = 2 ** 63 - 1


def _dtype(bound: int):
    """int64 for values up to ``bound`` when they fit, else Python ints."""
    return object if bound > _INT64_MAX else np.int64


def _fit(arr: np.ndarray, bound: int) -> np.ndarray:
    """``arr`` widened to Python ints if values up to ``bound`` need it."""
    return arr.astype(object) if _dtype(bound) is object else arr


@dataclass(frozen=True, eq=False)
class Level:
    """The positive-mass words of length ``depth``: ascending base-N codes,
    most significant symbol first (so code order is lexicographic order),
    with masses ``nums / den``.

    The arrays are int64 while their values fit and Python-int objects
    beyond.  A numerator never exceeds its denominator, so a sum of masses
    never overflows the width chosen for ``den``.
    """

    alphabet_size: int
    depth: int
    codes: np.ndarray
    nums: np.ndarray
    den: int


# the entry count of each first-symbol slice of a level, and a builder of
# the chunk of its slices lo..hi-1
Parts = tuple[np.ndarray, Callable[[int, int], Level]]


def _words(n: int, depth: int, codes: np.ndarray) -> list[Word]:
    """The length-``depth`` words with the given base-``n`` codes."""
    if depth == 0:
        return [()] * len(codes)
    return list(zip(*(d.tolist() for d in unpack_digits(n, depth, codes))))


def _bounds(lv: Level) -> np.ndarray:
    """Where each first-symbol slice of a level (depth >= 1) starts, and
    where the last one ends."""
    n, below = lv.alphabet_size, lv.alphabet_size ** (lv.depth - 1)
    return np.searchsorted(lv.codes,
                           _fit(np.arange(n + 1), (n + 1) * below) * below)


def _split(lv: Level) -> Parts:
    """A whole level (depth >= 1) as the entry count of each first-symbol
    slice and a builder of its slices lo..hi-1."""
    at = _bounds(lv)
    return np.diff(at), lambda lo, hi: Level(
        lv.alphabet_size, lv.depth, lv.codes[at[lo]:at[hi]],
        lv.nums[at[lo]:at[hi]], lv.den)


def _pushed(parts: Sequence[Callable[[], Level]], depth: int,
            key: Callable[[Level], np.ndarray]) -> Level:
    """The level of ``depth`` whose mass at each code is the summed mass of
    the chunk words that ``key`` sends there.

    A single chunk is sorted and summed.  Several are built one by one and
    scatter-added into an array of all N**depth codes, which is smaller
    than the level they make up.
    """
    if len(parts) == 1:
        lv = parts[0]()
        codes, at = np.unique(key(lv), return_inverse=True)
        nums = np.zeros(len(codes), dtype=lv.nums.dtype)
        np.add.at(nums, at, lv.nums)
        return Level(lv.alphabet_size, depth, codes, nums, lv.den)
    out = None
    for part in parts:
        lv = part()
        if out is None:
            out = np.zeros(lv.alphabet_size ** depth, dtype=lv.nums.dtype)
        np.add.at(out, key(lv), lv.nums)
    codes = np.flatnonzero(out)
    return Level(lv.alphabet_size, depth, codes, out[codes], lv.den)


def _suffix_images(rule: LocalRule, depth: int) -> np.ndarray:
    """S_depth: int64 codes of step(w) for every length-``depth`` word w, in
    code order, from the empty images S_1 by ``_slice_image`` of all rows."""
    image = np.zeros(rule.alphabet_size, dtype=np.int64)
    for m in range(1, depth):
        image = _slice_image(rule, 0, rule.alphabet_size, m, image)
    return image


def _slice_image(rule: LocalRule, lo: int, hi: int, depth: int,
                 suffix: np.ndarray) -> np.ndarray:
    """int64 codes of step(w) for every length-(depth+1) word w whose first
    symbol is in lo..hi-1, in code order: the images S_depth of the suffixes
    plus T[a, b]·N**(depth-1), for the rule table T and the first two
    symbols a, b.  One broadcast add, with no division and no gather, that
    widens rows lo..hi-1 of T only."""
    if not depth:
        return suffix[lo:hi]
    return ((rule.table[lo:hi].astype(np.int64)
             * rule.alphabet_size ** (depth - 1))[..., None]
            + suffix.reshape(rule.alphabet_size, -1)).ravel()


def _ca_image(rule: LocalRule, codes: np.ndarray, depth: int,
              suffix: Callable | None = None) -> np.ndarray:
    """Codes of step(w) for the length-(depth+1) words w coded by ``codes``,
    which must strictly ascend, as every level's codes do.

    int64 codes of whole first-symbol slices are imaged by row broadcast
    (``_slice_image``) on the suffix images S_depth, which a sweep builds
    once: ``suffix`` is its cache of ``_suffix_images`` of the rule.  Other
    codes are imaged one symbol at a time: image symbol z is phi(w_z,
    w_{z+1}), read in the flat rule table at the base-N**2 digit that those
    two symbols make in the code."""
    n = rule.alphabet_size
    size = n ** depth
    # ascending codes are a run when the span from first to last is their
    # count, and whole slices when it starts and ends on slice boundaries
    if (codes.dtype == np.int64 and len(codes) and len(codes) % size == 0
            and codes[0] % size == 0
            and codes[-1] - codes[0] + 1 == len(codes)):
        lo = codes[0] // size
        return _slice_image(rule, lo, lo + len(codes) // size, depth,
                            (suffix or partial(_suffix_images, rule))(depth))
    # image has the codes' dtype, int64 or object, so the table entries
    # added to it are widened and no step can overflow the table's dtype
    image, table = np.zeros_like(codes), rule.table.ravel()
    for k in range(depth - 1, -1, -1):
        window = codes // n ** k
        window %= n * n
        image *= n
        image += table[window.astype(np.int64, copy=False)]
    return image


class CylinderMeasure:
    """Base evaluator: exact mass of the cylinder fixing a finite prefix.

    Subclasses implement ``_eval`` for nonempty words and may implement
    ``_parts`` for depths >= 1.  All kinds satisfy right additivity,
    eval(w) = sum_b eval(w + (b,)), so a level built by extending the
    previous one's support loses no positive word.
    """

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise BadParams("alphabet size must be positive")
        self.alphabet_size = alphabet_size

    def eval(self, word: Sequence[int]) -> Fraction:
        w = tuple(int(s) for s in word)
        for s in w:
            if not 0 <= s < self.alphabet_size:
                raise AlphabetMismatch(s, self.alphabet_size)
        if not w:
            return ONE
        return self._eval(w)

    def _eval(self, word: Word) -> Fraction:
        raise NotImplementedError

    def level(self, depth: int) -> Level:
        """Every positive-mass word of length ``depth`` with its mass."""
        if depth < 0:
            raise BadParams("depth must be nonnegative")
        if depth == 0:
            return Level(self.alphabet_size, 0, np.zeros(1, dtype=np.int64),
                         np.ones(1, dtype=np.int64), 1)
        sizes, build = self._parts(depth)
        return build(0, len(sizes))

    def _parts(self, depth: int) -> Parts:
        """The entry count of each first-symbol slice of the level of
        ``depth`` >= 1, and a builder of its slices lo..hi-1.  This generic
        path evaluates the N children of each previous positive word."""
        n = self.alphabet_size
        prev = self.level(depth - 1)
        codes = (_fit(prev.codes, n ** depth)[:, None] * n
                 + np.arange(n)).ravel()
        masses = [self.eval(w) for w in _words(n, depth, codes)]
        keep = [i for i, p in enumerate(masses) if p > 0]
        den = math.lcm(*(masses[i].denominator for i in keep))
        nums = [masses[i].numerator * (den // masses[i].denominator)
                for i in keep]
        return _split(Level(n, depth, codes[keep],
                            np.array(nums, dtype=_dtype(den)), den))

    def _slices(self, depth: int) -> list[Callable[[], Level]]:
        """The level of ``depth`` >= 1 as builders of consecutive chunks of
        whole first-symbol slices, in code order and over one denominator.
        A chunk holds at most N**(depth-1) entries, or a single slice, and
        is built when it is read; a level that fits is one chunk."""
        sizes, build = self._parts(depth)
        cap = self.alphabet_size ** (depth - 1)
        parts, lo, total = [], 0, 0
        for a, size in enumerate(sizes.tolist()):
            if total + size > cap:
                parts.append(partial(build, lo, a))
                lo, total = a, 0
            total += size
        return parts + [partial(build, lo, len(sizes))]

    def positive_words(self, depth: int) -> Iterator[tuple[Word, Fraction]]:
        """All positive-mass words of the given length, lexicographically."""
        lv = self.level(depth)
        for w, num in zip(_words(self.alphabet_size, depth, lv.codes),
                          lv.nums.tolist()):
            yield w, Fraction(num, lv.den)


class UniformMeasure(CylinderMeasure):
    """Uniform Bernoulli: every length-M cylinder has mass 1/N^M."""

    def _eval(self, word: Word) -> Fraction:
        return Fraction(1, self.alphabet_size ** len(word))

    def _parts(self, depth: int) -> Parts:
        n, size = self.alphabet_size, self.alphabet_size ** (depth - 1)
        return np.full(n, size), lambda lo, hi: Level(
            n, depth, np.arange(lo * size, hi * size, dtype=np.int64),
            np.ndarray((hi - lo) * size, np.int64, np.int64(1), strides=(0,)),
            n * size)


class MarkovMeasure(CylinderMeasure):
    def __init__(self, initial: Sequence[Fraction],
                 transition: Sequence[Sequence[Fraction]]):
        initial = tuple(Fraction(v) for v in initial)
        transition = tuple(tuple(Fraction(v) for v in row) for row in transition)
        n = len(initial)
        if len(transition) != n or any(len(r) != n for r in transition):
            raise BadParams("transition matrix shape must match initial vector")
        if any(v < 0 for v in initial) or sum(initial) != 1:
            raise BadParams("initial distribution must be a distribution")
        for row in transition:
            if any(v < 0 for v in row) or sum(row) != 1:
                raise BadParams("every transition row must be a distribution")
        super().__init__(n)
        self.initial = initial
        self.transition = transition
        # every weight as an integer over one common unit
        self._unit = unit = math.lcm(*(v.denominator for v in initial),
                                     *(v.denominator for r in transition
                                       for v in r))
        self._start = np.array([int(v * unit) for v in initial],
                               dtype=_dtype(unit))
        self._step = np.array([[int(v * unit) for v in row]
                               for row in transition], dtype=_dtype(unit))

    def _eval(self, word: Word) -> Fraction:
        p = self.initial[word[0]]
        for a, b in zip(word, word[1:]):
            p *= self.transition[a][b]
        return p

    def _parts(self, depth: int) -> Parts:
        n, unit, start, step = (self.alphabet_size, self._unit, self._start,
                                self._step)
        # a slice holds the positive paths of depth - 1 steps from its symbol
        paths = _fit(np.ones(n, dtype=np.int64), n ** depth)
        edges = _fit((step > 0).astype(np.int64), n ** depth)
        for _ in range(depth - 1):
            paths = edges @ paths

        # the words starting at lo..hi-1, each extended by the positive-
        # weight successors of its last symbol
        def chunk(lo: int, hi: int) -> Level:
            codes = lo + np.flatnonzero(start[lo:hi])
            nums, den = start[codes], unit
            for d in range(1, depth):
                den *= unit
                codes, nums = _fit(codes, n ** (d + 1)), _fit(nums, den)
                kids = nums[:, None] * _fit(step, den)[
                    (codes % n).astype(np.int64)]
                keep = kids > 0
                codes = (codes[:, None] * n + np.arange(n))[keep]
                nums = kids[keep]
            return Level(n, depth, codes, nums, den)
        return np.where(start > 0, paths, 0), chunk


class BernoulliMeasure(MarkovMeasure):
    """The Markov chain whose every symbol is drawn from ``weights``."""

    def __init__(self, weights: Sequence[Fraction]):
        weights = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise BadParams("bernoulli weights must be nonnegative")
        if sum(weights) != 1:
            raise BadParams("bernoulli weights must sum to 1")
        super().__init__(weights, [weights] * len(weights))
        self.weights = weights


class OrbitMeasure(CylinderMeasure):
    """Uniform measure on the shift orbit of a periodic point."""

    def __init__(self, alphabet_size: int, period_word: Sequence[int]):
        super().__init__(alphabet_size)
        w = tuple(int(s) for s in period_word)
        if not w:
            raise BadParams("period word must be nonempty")
        if any(not 0 <= s < alphabet_size for s in w):
            raise BadParams("period word symbols out of range")
        self.period_word = w
        self.points = tuple(sorted({w[k:] + w[:k] for k in range(len(w))}))

    def _eval(self, word: Word) -> Fraction:
        hits = 0
        for pt in self.points:
            L = len(pt)
            if all(word[i] == pt[i % L] for i in range(len(word))):
                hits += 1
        return Fraction(hits, len(self.points))

    def _parts(self, depth: int) -> Parts:
        n, pts = self.alphabet_size, np.array(self.points)
        prefixes = _fit(np.zeros(len(pts), dtype=np.int64), n ** depth)
        for i in range(depth):
            prefixes = prefixes * n + pts[:, i % pts.shape[1]]
        codes, hits = np.unique(prefixes, return_counts=True)
        return _split(Level(n, depth, codes, hits.astype(np.int64),
                            len(pts)))


class ProductMeasure(CylinderMeasure):
    """Product of two measures; the combined symbol of the pair (a, b) is
    a * |right| + b."""

    def __init__(self, left: CylinderMeasure, right: CylinderMeasure):
        super().__init__(left.alphabet_size * right.alphabet_size)
        self.left = left
        self.right = right

    def _eval(self, word: Word) -> Fraction:
        nr = self.right.alphabet_size
        return (self.left.eval(tuple(s // nr for s in word))
                * self.right.eval(tuple(s % nr for s in word)))

    def _parts(self, depth: int) -> Parts:
        """Slice s pairs the left words starting with s // nr and the right
        words starting with s % nr.  The chunk of slices lo..hi-1 is one
        outer product: every right word with the left words whose first
        symbol is in lo // nr .. (hi - 1) // nr, cut to the codes of slices
        lo..hi-1 and sorted.  Its temporaries hold the whole left-symbol
        groups it touches: at most nr * N**(depth-1) entries for each, and
        N**depth in all."""
        n, nr = self.alphabet_size, self.right.alphabet_size
        lv, rv = self.left.level(depth), self.right.level(depth)
        # each factor word's digits read in base N: the pair of the left
        # word u and the right word v has the code nr * u + v
        u, v = (pack_digits(n, [_fit(d.astype(np.int64), n ** depth) for d in
                                unpack_digits(f.alphabet_size, depth, f.codes)])
                for f in (lv, rv))
        den = lv.den * rv.den
        lnums, rnums = _fit(lv.nums, den), _fit(rv.nums, den)
        lstart, below = _bounds(lv), n ** (depth - 1)
        sizes = (np.diff(lstart)[:, None] * np.diff(_bounds(rv))).ravel()

        def chunk(lo: int, hi: int) -> Level:
            i = slice(lstart[lo // nr], lstart[(hi - 1) // nr + 1])
            codes = (nr * u[i])[:, None] + v
            keep = (codes >= lo * below) & (codes < hi * below)
            codes = codes[keep]
            order = np.argsort(codes)
            return Level(n, depth, codes[order],
                         (lnums[i][:, None] * rnums)[keep][order], den)
        return sizes, chunk


class CaPushforward(CylinderMeasure):
    """Image measure under a bipermutative nearest-neighbour rule.

    eval(w) sums the base masses of the N fiber preimages of w, so right
    additivity holds by construction.  Level d is built from the base's
    level d+1 in chunks of first-symbol slices: step maps the words of one
    slice one to one onto the words of length d, so a chunk's image codes
    are scatter-added into an array of all N**d codes, or, when the base
    level is a single chunk, sorted and summed in one pass.
    """

    def __init__(self, base: CylinderMeasure, rule: LocalRule):
        if not rule.is_rnnca or not is_bipermutative(rule):
            raise NotBipermutative("pushforward needs a bipermutative "
                                   "nearest-neighbour rule")
        if rule.alphabet_size != base.alphabet_size:
            raise AlphabetSizeMismatch("rule alphabet", rule.alphabet_size,
                                       "measure alphabet", base.alphabet_size)
        super().__init__(base.alphabet_size)
        self.base = base
        self.rule = rule

    def _eval(self, word: Word) -> Fraction:
        return sum((self.base.eval(f)
                    for f in fiber_preimages(self.rule, word)), ZERO)

    def _parts(self, depth: int) -> Parts:
        suffix = cache(partial(_suffix_images, self.rule))
        return _split(_pushed(self.base._slices(depth + 1), depth,
                              lambda lv: _ca_image(self.rule, lv.codes,
                                                   depth, suffix)))


class ShiftPushforward(CylinderMeasure):
    """Image measure under the one-sided shift: eval(w) = sum_b base(b + w).

    Level d sums the base's level d+1 chunk by chunk, with codes taken
    modulo N**d, which are distinct within one first-symbol slice.
    """

    def __init__(self, base: CylinderMeasure):
        super().__init__(base.alphabet_size)
        self.base = base

    def _eval(self, word: Word) -> Fraction:
        return sum((self.base.eval((b,) + word)
                    for b in range(self.alphabet_size)), ZERO)

    def _parts(self, depth: int) -> Parts:
        size = self.alphabet_size ** depth
        return _split(_pushed(self.base._slices(depth + 1), depth,
                              lambda lv: lv.codes % size))


# ---------------------------------------------------------------------------
# operations

def eval_cylinder(m: CylinderMeasure, word: Sequence[int]) -> Fraction:
    return m.eval(word)


def pushforward_ca(m: CylinderMeasure, rule: LocalRule) -> CylinderMeasure:
    return CaPushforward(m, rule)


def pushforward_shift(m: CylinderMeasure) -> CylinderMeasure:
    return ShiftPushforward(m)


def _check_depth(alphabet_size: int, depth: int) -> None:
    """Reject a negative depth, and one whose N**depth words exceed the
    bound.  N**depth also bounds the largest level array that invariance
    and coset reductions allocate: they read level depth+1 in chunks of at
    most N**depth entries.  A fiber sweep keeps every chunk with its image
    and gathers arrays as long as level depth+1, whose N**(depth+1) words
    its caller bounds too.  A pushforward of a pushforward, an orbit measure
    or a measure with only ``_eval`` builds its whole level depth+1 first."""
    if depth < 0:
        raise BadParams("depth must be nonnegative")
    if alphabet_size ** depth > WORD_ENUMERATION_BOUND:
        raise DepthTooLarge(alphabet_size, depth, WORD_ENUMERATION_BOUND)


@dataclass(frozen=True)
class InvarianceReport:
    transform: str
    depth: int
    max_abs_deviation: Fraction
    worst_word: Word | None


def _max_deviation(a: Level, b: Level) -> tuple[Fraction, Word | None]:
    """max |a(w) - b(w)| over all words, and the first word reaching it
    (None when the levels agree)."""
    den = math.lcm(a.den, b.den)
    diff = _fit(a.nums, den) * (den // a.den)
    scaled = b.nums if den == b.den else _fit(b.nums, den) * (den // b.den)
    if np.array_equal(a.codes, b.codes):
        # the same words, as an invariant measure's levels have: subtracted
        # in place, with no lookup and no index array
        shared = a.codes == b.codes
        diff -= scaled
    else:
        # each word of b: where it would sit among a's words, and whether
        # it does
        at = np.searchsorted(a.codes, b.codes)
        np.minimum(at, len(a.codes) - 1, out=at)
        shared = a.codes[at] == b.codes
        np.subtract.at(diff, at[shared], scaled[shared])
    np.absolute(diff, out=diff)
    alone = scaled[~shared]
    best = max(diff.max(initial=0), alone.max(initial=0))
    if best == 0:
        return ZERO, None
    # the first word reaching it, among a's words and among b's other words
    firsts = [codes[[np.argmax(dev == best)]]
              for codes, dev in ((a.codes, diff), (b.codes[~shared], alone))
              if best in dev]
    return Fraction(int(best), den), min(
        _words(a.alphabet_size, a.depth, np.concatenate(firsts)))


def invariance_report(m: CylinderMeasure, depth: int,
                      rule: LocalRule | None = None) -> InvarianceReport:
    """Exact maximum of |pushforward(w) - m(w)| over all words of the depth.

    ``rule`` selects the CA pushforward; None selects the shift.  The worst
    word is the lexicographically first one reaching the maximum.
    """
    _check_depth(m.alphabet_size, depth)
    pushed = pushforward_shift(m) if rule is None else pushforward_ca(m, rule)
    # the image first, so the base's level is not held while it is built
    image = pushed.level(depth)
    dev, worst = _max_deviation(m.level(depth), image)
    return InvarianceReport("shift" if rule is None else "ca",
                            depth, dev, worst)


# --- exact entropy machinery ------------------------------------------------

_TRIAL_LIMIT = 10 ** 6


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(base, exponent) pairs for n >= 1; a cofactor above the trial bound
    is kept whole, which only coarsens cross-depth cancellation."""
    rem, out, d = n, [], 2
    while d * d <= rem and d <= _TRIAL_LIMIT:
        e = 0
        while rem % d == 0:
            rem //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rem > 1:
        out.append((rem, 1))
    return tuple(out)


def _log2_exponents(value: Fraction,
                    factorize: Callable[[int], tuple] = _factorize
                    ) -> tuple[tuple[int, int], ...]:
    """log2(value) = sum exponent * log2(base) over the returned pairs."""
    pairs = dict(factorize(value.numerator))
    for base, e in factorize(value.denominator):
        pairs[base] = pairs.get(base, 0) - e
    return tuple(sorted(pairs.items()))


def _entropy_combo(chunks: Iterable[Level]) -> dict[int, Fraction]:
    """H_depth of a level, read in chunks, as an exact linear combination
    {base: coeff} of log2(base).  Each distinct mass is factorized once,
    and each denominator once per call."""
    factorize = cache(_factorize)
    counts: Counter = Counter()
    for lv in chunks:
        values, n = np.unique(lv.nums, return_counts=True)
        counts.update(dict(zip(values.tolist(), n.tolist())))
    combo: dict[int, Fraction] = {}
    for num, count in counts.items():
        p = Fraction(num, lv.den)
        for base, e in _log2_exponents(p, factorize):
            combo[base] = combo.get(base, ZERO) - count * e * p
    return {b: c for b, c in combo.items() if c != 0}


def _combo_float(combo: dict[int, Fraction]) -> float:
    total = 0.0
    for base in sorted(combo):
        total += float(combo[base]) * math.log2(base)
    return total


def _combo_sub(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for base, c in b.items():
        out[base] = out.get(base, ZERO) - c
    return {k: v for k, v in out.items() if v != 0}


def block_entropy(m: CylinderMeasure, depth: int) -> float:
    """H_depth = -sum p log2 p over length-``depth`` cylinders, in bits."""
    _check_depth(m.alphabet_size, depth)
    return _combo_float(_entropy_combo([m.level(depth)]))


def entropy_profile(m: CylinderMeasure,
                    n_max: int) -> tuple[list[float], list[float]]:
    """Block entropies H_k for k = 1..n_max, each level built once, and the
    increments H_{k+1} - H_k.  Each is floated from an exact combination, an
    increment from the difference of two, so dyadic masses come out exact."""
    _check_depth(m.alphabet_size, n_max)
    combos = [_entropy_combo([m.level(k)]) for k in range(1, n_max + 1)]
    return ([_combo_float(c) for c in combos],
            [_combo_float(_combo_sub(b, a))
             for a, b in zip(combos, combos[1:])])


def entropy_rate_profile(m: CylinderMeasure, n_max: int) -> list[float]:
    """Increments H_{k+1} - H_k for k = 1..n_max-1, in bits."""
    return entropy_profile(m, n_max)[1]


def conditional_dist(m: CylinderMeasure, word: Sequence[int]) -> list[Fraction]:
    """Distribution of the symbol preceding ``word``: eval(b + word)/eval(word).

    Sums to 1 exactly when the measure is shift-consistent at this depth.
    """
    a = tuple(int(s) for s in word)
    if not a:
        raise WordTooShort(0, 1)
    mass = m.eval(a)
    if mass == 0:
        raise ZeroMassCondition(a)
    return [m.eval((b,) + a) / mass for b in range(m.alphabet_size)]


def _at_least(lv: Level, floor) -> np.ndarray:
    """Mask of the level's words whose mass is at least ``floor``."""
    f = Fraction(floor)
    return lv.nums >= -(-f.numerator * lv.den // f.denominator)


@dataclass(frozen=True)
class CosetMeasureReport:
    depth: int
    mass_floor: Fraction
    subgroup: tuple[int, ...]
    passed: bool
    words_checked: int
    worst_word: Word | None
    worst_reason: str | None
    shift_deviation: Fraction


def _require_subgroup(g: GroupTable, members: tuple[int, ...]) -> None:
    """Raise NotASubgroup at the first member, in order, whose inverse or
    product row leaves the set."""
    if not members:
        raise NotASubgroup(members, "empty")
    if g.identity not in members:
        raise NotASubgroup(members, "missing identity")
    idx = np.array(members)
    inside = np.zeros(g.order, dtype=bool)
    inside[idx] = True
    inv_ok = inside[np.asarray(g.inverse)[idx]]
    closed = inside[g.table[np.ix_(idx, idx)]]
    bad = ~inv_ok | ~closed.all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if not inv_ok[i]:
            raise NotASubgroup(members,
                               f"not closed under inverse at {members[i]}")
        j = int(np.argmin(closed[i]))
        raise NotASubgroup(members,
                           f"not closed at ({members[i]}, {members[j]})")


def coset_measure_check(m: CylinderMeasure, g: GroupTable,
                        subgroup_members: Sequence[int], depth: int,
                        mass_floor: Fraction = ZERO) -> CosetMeasureReport:
    """Check that conditional distributions are uniform on right cosets.

    For every length-``depth`` word of mass at least ``mass_floor``, the
    conditional distribution of the preceding symbol must be supported on a
    single right coset C.x and assign 1/|C| to each member.  The shift
    deviation at the same depth is embedded, since the statement presumes a
    shift-invariant measure.  Words are checked in lexicographic order and
    the first failure is reported.
    """
    if m.alphabet_size != g.order:
        raise AlphabetSizeMismatch("group", g.order,
                                   "measure alphabet", m.alphabet_size)
    members = tuple(sorted({int(c) for c in subgroup_members}))
    _require_subgroup(g, members)
    _check_depth(m.alphabet_size, depth)

    own = m.level(depth)
    picked = np.flatnonzero(_at_least(own, mass_floor))
    if depth == 0 and len(picked):
        raise WordTooShort(0, 1)     # the empty word has no conditional
    # the predecessors b + w of a word w pass if they are one right coset
    # C.x, of k members, each of mass m(w) / k
    size, k = m.alphabet_size ** depth, len(members)
    coset_id = g.table[np.array(members)].min(axis=0).astype(np.int64)
    count = np.zeros(len(own.codes), dtype=np.int64)
    low = np.full(len(own.codes), g.order)
    high = np.full(len(own.codes), -1)
    uneven = np.zeros(len(own.codes), dtype=bool)

    # the words b + w in slices of first symbol b, tallied at w; summed
    # over b they are the shift pushforward, whose deviation is embedded
    def tally(lv: Level) -> np.ndarray:
        tail = lv.codes % size
        # past the last word, searchsorted's len wraps to 0, a miss
        at = np.searchsorted(own.codes, tail) % len(own.codes)
        hit = own.codes[at] == tail
        at, ids = at[hit], coset_id[lv.codes[hit] // size]
        np.add.at(count, at, 1)
        np.minimum.at(low, at, ids)
        np.maximum.at(high, at, ids)
        den = math.lcm(own.den, lv.den)
        uneven[at[_fit(lv.nums[hit], den * k) * (den // lv.den * k)
                  != _fit(own.nums[at], den * k) * (den // own.den)]] = True
        return tail
    shifted = _pushed(m._slices(depth + 1), depth, tally)
    ok = ((low == high) & (count == k) & ~uneven)[picked]

    checked, worst = len(picked), None
    if not ok.all():
        first = int(np.argmin(ok))
        checked = first + 1
        word = _words(m.alphabet_size, depth,
                      own.codes[picked[first:first + 1]])[0]
        dist = conditional_dist(m, word)
        support = [b for b, v in enumerate(dist) if v > 0]
        coset = sorted(int(g.table[c, support[0]]) for c in members) \
            if support else []
        if not support:
            reason = "no predecessor has positive mass"
        elif support != coset:
            reason = f"support {support} is not the coset {coset}"
        else:
            target = Fraction(1, k)
            bad = next(b for b in support if dist[b] != target)
            reason = f"weight at {bad} is {dist[bad]}, expected {target}"
        worst = (word, reason)
    shift_dev, _ = _max_deviation(own, shifted)
    return CosetMeasureReport(
        depth=depth, mass_floor=mass_floor, subgroup=members,
        passed=worst is None, words_checked=checked,
        worst_word=None if worst is None else worst[0],
        worst_reason=None if worst is None else worst[1],
        shift_deviation=shift_dev)


class FiberRow(NamedTuple):
    word: Word
    total_mass: Fraction
    support_count: int
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class FiberReport:
    depth: int
    mass_floor: Fraction
    rows: tuple[FiberRow, ...]
    K_estimate: int
    eta_constant: Fraction | None
    entropy_check: float
    invariance_deviation: Fraction


def fiber_spectrum(m: CylinderMeasure, rule: LocalRule, depth: int,
                   mass_floor: Fraction = ZERO) -> FiberReport:
    """Conditional weights of the N fiber preimages over each image word.

    For image words with pushforward mass at least ``mass_floor``: the
    normalized base masses of the fiber, their support count, the modal
    support count K, the common positive weight if one exists, and the gap
    |log2 K - (H_{depth+1} - H_depth)|.  The CA-invariance deviation at this
    depth is embedded since the K-to-1 statement presumes invariance.  A
    floor above every image word's mass is a BadParams that names the
    largest one.

    The fiber of an image word w is the set of base words x with
    step(x) = w, indexed by x's first symbol a: its member of first symbol
    a is the word of the base's slice a that steps to w.
    """
    pushforward_ca(m, rule)     # validates the rule against the measure
    _check_depth(m.alphabet_size, depth)
    _check_depth(m.alphabet_size, depth + 1)
    n = m.alphabet_size
    # one sweep builds and images each chunk once, kept for the weights
    chunks, suffix = [], cache(partial(_suffix_images, rule))

    def image(lv: Level) -> np.ndarray:
        chunks.append((lv, img := _ca_image(rule, lv.codes, depth, suffix)))
        return img
    pushed = _pushed(m._slices(depth + 1), depth, image)
    heavy = _at_least(pushed, mass_floor)
    picked, row = np.flatnonzero(heavy), np.cumsum(heavy) - 1
    if not picked.size:
        raise BadParams(f"mass floor {mass_floor} prunes every image word: "
                        f"the largest pushforward mass at depth {depth} is "
                        f"{Fraction(int(pushed.nums.max()), pushed.den)}")
    own = m.level(depth)
    inc = _combo_sub(_entropy_combo(lv for lv, _ in chunks),
                     _entropy_combo([own]))
    # each base word over a picked image word: its weight slot, row·N plus
    # its first symbol, and its numerator
    slots, nums = [], []
    while chunks:
        lv, img = chunks.pop()
        at = np.searchsorted(pushed.codes, img)
        keep = heavy[at]
        slots.append(row[at[keep]] * n + lv.codes[keep] // n ** depth)
        nums.append(lv.nums[keep])
    slots, nums = np.concatenate(slots), np.concatenate(nums)
    # one Fraction per distinct row total and per distinct (numerator, row
    # total), keyed numerator·span + total < span**2, as span > every total
    totals, total_at = np.unique(pushed.nums[picked], return_inverse=True)
    span = int(totals[-1]) + 1
    nums = _fit(nums, span ** 2) * span + pushed.nums[picked[slots // n]]
    keys, _ = np.unique(nums, return_counts=True)  # plain imports np.ma
    distinct = [Fraction(*divmod(k, span)) for k in keys.tolist()]
    weights = np.full(len(picked) * n, ZERO, dtype=object)
    weights[slots] = np.array(distinct, dtype=object)[
        np.searchsorted(keys, nums)]
    support = np.bincount(slots // n)     # each row has a kept word
    del slots, nums, lv, img, keep      # the rows make the peak
    weights, totals = weights.tolist(), [Fraction(t, pushed.den)
                                         for t in totals.tolist()]
    rows = [FiberRow(w, totals[t], c, ws) for w, t, c, ws in zip(
        _words(n, depth, pushed.codes[picked]), total_at.tolist(),
        support.tolist(), zip(*[iter(weights)] * n))]
    k_est = int(np.argmax(np.bincount(support)))    # least modal count
    eta = distinct[0] if len(set(distinct)) == 1 else None
    target = {b: Fraction(e) for b, e in _factorize(k_est)}
    check = abs(_combo_float(_combo_sub(inc, target)))
    dev, _ = _max_deviation(own, pushed)
    return FiberReport(depth=depth, mass_floor=mass_floor, rows=tuple(rows),
                       K_estimate=k_est, eta_constant=eta,
                       entropy_check=check, invariance_deviation=dev)


def support_alphabet(m: CylinderMeasure, depth: int
                     ) -> tuple[frozenset[int], bool]:
    """Symbols of positive single-site mass, and whether every length-
    ``depth`` word over them has positive mass."""
    if depth < 2:
        raise BadParams("support check needs depth >= 2")
    symbols = m.level(1).codes.tolist()
    if len(symbols) ** depth > WORD_ENUMERATION_BOUND:
        raise DepthTooLarge(len(symbols), depth, WORD_ENUMERATION_BOUND)
    # per-word walk over S only: the level at ``depth`` of a measure that is
    # not shift-invariant can hold far more than |S|**depth words
    words = itertools.product(symbols, repeat=depth)
    return frozenset(symbols), all(m.eval(w) > 0 for w in words)


_QUATERNION_IJK = (2, 4, 6)   # indices of i, j, k in the builtin table


def example11(c_group: GroupTable | int) -> ProductMeasure:
    """The product counterexample measure: uniform Bernoulli over a finite
    group C times the uniform orbit measure of the period-3 quaternion point,
    on the combined alphabet C x Q (packed as c * 8 + q)."""
    c_order = c_group if isinstance(c_group, int) else c_group.order
    if c_order < 1:
        raise BadParams("factor group must be nonempty")
    left = UniformMeasure(c_order)
    right = OrbitMeasure(8, _QUATERNION_IJK)
    return ProductMeasure(left, right)


# ---------------------------------------------------------------------------
# measure spec files: line-based key=value with nested file references

def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}") from None


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class MeasureDoc:
    measure: CylinderMeasure
    symbols: tuple[str, ...] | None


def parse_measure(text: str, base_dir=None) -> MeasureDoc:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}")
        fields[key] = value.strip()

    def need(key: str) -> str:
        if key not in fields:
            raise ParseError(f"measure spec missing {key!r}")
        return fields[key]

    def nested(key: str) -> CylinderMeasure:
        rel = need(key)
        if base_dir is None:
            raise ParseError("no base directory for nested measure reference")
        return load_measure(Path(base_dir) / rel).measure

    kind = need("kind")
    if kind == "uniform":
        measure: CylinderMeasure = UniformMeasure(
            read_int(need("alphabet_size"), ParseError))
    elif kind == "bernoulli":
        measure = BernoulliMeasure([parse_fraction(v)
                                    for v in need("weights").split()])
    elif kind == "markov":
        initial = [parse_fraction(v) for v in need("initial").split()]
        rows = [r for r in need("transition").split(";") if r.strip()]
        transition = [[parse_fraction(v) for v in row.split()] for row in rows]
        measure = MarkovMeasure(initial, transition)
    elif kind == "orbit":
        measure = OrbitMeasure(read_int(need("alphabet_size"), ParseError),
                               [read_int(v, ParseError)
                                for v in need("period_word").split()])
    elif kind == "product":
        measure = ProductMeasure(nested("left"), nested("right"))
    elif kind == "pushforward_ca":
        if base_dir is None:
            raise ParseError("no base directory for nested rule reference")
        rule = load_rule(Path(base_dir) / need("rule"))
        measure = CaPushforward(nested("base"), rule)
    elif kind == "pushforward_shift":
        measure = ShiftPushforward(nested("base"))
    else:
        raise ParseError(f"unknown measure kind {kind!r}")

    symbols = None
    if "symbols" in fields:
        symbols = tuple(fields["symbols"].split())
        if len(symbols) != measure.alphabet_size:
            raise ParseError("symbols count must match the alphabet size")
    return MeasureDoc(measure, symbols)


def load_measure(path) -> MeasureDoc:
    p = Path(path)
    return parse_measure(p.read_text(), base_dir=p.parent)
