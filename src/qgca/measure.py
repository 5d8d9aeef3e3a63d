"""Exact cylinder measures on one-sided shift spaces.

Every probability is an exact rational, so invariance statements reduce to
equalities and deviation reports carry no tolerance.  Entropies are the one
float surface; they are assembled from an exact decomposition of log2 of
each cylinder mass into prime parts, which keeps quantities like entropy
increments of dyadic measures exactly representable.

The sweeps (invariance, entropy, fibers, cosets) run on levels: the
level of depth d holds every positive-mass word of length d as its base-N
code, with integer numerators over one common denominator.  A pushforward's
level d comes from its base's level d+1 in one vectorised step and one
sort-and-sum, so a sweep costs the size of the support, not N**d.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .automaton import LocalRule, fiber_preimages, is_bipermutative
from .errors import (AlphabetMismatch, AlphabetSizeMismatch, BadParams,
                     DepthTooLarge, NotASubgroup, NotBipermutative, ParseError,
                     WordTooShort, ZeroMassCondition)
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


def _words(n: int, depth: int, codes: np.ndarray) -> list[Word]:
    """The length-``depth`` words with the given base-``n`` codes."""
    if depth == 0:
        return [()] * len(codes)
    return list(zip(*(d.tolist() for d in unpack_digits(n, depth, codes))))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order sorting ``keys``, and where each run of equal keys
    starts in that order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new)


def _collect(n: int, depth: int, codes: np.ndarray, nums: np.ndarray,
             den: int) -> tuple[Level, np.ndarray, np.ndarray]:
    """The level holding, for each distinct code, the sum of its masses;
    and the stable order and run starts that grouped the codes."""
    order, starts = _runs(codes)
    return (Level(n, depth, codes[order][starts],
                  np.add.reduceat(nums[order], starts), den), order, starts)


def _ca_image(rule: LocalRule, codes: np.ndarray, depth: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Codes of step(w) and first symbols of w, for the length-(depth+1)
    words w coded by ``codes``.  Each pair of neighbouring symbols is read
    off the code as one base-N**2 digit and looked up in the flat table, so
    only a few arrays of len(codes) are alive at once."""
    n, flat = rule.alphabet_size, rule.table.ravel()
    image = np.zeros_like(codes)
    for k in range(depth - 1, -1, -1):
        pair = (codes // n ** k % (n * n)).astype(np.int64, copy=False)
        image *= n
        image += flat[pair]
    return image, (codes // n ** depth).astype(np.int64, copy=False)


class CylinderMeasure:
    """Base evaluator: exact mass of the cylinder fixing a finite prefix.

    Subclasses implement ``_eval`` for nonempty words and may implement
    ``_level`` for depths >= 1.  All kinds satisfy right additivity,
    eval(w) = sum_b eval(w + (b,)), so a level built by extending the
    previous one's support loses no positive word.
    """

    kind = "abstract"

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
        return self._level(depth)

    def _level(self, depth: int) -> Level:
        # generic path: the N children of each previous positive word
        n = self.alphabet_size
        prev = self.level(depth - 1)
        codes = (_fit(prev.codes, n ** depth)[:, None] * n
                 + np.arange(n)).ravel()
        masses = [self.eval(w) for w in _words(n, depth, codes)]
        keep = [i for i, p in enumerate(masses) if p > 0]
        den = math.lcm(*(masses[i].denominator for i in keep))
        nums = [masses[i].numerator * (den // masses[i].denominator)
                for i in keep]
        return Level(n, depth, codes[keep], np.array(nums, dtype=_dtype(den)),
                     den)

    def positive_words(self, depth: int) -> Iterator[tuple[Word, Fraction]]:
        """All positive-mass words of the given length, lexicographically."""
        lv = self.level(depth)
        for w, num in zip(_words(self.alphabet_size, depth, lv.codes),
                          lv.nums.tolist()):
            yield w, Fraction(num, lv.den)


class UniformMeasure(CylinderMeasure):
    """Uniform Bernoulli: every length-M cylinder has mass 1/N^M."""

    kind = "uniform"

    def _eval(self, word: Word) -> Fraction:
        return Fraction(1, self.alphabet_size ** len(word))

    def _level(self, depth: int) -> Level:
        size = self.alphabet_size ** depth
        return Level(self.alphabet_size, depth, np.arange(size, dtype=np.int64),
                     np.ones(size, dtype=np.int64), size)


def _chain_level(initial: Sequence[Fraction],
                 transition: Sequence[Sequence[Fraction]], depth: int) -> Level:
    """Level of a Markov chain: each word is extended by the positive-weight
    successors of its last symbol."""
    n = len(initial)
    unit = math.lcm(*(v.denominator for v in initial),
                    *(v.denominator for row in transition for v in row))
    start = np.array([int(v * unit) for v in initial], dtype=_dtype(unit))
    step = np.array([[int(v * unit) for v in row] for row in transition],
                    dtype=_dtype(unit))
    codes = np.flatnonzero(start)
    nums, den = start[codes], unit
    for d in range(1, depth):
        den *= unit
        codes, nums = _fit(codes, n ** (d + 1)), _fit(nums, den)
        kids = nums[:, None] * _fit(step, den)[(codes % n).astype(np.int64)]
        keep = kids > 0
        codes = (codes[:, None] * n + np.arange(n))[keep]
        nums = kids[keep]
    return Level(n, depth, codes, nums, den)


class BernoulliMeasure(CylinderMeasure):
    kind = "bernoulli"

    def __init__(self, weights: Sequence[Fraction]):
        weights = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise BadParams("bernoulli weights must be nonnegative")
        if sum(weights) != 1:
            raise BadParams("bernoulli weights must sum to 1")
        super().__init__(len(weights))
        self.weights = weights

    def _eval(self, word: Word) -> Fraction:
        p = ONE
        for s in word:
            p *= self.weights[s]
        return p

    def _level(self, depth: int) -> Level:
        return _chain_level(self.weights, [self.weights] * self.alphabet_size,
                            depth)


class MarkovMeasure(CylinderMeasure):
    kind = "markov"

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

    def _eval(self, word: Word) -> Fraction:
        p = self.initial[word[0]]
        for a, b in zip(word, word[1:]):
            p *= self.transition[a][b]
        return p

    def _level(self, depth: int) -> Level:
        return _chain_level(self.initial, self.transition, depth)


class OrbitMeasure(CylinderMeasure):
    """Uniform measure on the shift orbit of a periodic point."""

    kind = "orbit"

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

    def _level(self, depth: int) -> Level:
        n, pts = self.alphabet_size, np.array(self.points)
        prefixes = _fit(np.zeros(len(pts), dtype=np.int64), n ** depth)
        for i in range(depth):
            prefixes = prefixes * n + pts[:, i % pts.shape[1]]
        codes, hits = np.unique(prefixes, return_counts=True)
        return Level(n, depth, codes, hits.astype(np.int64), len(pts))


class ProductMeasure(CylinderMeasure):
    """Product of two measures under a pairing of the combined alphabet.

    The default pairing packs indices as left * |right| + right.
    """

    kind = "product"

    def __init__(self, left: CylinderMeasure, right: CylinderMeasure,
                 pairing: Sequence[tuple[int, int]] | None = None):
        n = left.alphabet_size * right.alphabet_size
        super().__init__(n)
        self.left = left
        self.right = right
        if pairing is None:
            pairing = tuple((a, b)
                            for a in range(left.alphabet_size)
                            for b in range(right.alphabet_size))
        else:
            pairing = tuple((int(a), int(b)) for a, b in pairing)
            if sorted(pairing) != sorted(
                    (a, b) for a in range(left.alphabet_size)
                    for b in range(right.alphabet_size)):
                raise BadParams("pairing must be a bijection with the factor pairs")
        if len(pairing) != n:
            raise BadParams("pairing size must equal the combined alphabet")
        self.pairing = pairing

    def _eval(self, word: Word) -> Fraction:
        lw = tuple(self.pairing[s][0] for s in word)
        rw = tuple(self.pairing[s][1] for s in word)
        return self.left.eval(lw) * self.right.eval(rw)

    def _level(self, depth: int) -> Level:
        n = self.alphabet_size
        lv, rv = self.left.level(depth), self.right.level(depth)
        symbol = np.empty((lv.alphabet_size, rv.alphabet_size), dtype=np.int64)
        for s, (a, b) in enumerate(self.pairing):
            symbol[a, b] = s
        # every pair (left word i, right word j), combined symbol by symbol
        i = np.repeat(np.arange(len(lv.codes)), len(rv.codes))
        j = np.tile(np.arange(len(rv.codes)), len(lv.codes))
        digits = zip(unpack_digits(lv.alphabet_size, depth, lv.codes),
                     unpack_digits(rv.alphabet_size, depth, rv.codes))
        codes = pack_digits(n, [_fit(symbol[a.astype(np.int64)[i],
                                            b.astype(np.int64)[j]], n ** depth)
                                for a, b in digits])
        den = lv.den * rv.den
        nums = _fit(lv.nums, den)[i] * _fit(rv.nums, den)[j]
        order = np.argsort(codes)
        return Level(n, depth, codes[order], nums[order], den)


class CaPushforward(CylinderMeasure):
    """Image measure under a bipermutative nearest-neighbour rule.

    eval(w) sums the base masses of the N fiber preimages of w, so right
    additivity holds by construction.
    """

    kind = "pushforward_ca"

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

    def _level(self, depth: int) -> Level:
        base = self.base.level(depth + 1)
        image, _ = _ca_image(self.rule, base.codes, depth)
        return _collect(self.alphabet_size, depth, image, base.nums,
                        base.den)[0]


class ShiftPushforward(CylinderMeasure):
    """Image measure under the one-sided shift: eval(w) = sum_b base(b + w)."""

    kind = "pushforward_shift"

    def __init__(self, base: CylinderMeasure):
        super().__init__(base.alphabet_size)
        self.base = base

    def _eval(self, word: Word) -> Fraction:
        return sum((self.base.eval((b,) + word)
                    for b in range(self.alphabet_size)), ZERO)

    def _level(self, depth: int) -> Level:
        base = self.base.level(depth + 1)
        return _collect(self.alphabet_size, depth,
                        base.codes % self.alphabet_size ** depth,
                        base.nums, base.den)[0]


# ---------------------------------------------------------------------------
# operations

def eval_cylinder(m: CylinderMeasure, word: Sequence[int]) -> Fraction:
    return m.eval(word)


def pushforward_ca(m: CylinderMeasure, rule: LocalRule) -> CylinderMeasure:
    return CaPushforward(m, rule)


def pushforward_shift(m: CylinderMeasure) -> CylinderMeasure:
    return ShiftPushforward(m)


def _check_depth(alphabet_size: int, depth: int) -> None:
    if depth < 0:
        raise BadParams("depth must be nonnegative")
    if alphabet_size ** depth > WORD_ENUMERATION_BOUND:
        raise DepthTooLarge(alphabet_size, depth, WORD_ENUMERATION_BOUND)


def _word(lv: Level, code) -> Word:
    return tuple(int(s) for s in
                 unpack_digits(lv.alphabet_size, lv.depth, int(code)))


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
    codes = np.concatenate((a.codes, b.codes))
    order, starts = _runs(codes)
    codes = codes[order][starts]
    diff = np.zeros(len(codes), dtype=_dtype(den))
    diff[np.searchsorted(codes, a.codes)] = _fit(a.nums, den) * (den // a.den)
    diff[np.searchsorted(codes, b.codes)] -= _fit(b.nums, den) * (den // b.den)
    diff = np.abs(diff)
    top = int(np.argmax(diff))
    if diff[top] == 0:
        return ZERO, None
    return Fraction(int(diff[top]), den), _word(a, codes[top])


def invariance_report(m: CylinderMeasure, depth: int,
                      rule: LocalRule | None = None) -> InvarianceReport:
    """Exact maximum of |pushforward(w) - m(w)| over all words of the depth.

    ``rule`` selects the CA pushforward; None selects the shift.  The worst
    word is the lexicographically first one reaching the maximum.
    """
    _check_depth(m.alphabet_size, depth)
    pushed = pushforward_shift(m) if rule is None else pushforward_ca(m, rule)
    dev, worst = _max_deviation(m.level(depth), pushed.level(depth))
    return InvarianceReport("shift" if rule is None else "ca",
                            depth, dev, worst)


# --- exact entropy machinery ------------------------------------------------

_TRIAL_LIMIT = 10 ** 6


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(base, exponent) pairs for n >= 1; a cofactor above the trial bound
    is kept whole, which only coarsens cross-depth cancellation."""
    rem, out = n, []
    for d in (2, 3):
        e = 0
        while rem % d == 0:
            rem //= d
            e += 1
        if e:
            out.append((d, e))
    d = 5
    while d * d <= rem and d <= _TRIAL_LIMIT:
        e = 0
        while rem % d == 0:
            rem //= d
            e += 1
        if e:
            out.append((d, e))
        d += 2
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


def _entropy_combo(lv: Level) -> dict[int, Fraction]:
    """H_depth of a level as an exact linear combination {base: coeff} of
    log2(base).  Each distinct mass is factorized once, and each
    denominator once per call."""
    factorize = cache(_factorize)
    values, counts = np.unique(lv.nums, return_counts=True)
    combo: dict[int, Fraction] = {}
    for num, count in zip(values.tolist(), counts.tolist()):
        p = Fraction(num, lv.den)
        for base, e in _log2_exponents(p, factorize):
            combo[base] = combo.get(base, ZERO) - count * e * p
    return {b: c for b, c in combo.items() if c != 0}


def _combo_float(combo: dict[int, Fraction]) -> float:
    total = 0.0
    for base in sorted(combo):
        coeff = combo[base]
        if base == 2:
            total += float(coeff)
        else:
            total += float(coeff) * math.log2(base)
    return total


def _combo_sub(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for base, c in b.items():
        out[base] = out.get(base, ZERO) - c
    return {k: v for k, v in out.items() if v != 0}


def block_entropy(m: CylinderMeasure, depth: int) -> float:
    """H_depth = -sum p log2 p over length-``depth`` cylinders, in bits."""
    _check_depth(m.alphabet_size, depth)
    return _combo_float(_entropy_combo(m.level(depth)))


def entropy_rate_profile(m: CylinderMeasure, n_max: int) -> list[float]:
    """Increments H_{k+1} - H_k for k = 1..n_max-1.

    Each increment is floated from the exact difference of the two depth
    combinations, so measures with dyadic masses give exact answers.
    """
    _check_depth(m.alphabet_size, n_max)
    if n_max < 2:
        return []
    combos = [_entropy_combo(m.level(k)) for k in range(1, n_max + 1)]
    return [_combo_float(_combo_sub(combos[k + 1], combos[k]))
            for k in range(n_max - 1)]


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
    # runs of the words b + w grouped by w, each ordered by b; summed, they
    # are the shift pushforward, whose deviation the report embeds
    ext, size, k = m.level(depth + 1), m.alphabet_size ** depth, len(members)
    shifted, order, starts = _collect(m.alphabet_size, depth, ext.codes % size,
                                      ext.nums, ext.den)
    ends = np.append(starts[1:], len(order))
    before = (ext.codes[order] // size).astype(np.int64, copy=False)
    nums = ext.nums[order]
    # a run passes if it is one right coset C.x and every weight is 1/|C|
    coset_id = g.table[np.array(members)].min(axis=0)[before]
    coset_ok = (np.minimum.reduceat(coset_id, starts)
                == np.maximum.reduceat(coset_id, starts)) & (ends - starts == k)
    den = math.lcm(own.den, ext.den)
    scaled = _fit(nums, den * k) * (den // ext.den * k)
    pos = np.searchsorted(shifted.codes, own.codes)
    found = pos < len(starts)
    found[found] = shifted.codes[pos[found]] == own.codes[found]
    want = np.zeros(len(starts), dtype=scaled.dtype)
    want[pos[found]] = _fit(own.nums[found], den * k) * (den // own.den)
    weight_ok = (np.minimum.reduceat(scaled, starts) == want) \
        & (np.maximum.reduceat(scaled, starts) == want)
    ok = found[picked]
    ok[ok] = (coset_ok & weight_ok)[pos[picked][ok]]

    checked, worst = len(picked), None
    if not ok.all():
        first = int(np.argmin(ok))
        checked = first + 1
        i = int(picked[first])
        run = slice(starts[pos[i]], ends[pos[i]]) if found[i] else slice(0, 0)
        support = before[run].tolist()
        coset = sorted(int(g.table[c, support[0]]) for c in members) \
            if support else []
        if not support:
            reason = "no predecessor has positive mass"
        elif support != coset:
            reason = f"support {support} is not the coset {coset}"
        else:
            mass, target = Fraction(int(own.nums[i]), own.den), Fraction(1, k)
            dist = [Fraction(v, ext.den) / mass for v in nums[run].tolist()]
            bad = next(j for j, v in enumerate(dist) if v != target)
            reason = f"weight at {support[bad]} is {dist[bad]}, expected {target}"
        worst = (_word(own, own.codes[i]), reason)
    shift_dev, _ = _max_deviation(own, shifted)
    return CosetMeasureReport(
        depth=depth, mass_floor=mass_floor, subgroup=members,
        passed=worst is None, words_checked=checked,
        worst_word=None if worst is None else worst[0],
        worst_reason=None if worst is None else worst[1],
        shift_deviation=shift_dev)


@dataclass(frozen=True)
class FiberRow:
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
    depth is embedded since the K-to-1 statement presumes invariance.

    The fiber of an image word w is the set of base words x with
    step(x) = w, indexed by x's first symbol; grouping the base level by
    image code lists every fiber's positive members in that order.
    """
    pushforward_ca(m, rule)     # validates the rule against the measure
    _check_depth(m.alphabet_size, depth)
    _check_depth(m.alphabet_size, depth + 1)
    n = m.alphabet_size
    base = m.level(depth + 1)
    image, first = _ca_image(rule, base.codes, depth)
    pushed, order, starts = _collect(n, depth, image, base.nums, base.den)
    words = _words(n, depth, pushed.codes)
    totals, nums = pushed.nums.tolist(), base.nums[order].tolist()
    firsts, bounds = first[order].tolist(), starts.tolist() + [len(order)]
    rows = []
    for r in np.flatnonzero(_at_least(pushed, mass_floor)).tolist():
        weights = [ZERO] * n
        for t in range(bounds[r], bounds[r + 1]):
            weights[firsts[t]] = Fraction(nums[t], totals[r])
        rows.append(FiberRow(words[r], Fraction(totals[r], base.den),
                             bounds[r + 1] - bounds[r], tuple(weights)))

    own = m.level(depth)
    if rows:
        counts = Counter(r.support_count for r in rows)
        top = max(counts.values())
        k_est = min(k for k, c in counts.items() if c == top)
        positive = {v for r in rows for v in r.weights if v > 0}
        eta = positive.pop() if len(positive) == 1 else None
        inc = _combo_sub(_entropy_combo(base), _entropy_combo(own))
        target = {b: Fraction(e) for b, e in _factorize(k_est)}
        check = abs(_combo_float(_combo_sub(inc, target)))
    else:
        k_est, eta, check = 0, None, float("nan")
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
    from pathlib import Path

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
        measure: CylinderMeasure = UniformMeasure(int(need("alphabet_size")))
    elif kind == "bernoulli":
        measure = BernoulliMeasure([parse_fraction(v)
                                    for v in need("weights").split()])
    elif kind == "markov":
        initial = [parse_fraction(v) for v in need("initial").split()]
        rows = [r for r in need("transition").split(";") if r.strip()]
        transition = [[parse_fraction(v) for v in row.split()] for row in rows]
        measure = MarkovMeasure(initial, transition)
    elif kind == "orbit":
        measure = OrbitMeasure(int(need("alphabet_size")),
                               [int(v) for v in need("period_word").split()])
    elif kind == "product":
        measure = ProductMeasure(nested("left"), nested("right"))
    elif kind == "pushforward_ca":
        from .automaton import load_rule
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
    from pathlib import Path
    p = Path(path)
    return parse_measure(p.read_text(), base_dir=p.parent)
