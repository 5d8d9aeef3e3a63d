"""Exact cylinder measures on one-sided shift spaces.

Every probability is an exact rational, so invariance statements reduce to
equalities and deviation reports carry no tolerance.  Entropies are the one
float surface; they are assembled from an exact decomposition of log2 of
each cylinder mass into prime parts, which keeps quantities like entropy
increments of dyadic measures exactly representable.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .automaton import LocalRule, fiber_preimages, is_bipermutative
from .errors import (AlphabetMismatch, AlphabetSizeMismatch, BadParams,
                     DepthTooLarge, NotASubgroup, NotBipermutative, ParseError,
                     WordTooShort, ZeroMassCondition)
from .groups import GroupTable

WORD_ENUMERATION_BOUND = 2 ** 20

Word = tuple[int, ...]
ZERO = Fraction(0)
ONE = Fraction(1)


class CylinderMeasure:
    """Base evaluator: exact mass of the cylinder fixing a finite prefix.

    Subclasses implement ``_eval`` for nonempty words; results are memoized.
    All kinds satisfy right additivity, eval(w) = sum_b eval(w + (b,)),
    which the traversal helpers rely on for pruning.
    """

    kind = "abstract"

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise BadParams("alphabet size must be positive")
        self.alphabet_size = alphabet_size
        self._cache: dict[Word, Fraction] = {}

    def eval(self, word: Sequence[int]) -> Fraction:
        w = tuple(int(s) for s in word)
        for s in w:
            if not 0 <= s < self.alphabet_size:
                raise AlphabetMismatch(s, self.alphabet_size)
        if not w:
            return ONE
        hit = self._cache.get(w)
        if hit is None:
            hit = self._cache[w] = self._eval(w)
        return hit

    def _eval(self, word: Word) -> Fraction:
        raise NotImplementedError

    def positive_words(self, depth: int) -> Iterator[tuple[Word, Fraction]]:
        """All positive-mass words of the given length, lexicographically.

        Zero-mass subtrees are pruned, which additivity makes exact.
        """
        def rec(w: Word, p: Fraction):
            if len(w) == depth:
                yield w, p
                return
            for b in range(self.alphabet_size):
                q = self.eval(w + (b,))
                if q > 0:
                    yield from rec(w + (b,), q)

        if depth == 0:
            yield (), ONE
            return
        yield from rec((), ONE)

    def describe(self) -> str:
        return self.kind


class UniformMeasure(CylinderMeasure):
    """Uniform Bernoulli: every length-M cylinder has mass 1/N^M."""

    kind = "uniform"

    def _eval(self, word: Word) -> Fraction:
        return Fraction(1, self.alphabet_size ** len(word))


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


class ShiftPushforward(CylinderMeasure):
    """Image measure under the one-sided shift: eval(w) = sum_b base(b + w)."""

    kind = "pushforward_shift"

    def __init__(self, base: CylinderMeasure):
        super().__init__(base.alphabet_size)
        self.base = base

    def _eval(self, word: Word) -> Fraction:
        return sum((self.base.eval((b,) + word)
                    for b in range(self.alphabet_size)), ZERO)


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


@dataclass(frozen=True)
class InvarianceReport:
    transform: str
    depth: int
    max_abs_deviation: Fraction
    worst_word: Word | None


def invariance_report(m: CylinderMeasure, depth: int,
                      rule: LocalRule | None = None) -> InvarianceReport:
    """Exact maximum of |pushforward(w) - m(w)| over all words of the depth.

    ``rule`` selects the CA pushforward; None selects the shift.
    """
    _check_depth(m.alphabet_size, depth)
    pushed = pushforward_shift(m) if rule is None else pushforward_ca(m, rule)
    best, best_word = ZERO, None

    def rec(w: Word):
        nonlocal best, best_word
        p, q = m.eval(w), pushed.eval(w)
        if len(w) == depth:
            d = abs(p - q)
            if d > best:
                best, best_word = d, w
            return
        if p == 0 and q == 0:
            return
        for b in range(m.alphabet_size):
            rec(w + (b,))

    rec(())
    return InvarianceReport("shift" if rule is None else "ca",
                            depth, best, best_word)


# --- exact entropy machinery ------------------------------------------------

_TRIAL_LIMIT = 10 ** 6
_factor_cache: dict[int, tuple[tuple[int, int], ...]] = {}


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(base, exponent) pairs for n >= 1; a cofactor above the trial bound
    is kept whole, which only coarsens cross-depth cancellation."""
    if n in _factor_cache:
        return _factor_cache[n]
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
    result = tuple(out)
    if n <= 10 ** 12:
        _factor_cache[n] = result
    return result


def _log2_exponents(value: Fraction) -> tuple[tuple[int, int], ...]:
    """log2(value) = sum exponent * log2(base) over the returned pairs."""
    pairs = dict(_factorize(value.numerator))
    for base, e in _factorize(value.denominator):
        pairs[base] = pairs.get(base, 0) - e
    return tuple(sorted(pairs.items()))


def _entropy_combo(m: CylinderMeasure, depth: int) -> dict[int, Fraction]:
    """H_depth as an exact linear combination {base: coeff} of log2(base)."""
    combo: dict[int, Fraction] = {}
    for _, p in m.positive_words(depth):
        for base, e in _log2_exponents(p):
            combo[base] = combo.get(base, ZERO) - p * e
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
    return _combo_float(_entropy_combo(m, depth))


def entropy_rate_profile(m: CylinderMeasure, n_max: int) -> list[float]:
    """Increments H_{k+1} - H_k for k = 1..n_max-1.

    Each increment is floated from the exact difference of the two depth
    combinations, so measures with dyadic masses give exact answers.
    """
    if n_max < 2:
        return []
    _check_depth(m.alphabet_size, n_max)
    combos = [_entropy_combo(m, k) for k in range(1, n_max + 1)]
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


def coset_measure_check(m: CylinderMeasure, g: GroupTable,
                        subgroup_members: Sequence[int], depth: int,
                        mass_floor: Fraction = ZERO) -> CosetMeasureReport:
    """Check that conditional distributions are uniform on right cosets.

    For every length-``depth`` word of mass at least ``mass_floor``, the
    conditional distribution of the preceding symbol must be supported on a
    single right coset C.x and assign 1/|C| to each member.  The shift
    deviation at the same depth is embedded, since the statement presumes a
    shift-invariant measure.
    """
    if m.alphabet_size != g.order:
        raise AlphabetSizeMismatch("group", g.order,
                                   "measure alphabet", m.alphabet_size)
    members = tuple(sorted({int(c) for c in subgroup_members}))
    if not members:
        raise NotASubgroup(members, "empty")
    if g.identity not in members:
        raise NotASubgroup(members, "missing identity")
    mset = set(members)
    for a in members:
        if g.inv(a) not in mset:
            raise NotASubgroup(members, f"not closed under inverse at {a}")
        for b in members:
            if g.mul(a, b) not in mset:
                raise NotASubgroup(members, f"not closed at ({a}, {b})")
    _check_depth(m.alphabet_size, depth)

    target = Fraction(1, len(members))
    checked = 0
    worst: tuple[Word, str] | None = None
    for w, mass in m.positive_words(depth):
        if mass < mass_floor:
            continue
        checked += 1
        dist = conditional_dist(m, w)
        support = [b for b in range(g.order) if dist[b] > 0]
        coset = sorted(g.mul(c, support[0]) for c in members)
        if support != coset:
            worst = (w, f"support {support} is not the coset {coset}")
            break
        bad = [b for b in support if dist[b] != target]
        if bad:
            worst = (w, f"weight at {bad[0]} is {dist[bad[0]]}, expected {target}")
            break
    shift_dev = invariance_report(m, depth).max_abs_deviation
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
    """
    pushed = pushforward_ca(m, rule)
    _check_depth(m.alphabet_size, depth + 1)
    rows = []
    for w, total in pushed.positive_words(depth):
        if total < mass_floor:
            continue
        masses = [m.eval(f) for f in fiber_preimages(rule, w)]
        weights = tuple(v / total for v in masses)
        rows.append(FiberRow(w, total, sum(1 for v in weights if v > 0), weights))

    if rows:
        counts = Counter(r.support_count for r in rows)
        top = max(counts.values())
        k_est = min(k for k, c in counts.items() if c == top)
        positive = {v for r in rows for v in r.weights if v > 0}
        eta = positive.pop() if len(positive) == 1 else None
        inc = _combo_sub(_entropy_combo(m, depth + 1), _entropy_combo(m, depth))
        target = {b: Fraction(e) for b, e in _factorize(k_est)}
        check = abs(_combo_float(_combo_sub(inc, target)))
    else:
        k_est, eta, check = 0, None, float("nan")
    dev = invariance_report(m, depth, rule).max_abs_deviation
    return FiberReport(depth=depth, mass_floor=mass_floor, rows=tuple(rows),
                       K_estimate=k_est, eta_constant=eta,
                       entropy_check=check, invariance_deviation=dev)


def support_alphabet(m: CylinderMeasure, depth: int
                     ) -> tuple[frozenset[int], bool]:
    """Symbols of positive single-site mass, and whether every length-
    ``depth`` word over them has positive mass."""
    if depth < 2:
        raise BadParams("support check needs depth >= 2")
    symbols = [b for b in range(m.alphabet_size) if m.eval((b,)) > 0]
    if len(symbols) ** depth > WORD_ENUMERATION_BOUND:
        raise DepthTooLarge(len(symbols), depth, WORD_ENUMERATION_BOUND)
    full = True

    def rec(w: Word) -> bool:
        if len(w) == depth:
            return True
        for b in symbols:
            ext = w + (b,)
            if m.eval(ext) == 0 or not rec(ext):
                return False
        return True

    full = rec(())
    return frozenset(symbols), full


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
