"""Cellular-automaton rules on finite one-sided words.

Everything here runs on finite words: a length-n word determines images of
the local map down to length 1, which is all the constructions need.  The
nearest-neighbour case (left radius 0, right radius 1) is the workhorse;
general rules exist mainly to be recoded down to it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NotBipermutative, ParseError, PeriodTooLarge, WordTooShort
from .quasigroup import (Quasigroup, check_table_size, first_repeat,
                         freeze_table, index_dtype, int_rows, pack_digits,
                         row_inverses, unpack_digits)

RULE_TABLE_BOUND = 2 ** 24
PERIODIC_STATE_BOUND = 2 ** 20


@dataclass(frozen=True, eq=False)
class LocalRule:
    """Dense lookup table for a local map on ``left_radius + right_radius + 1``
    neighbours over an alphabet of indices 0..N-1."""

    alphabet_size: int
    left_radius: int
    right_radius: int
    table: np.ndarray  # shape (N,) * arity, read-only

    @property
    def arity(self) -> int:
        return self.left_radius + self.right_radius + 1

    @property
    def is_rnnca(self) -> bool:
        return self.left_radius == 0 and self.right_radius == 1

    def apply(self, *neighbourhood: int) -> int:
        return int(self.table[neighbourhood])

    @cached_property
    def _pair_rows(self):
        """rows[a][b] = table[a, b] as a Python int, for two-symbol windows."""
        return int_rows(self.table) if self.arity == 2 else None

    @cached_property
    def _bipermutative(self) -> bool:
        return is_left_permutative(self) and is_right_permutative(self)

    @cached_property
    def _solve_rows(self) -> np.ndarray:
        """right_solve[a, v] = the b with table[a, b] = v (bipermutative only)."""
        if not self.is_rnnca or not self._bipermutative:
            raise NotBipermutative("rule has no right-cancellation table")
        return row_inverses(self.table)

    @cached_property
    def solve(self):
        """solve[a][v] = the b with table[a, b] = v, as a Python int."""
        return int_rows(self._solve_rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalRule):
            return NotImplemented
        return (self.alphabet_size == other.alphabet_size
                and self.left_radius == other.left_radius
                and self.right_radius == other.right_radius
                and np.array_equal(self.table, other.table))

    def __repr__(self) -> str:
        return (f"LocalRule(N={self.alphabet_size}, l={self.left_radius}, "
                f"r={self.right_radius})")


def make_rule(alphabet_size: int, left_radius: int, right_radius: int,
              table) -> LocalRule:
    n, arity = alphabet_size, left_radius + right_radius + 1
    check_table_size(n ** arity)
    arr = np.asarray(table).reshape((n,) * arity)
    # range-check before narrowing, so no entry wraps into 0..N-1
    if arr.min() < 0 or arr.max() >= n:
        raise ParseError("rule table entries must lie in 0..N-1")
    return LocalRule(n, left_radius, right_radius, freeze_table(arr))


def from_quasigroup(q: Quasigroup) -> LocalRule:
    """Nearest-neighbour rule phi(a, b) = a * b."""
    return make_rule(q.order, 0, 1, q.table)


def is_left_permutative(rule: LocalRule) -> bool:
    """True when the leftmost coordinate acts bijectively for every fixed rest."""
    n = rule.alphabet_size
    return first_repeat(rule.table.reshape(n, -1).T) is None


def is_right_permutative(rule: LocalRule) -> bool:
    """True when the rightmost coordinate acts bijectively for every fixed rest."""
    n = rule.alphabet_size
    return first_repeat(rule.table.reshape(-1, n)) is None


def is_bipermutative(rule: LocalRule) -> bool:
    """Left and right permutative; computed once per rule, since the table
    is read-only."""
    return rule._bipermutative


def _require_bipermutative(rule: LocalRule) -> None:
    if not rule.is_rnnca:
        raise NotBipermutative("rule is not nearest-neighbour")
    if not rule._bipermutative:
        raise NotBipermutative("rule is not bipermutative")


def step(rule: LocalRule, word: Sequence[int]) -> tuple[int, ...]:
    """One application of the rule; the word shrinks by arity - 1."""
    w = tuple(word)
    rows = rule._pair_rows
    if rows is not None and len(w) > 1:
        return tuple([rows[a][b] for a, b in zip(w, w[1:])])
    m = rule.arity - 1
    if len(w) < m + 1:
        raise WordTooShort(len(w), m + 1)
    t = rule.table
    return tuple(int(t[w[i:i + m + 1]]) for i in range(len(w) - m))


def step_periodic(rule: LocalRule, word: Sequence[int]) -> tuple[int, ...]:
    """Step a periodic point given by one period; the period length is kept."""
    w = tuple(word)
    if not w:
        raise WordTooShort(0, 1)
    m = rule.arity - 1
    ext = w + w * ((m + len(w) - 1) // len(w))
    return step(rule, ext)[:len(w)]


def orbit_period(rule: LocalRule, word: Sequence[int]) -> tuple[int, int]:
    """(preperiod, period) of the rule acting on the periodic point word^inf."""
    w = tuple(word)
    if not w:
        raise WordTooShort(0, 1)
    n = rule.alphabet_size
    if n ** len(w) > PERIODIC_STATE_BOUND:
        raise PeriodTooLarge(n, len(w), PERIODIC_STATE_BOUND)
    seen: dict[tuple[int, ...], int] = {}
    cur, t = w, 0
    while cur not in seen:
        seen[cur] = t
        cur = step_periodic(rule, cur)
        t += 1
    first = seen[cur]
    return first, t - first


def _walk(solve, starts, word: Sequence[int]) -> list[tuple[int, ...]]:
    """The preimage of word from each first symbol b in starts: x0 = b and
    x_{i+1} = solve[x_i][word_i]."""
    out = []
    for b in starts:
        x = [b]
        for v in word:
            b = solve[b][v]
            x.append(b)
        out.append(tuple(x))
    return out


def fiber_preimages(rule: LocalRule, word: Sequence[int]) -> list[tuple[int, ...]]:
    """The N preimages of ``word`` under one step, indexed by first symbol.

    Preimage b is rebuilt by right-cancellation: x0 = b and x_{i+1} is the
    unique symbol with phi(x_i, x_{i+1}) = word_i.
    """
    _require_bipermutative(rule)
    return _walk(rule.solve, range(rule.alphabet_size), tuple(word))


def tau(rule: LocalRule, word: Sequence[int]) -> tuple[int, ...]:
    """The fiber companion whose first symbol is incremented mod N.

    The identification of the alphabet with Z/N is fixed to table index
    order, so tau cycles each fiber in index order.
    """
    w = tuple(word)
    if len(w) < 2:
        raise WordTooShort(len(w), 2)
    _require_bipermutative(rule)
    b = (w[0] + 1) % rule.alphabet_size
    return _walk(rule.solve, (b,), step(rule, w))[0]


def _heads(rows, word: Sequence[int]) -> tuple[int, ...]:
    """First symbols of word, of its image [rows[a][b] for each window ab],
    and so on down to one symbol; each image overwrites the word in place."""
    cur, out = list(word), []
    for m in range(len(cur) - 1, -1, -1):
        out.append(cur[0])
        for i in range(m):
            cur[i] = rows[cur[i]][cur[i + 1]]
    return tuple(out)


def xi(rule: LocalRule, word: Sequence[int]) -> tuple[int, ...]:
    """Trajectory-of-first-symbols map: output t is (step^t word)[0]."""
    if not rule.is_rnnca:
        raise NotBipermutative("rule is not nearest-neighbour")
    return _heads(rule._pair_rows, word)


def xi_inverse(rule: LocalRule, word: Sequence[int]) -> tuple[int, ...]:
    """The unique preimage of ``word`` under :func:`xi`.

    Column t of the space-time triangle is recovered from column t-1 by
    right-cancellation, left to right: xi of the dual rule.
    """
    _require_bipermutative(rule)
    return _heads(rule.solve, word)


def dual_rule(rule: LocalRule) -> LocalRule:
    """Nearest-neighbour rule of the dual operation a ^ b (solve a * c = b)."""
    _require_bipermutative(rule)
    return make_rule(rule.alphabet_size, 0, 1, rule._solve_rows)


# ---------------------------------------------------------------------------
# block recoding to a nearest-neighbour rule

@dataclass(frozen=True, eq=False)
class BlockRecoding:
    """Nearest-neighbour recoding of a wider rule over blocks of ``block``
    symbols; ``encode . step == step_gamma . encode`` exactly on words."""

    rule: LocalRule            # the recoded RNNCA over alphabet N**block
    block: int
    base_alphabet: int

    def pack(self, block_word: Sequence[int]) -> int:
        return pack_digits(self.base_alphabet, block_word)

    def unpack(self, value: int) -> tuple[int, ...]:
        return unpack_digits(self.base_alphabet, self.block, value)

    def encode(self, word: Sequence[int]) -> tuple[int, ...]:
        w = tuple(word)
        m = self.block
        return tuple(self.pack(w[i:i + m]) for i in range(0, len(w) - m + 1, m))

    def decode(self, word: Sequence[int]) -> tuple[int, ...]:
        out: list[int] = []
        for v in word:
            out.extend(self.unpack(v))
        return tuple(out)


def recode_block(rule: LocalRule) -> BlockRecoding:
    """Recode a rule with ``left_radius + right_radius >= 1`` to a
    nearest-neighbour rule over non-overlapping blocks.

    For blocks u, v, the recoded local map is the full step of the rule on
    the concatenated word u + v, which is again one block.  Bipermutativity
    transfers in both directions.

    The table is built whole, one image symbol z at a time: the window
    z..z+m of every pair u + v is one read of the rule table at the code of
    the tail of u (rows) and the code of the head of v (columns).
    """
    m = rule.left_radius + rule.right_radius
    if m < 1:
        raise ParseError("recode needs left_radius + right_radius >= 1")
    n = rule.alphabet_size
    if m == 1 and rule.is_rnnca:
        return BlockRecoding(rule, 1, n)
    big = n ** m
    check_table_size(big * big)
    u = np.arange(big)
    table = np.zeros((big, big), dtype=index_dtype(big))
    for z in range(m):
        table *= n
        table += rule.table.reshape(n ** (m - z), -1)[
            (u % n ** (m - z))[:, None], u // n ** (m - 1 - z)]
    gamma = make_rule(big, 0, 1, table)
    return BlockRecoding(gamma, m, n)


# ---------------------------------------------------------------------------
# rule file format
#
# Either a single line "quasigroup <path>" (table file, resolved relative to
# the rule file) or: line 1 = "N l r", then one line per neighbourhood,
# "t_1 ... t_arity out", all as indices, in any order, each exactly once.

def parse_rule(text: str, resolve: Callable[[str], Quasigroup] | None = None
               ) -> LocalRule:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty rule file")
    head = lines[0].split()
    if head[0] == "quasigroup":
        if len(head) != 2:
            raise ParseError("quasigroup line takes one path")
        if resolve is None:
            raise ParseError("no table resolver supplied for quasigroup rule")
        return from_quasigroup(resolve(head[1]))
    if len(head) != 3:
        raise ParseError('rule header must be "N l r"')
    try:
        n, l, r = (int(v) for v in head)
    except ValueError:
        raise ParseError('rule header must be "N l r" with integers') from None
    if n < 1 or l < 0 or r < 0:
        raise ParseError("need N >= 1, l >= 0, r >= 0")
    arity = l + r + 1
    check_table_size(n ** arity)
    table = np.full((n,) * arity, -1, dtype=np.int64)
    if len(lines) != 1 + n ** arity:
        raise ParseError(f"expected {n ** arity} neighbourhood lines, "
                         f"got {len(lines) - 1}")
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != arity + 1:
            raise ParseError(f"bad neighbourhood line {line!r}")
        try:
            vals = [int(v) for v in parts]
        except ValueError:
            raise ParseError(f"bad neighbourhood line {line!r}") from None
        nbhd, out = tuple(vals[:arity]), vals[arity]
        if not all(0 <= v < n for v in nbhd) or not 0 <= out < n:
            raise ParseError(f"indices out of range in {line!r}")
        if table[nbhd] != -1:
            raise ParseError(f"duplicate neighbourhood {nbhd}")
        table[nbhd] = out
    return make_rule(n, l, r, table)


def format_rule(rule: LocalRule) -> str:
    n = rule.alphabet_size
    lines = [f"{n} {rule.left_radius} {rule.right_radius}"]
    flat = rule.table.reshape(-1)
    arity = rule.arity
    for i, out in enumerate(flat.tolist()):
        nbhd = unpack_digits(n, arity, i)
        lines.append(" ".join(str(x) for x in (*nbhd, out)))
    return "\n".join(lines) + "\n"


def load_rule(path) -> LocalRule:
    from pathlib import Path
    from .quasigroup import load_table
    p = Path(path)
    return parse_rule(p.read_text(),
                      resolve=lambda rel: load_table(p.parent / rel))
