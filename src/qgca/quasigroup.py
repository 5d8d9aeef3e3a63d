"""Finite quasigroups: Latin-square validation, duals, subquasigroup search,
and the built-in example tables used throughout the tool.

A quasigroup is stored as a table of symbol indices whose rows and columns
are all permutations (a Latin square).  Symbols are user-facing names; every
computation runs on dense indices 0..N-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (BadEntry, BadParams, DuplicateInColumn, DuplicateInRow,
                     OrderTooLarge, ParseError, TableTooLarge, TooLarge,
                     UnknownName, read_int)

# largest order the closed-subset enumerators accept
CLOSURE_ORDER_BOUND = 64


@dataclass(frozen=True, eq=False)
class Quasigroup:
    """A finite set with a binary operation whose table is a Latin square.

    ``table[i, j]`` is the index of ``symbols[i] * symbols[j]``.  Instances
    are immutable and always valid; construct them through
    :func:`validate_latin` or :func:`builtin`.
    """

    symbols: tuple[str, ...]
    table: np.ndarray

    @property
    def order(self) -> int:
        return len(self.symbols)

    @cached_property
    def rows(self):
        """rows[a][b] = table[a, b] as a Python int (see :func:`int_rows`)."""
        return int_rows(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def index(self, name: str) -> int:
        try:
            return self.symbols.index(name)
        except ValueError:
            raise ParseError(f"unknown symbol name {name!r}") from None

    def word(self, text: str | Iterable[str]) -> tuple[int, ...]:
        """Parse a whitespace-separated sequence of symbol names."""
        names = text.split() if isinstance(text, str) else list(text)
        return tuple(self.index(n) for n in names)

    def names(self, word: Iterable[int]) -> str:
        return " ".join(self.symbols[s] for s in word)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quasigroup):
            return NotImplemented
        return self.symbols == other.symbols and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return f"Quasigroup(order={self.order}, symbols={self.symbols[:4]}...)"


def index_dtype(n: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every symbol index
    0..n-1: int16 up to 2**15 symbols, int32 above.  Every symbol-index
    table is stored in it; arithmetic that can leave 0..n-1 must widen."""
    return np.dtype(np.int16 if n <= 2 ** 15 else np.int32)


def check_table_size(entries: int) -> None:
    """Raise TableTooLarge, before a rule or quasigroup table is allocated,
    when its entries exceed ``automaton.RULE_TABLE_BOUND``."""
    from .automaton import RULE_TABLE_BOUND     # automaton imports this module
    if entries > RULE_TABLE_BOUND:
        raise TableTooLarge(entries, RULE_TABLE_BOUND)


# Entries per block of every table pass.  A block's temporaries then stay
# under glibc's 128 KiB mmap threshold: they are reused from the heap, where
# larger ones are mapped and zero-filled again for every block.
BLOCK = 2 ** 16

# largest alphabet whose table rows int_rows builds as tuples of Python ints
_SMALL_ALPHABET = 512


def row_blocks(n: int):
    """The row slices of an n x n table, about BLOCK entries each, in order."""
    step = max(1, BLOCK // n)
    return (slice(r, r + step) for r in range(0, n, step))


def first_hit(mask_rows, n: int) -> tuple[int, int] | None:
    """Row-major (a, b) of the first True entry of an n x n mask, read one
    row block at a time from mask_rows(rows), or None."""
    for rows in row_blocks(n):
        mask = mask_rows(rows)
        i = int(mask.argmax())
        if mask.flat[i]:
            return divmod(rows.start * n + i, n)
    return None


def row_solutions(table: np.ndarray, v: int) -> np.ndarray:
    """out[a] = the b with table[a, b] == v, for an n x n table whose rows
    are permutations; read one row block at a time."""
    out = np.empty(len(table), dtype=np.intp)
    for r in row_blocks(len(table)):
        np.argmax(table[r] == v, axis=1, out=out[r])
    return out


def row_inverses(table: np.ndarray) -> np.ndarray:
    """out[a, v] = the b with table[a, b] = v, for an n x n table whose rows
    are permutations; scattered one row block at a time, in its dtype."""
    n = len(table)
    out = np.empty_like(table)
    cols = np.arange(n, dtype=table.dtype)
    for r in row_blocks(n):
        t = table[r]
        out[r][np.arange(len(t))[:, None], t] = cols
    return out


def int_rows(table: np.ndarray):
    """Rows of an n x n table indexed rows[a][b] to a Python int: tuples of
    ints on small alphabets, memoryviews of the numpy rows above that, so no
    n^2 Python ints are built."""
    if len(table) <= _SMALL_ALPHABET:
        return tuple(map(tuple, table.tolist()))
    return tuple(map(memoryview, table))


def freeze_table(arr: np.ndarray) -> np.ndarray:
    """The table over len(arr) symbols as a read-only contiguous array in
    their index dtype, copied only when it is not one already."""
    arr = np.ascontiguousarray(arr, dtype=index_dtype(len(arr)))
    arr.flags.writeable = False
    return arr


def first_repeat(lines: np.ndarray) -> tuple[int, int, int] | None:
    """First line of an m x n array with entries in 0..n-1 that is not a
    permutation, as (line, first position, repeat position) of its first
    repeated entry; None when every line is a permutation.  The hits are
    marked one block of about BLOCK entries at a time."""
    m, n = lines.shape
    rows = max(1, BLOCK // n)
    for lo in range(0, m, rows):
        block = lines[lo:lo + rows]
        hit = np.zeros(block.shape, dtype=bool)
        hit[np.arange(len(block))[:, None], block] = True
        bad = ~hit.all(axis=1)
        if bad.any():
            break
    else:
        return None
    line = lo + int(bad.argmax())
    entries = lines[line].tolist()
    first = {}
    pos = next(i for i, v in enumerate(entries) if first.setdefault(v, i) != i)
    return line, first[entries[pos]], pos


def validate_latin(table, symbols: Sequence[str] | None = None) -> Quasigroup:
    """Validate an N x N index table as a Latin square and wrap it.

    Reports the first offending entry, row, or column: entries must lie in
    0..N-1, and every row and column must be a permutation.  An integer
    ndarray is checked in its own dtype, one row block at a time, and is
    kept as the table when it is read-only in the index dtype already.
    """
    native = isinstance(table, np.ndarray) and table.dtype.kind in "iu"
    arr = np.asarray(table) if native else np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ParseError(f"table must be square and nonempty, got shape {arr.shape}")
    n = arr.shape[0]
    symbols = tuple(map(str, range(n)) if symbols is None else symbols)
    if len(symbols) != n:
        raise ParseError(f"{len(symbols)} symbols for a {n}x{n} table")
    if len(set(symbols)) != n:
        raise ParseError("symbol names must be distinct")

    bad = first_hit(lambda r: (arr[r] < 0) | (arr[r] >= n), n)
    if bad is not None:
        raise BadEntry(*bad)
    repeat = first_repeat(arr)
    if repeat:
        raise DuplicateInRow(*repeat)
    repeat = first_repeat(arr.T)
    if repeat:
        raise DuplicateInColumn(*repeat)
    if native and arr.flags.writeable:
        # a copy, so that freezing the table leaves the caller's array as is
        arr = arr.astype(index_dtype(n), order="C")
    return Quasigroup(symbols, freeze_table(arr))


def dual(q: Quasigroup) -> Quasigroup:
    """The dual operation: ``a ^ b`` is the unique c with ``a * c = b``."""
    return Quasigroup(q.symbols, freeze_table(row_inverses(q.table)))


def greedy_generators(table: np.ndarray, inside: np.ndarray):
    """Yield the least element g outside the bool mask ``inside``, grow the
    mask in place to its closure under right products with g and the
    earlier yields, and repeat until it is full.  From a group's identity
    the mask is the subgroup they generate, at least doubled by each."""
    gens: list[int] = []
    while not inside.all():
        g = int(inside.argmin())
        yield g
        gens.append(g)
        # the mask so far is closed under the earlier elements
        new = np.zeros_like(inside)
        new[table[inside, g]] = True
        new[g] = True
        while (frontier := np.flatnonzero(new > inside)).size:
            inside[frontier] = True
            new[table[frontier[:, None], gens]] = True


def associativity_witness(q: Quasigroup) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None.

    Light's test (Clifford and Preston, 1961): the first factors that pass
    are closed under products, so only the :func:`greedy_generators` from an
    empty mask are compared, each in row blocks over b; every factor below
    one compared lies in the mask of passed factors.  A proper subquasigroup
    has at most half the order: at most floor(log2 N) + 1 are compared."""
    t = q.table
    for a in greedy_generators(t, np.zeros(q.order, dtype=bool)):
        # [b, c] entries (a*b)*c and a*(b*c), for the b in r
        bad = first_hit(lambda r: t[t[a, r]] != t[a][t[r]], q.order)
        if bad is not None:
            return (a, *bad)
    return None


def is_associative(q: Quasigroup) -> bool:
    return associativity_witness(q) is None


def closure(q: Quasigroup, seed: Iterable[int],
            unary: Sequence[Sequence[int]] = (),
            base: Iterable[int] = ()) -> frozenset[int]:
    """Smallest subset containing ``seed`` and the closed set ``base``, closed
    under the operation and each map in ``unary`` (an image tuple).  Each new
    element is multiplied, on both sides, only with the elements taken before
    it, base first: every product is formed once, none of two base elements.
    """
    rows, done = q.rows, list(base)
    members = set(done).union(seed)
    todo = list(members.difference(done))
    while todo:
        a = todo.pop()
        done.append(a)
        ra = rows[a]
        found = [f[a] for f in unary]
        for b in done:
            found += ra[b], rows[b][a]
        new = set(found) - members
        members |= new
        todo += new
    return frozenset(members)


def closed_sets(n: int, close, bound: int | None = None,
                what: str = "family") -> list:
    """Every closed set that one or more of the items 0..n-1 generate under
    a closure operator, each once, by Fast Close-by-One (Outrata and
    Vychodil, Information Sciences 185, 2012), with sets as int bitmasks.

    ``close(x, j)`` returns (mask, state) of the closure of item j and the
    closed set with state x (the empty set's is ()), or None to leave that
    set out, which suits only the set of all items.  A child z of x is kept
    when it adds no item below j, so each set has one parent; a rejected z
    is passed down, and a descendant y skips j when z has an item below j
    outside y, as the closure of y and j would too.  Returns the states;
    raises TooLarge when there are more than ``bound`` of them.
    """
    out = []

    def search(x, state, start, failed):
        kids = []
        failed = failed[:]      # failed[j]: what a rejected z added below j
        for j in range(start, n):
            if x >> j & 1 or failed[j] & ~x:
                continue
            got = close(state, j)
            if got:
                if new := got[0] & ~x & (1 << j) - 1:
                    failed[j] = new
                elif len(out) == bound:
                    raise TooLarge(f"{what} exceeds {bound}")
                else:
                    out.append(got[1])
                    kids.append((j, *got))
        for j, z, kid in kids:
            search(z, kid, j + 1, failed)

    search(0, (), 0, [0] * n)
    return out


def subquasigroups(q: Quasigroup, include_trivial: bool = False,
                   unary: Sequence[Sequence[int]] = ()
                   ) -> list[tuple[int, ...]]:
    """All nonempty subsets closed under the operation and the maps in
    ``unary``, enumerated by :func:`closed_sets` over the elements.

    By default only proper subsets of size >= 2 are returned;
    ``include_trivial`` adds the closed singletons and the full set.
    """
    n = q.order
    if n > CLOSURE_ORDER_BOUND:
        raise OrderTooLarge(n, CLOSURE_ORDER_BOUND)

    def close(x, j):
        z = closure(q, (j,), unary, x)
        return sum(1 << a for a in z), z

    return sorted((tuple(sorted(s)) for s in closed_sets(n, close)
                   if include_trivial or 1 < len(s) < n),
                  key=lambda s: (len(s), s))


# ---------------------------------------------------------------------------
# base-p digits and primality

def pack_digits(base: int, digits):
    """The integer whose base-``base`` digits, most significant first, are
    ``digits`` (each reduced mod ``base``).  Digits may be ints or equal-shape
    integer arrays; arrays are packed elementwise."""
    value = 0
    for d in digits:
        value = value * base + d % base
    return value


def unpack_digits(base: int, width: int, value) -> tuple:
    """The ``width`` base-``base`` digits of ``value``, most significant
    first.  For an integer array ``value`` each digit is an array; object
    arrays of Python ints work too."""
    out = []
    for _ in range(width):
        out.append(value % base)
        value = value // base
    return tuple(reversed(out))


# Miller-Rabin bases: the first 13 primes, which decide every n below
# psi_13 (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin over
    ``_PRIME_BASES``; raises TooLarge at or past ``PRIME_TEST_BOUND``,
    where those bases no longer decide."""
    if n >= PRIME_TEST_BOUND:
        raise TooLarge(f"{n} is not below the primality test bound "
                       f"{PRIME_TEST_BOUND}")
    if n <= _PRIME_BASES[-1] or n % 2 == 0:
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1     # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# built-in tables

_D7_SYMBOLS = ("a1", "a2", "b1", "b2", "c1", "c2", "c3")
_D7_TABLE = (
    (0, 1, 4, 5, 3, 2, 6),
    (1, 0, 5, 4, 2, 6, 3),
    (4, 6, 2, 3, 5, 0, 1),
    (6, 4, 3, 2, 0, 1, 5),
    (2, 3, 6, 0, 1, 5, 4),
    (3, 5, 0, 1, 6, 4, 2),
    (5, 2, 1, 6, 4, 3, 0),
)

QUATERNION_SYMBOLS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _quaternion_mul(a: int, b: int) -> int:
    # element 2*axis + sign, axes (1, i, j, k), sign 1 means negated
    sa, xa = a % 2, a // 2
    sb, xb = b % 2, b // 2
    s = sa ^ sb
    if xa == 0:
        return 2 * xb + s
    if xb == 0:
        return 2 * xa + s
    if xa == xb:
        return s ^ 1
    # the third axis, 6 - xa - xb, negated unless xa, xb run in i, j, k order
    return 2 * (6 - xa - xb) + (s ^ ((xb - xa) % 3 == 2))


def _shifts(n: int):
    """An n x n view whose row a is 0..n-1 rotated left by a, so entry
    (a, b) is (a + b) mod n: entry a + b of 0..n-1 repeated twice."""
    idx = np.tile(np.arange(n, dtype=index_dtype(n)), 2)
    return np.lib.stride_tricks.as_strided(idx, (n, n), idx.strides * 2)


def _cyclic(n: int) -> Quasigroup:
    if n < 1:
        raise BadParams(f"cyclic order must be positive, got {n}")
    check_table_size(n * n)
    return Quasigroup(tuple(str(i) for i in range(n)), freeze_table(_shifts(n)))


def _ledrappier(p: int, c0: int, c1: int) -> Quasigroup:
    if not is_prime(p):
        raise BadParams(f"ledrappier modulus must be prime, got {p}")
    if not (0 < c0 % p and 0 < c1 % p):
        raise BadParams("ledrappier coefficients must be nonzero mod p")
    check_table_size(p * p)
    idx = np.arange(p)
    table = _shifts(p)[np.ix_(c0 * idx % p, c1 * idx % p)]
    return Quasigroup(tuple(str(i) for i in range(p)), freeze_table(table))


def _quaternion() -> Quasigroup:
    table = [[_quaternion_mul(a, b) for b in range(8)] for a in range(8)]
    return Quasigroup(QUATERNION_SYMBOLS, freeze_table(np.array(table)))


def _nonabelian21() -> Quasigroup:
    # semidirect product Z/7 x| Z/3: (i,j)*(k,l) = (i + k*2^j mod 7, j+l mod 3)
    def name(i, j):
        if i == 0 and j == 0:
            return "e"
        if j == 0:
            return f"a{i}"
        if i == 0:
            return f"b{j}"
        return f"a{i}b{j}"

    pairs = [divmod(u, 3) for u in range(21)]
    table = [[(i + k * 2 ** j) % 7 * 3 + (j + l) % 3 for k, l in pairs]
             for i, j in pairs]
    return Quasigroup(tuple(name(i, j) for i, j in pairs),
                      freeze_table(np.array(table)))


def product(left: Quasigroup, right: Quasigroup) -> Quasigroup:
    """Componentwise product; combined index is left_index * |right| + right_index.

    Entry ((a, b), (c, d)) sits at [a, b, c, d] of one broadcast add of the
    scaled left table and the right table, both first cast to the product's
    index dtype.  The right table is the last axis, so numpy's inner loop
    runs over |right| entries."""
    nl, nr = left.order, right.order
    check_table_size((nl * nr) ** 2)
    dtype = index_dtype(nl * nr)
    high = (left.table * np.int64(nr)).astype(dtype)
    table = high[:, None, :, None] + right.table.astype(dtype)[:, None]
    symbols = tuple(f"({left.symbols[a]},{right.symbols[b]})"
                    for a in range(nl) for b in range(nr))
    return Quasigroup(symbols, freeze_table(table.reshape(nl * nr, -1)))


def _factor(f) -> Quasigroup:
    return f if isinstance(f, Quasigroup) else builtin_from_spec(str(f))


# name -> (parameter count, constructor taking the parameters)
_BUILTINS = {
    "D7": (0, lambda: validate_latin(_D7_TABLE, _D7_SYMBOLS)),
    "ledrappier": (3, lambda *ps: _ledrappier(*map(read_int, ps))),
    "quaternion": (0, _quaternion),
    "cyclic": (1, lambda n: _cyclic(read_int(n))),
    "nonabelian21": (0, _nonabelian21),
    "product": (2, lambda a, b: product(_factor(a), _factor(b))),
}


def builtin(name: str, params: Sequence = ()) -> Quasigroup:
    """Construct a named example table.

    Recognized: ``D7``, ``ledrappier p c0 c1``, ``quaternion``, ``cyclic n``,
    ``nonabelian21``, and ``product a b`` whose factors are Quasigroups or
    nested spec strings (see :func:`builtin_from_spec`).
    """
    if name not in _BUILTINS:
        raise UnknownName(name)
    k, make = _BUILTINS[name]
    ps = list(params)
    if len(ps) != k:
        raise BadParams(f"{name} takes {k} parameter(s), got {len(ps)}")
    return make(*ps)


def builtin_from_spec(text: str) -> Quasigroup:
    """Parse a builtin spec such as ``product cyclic 2 quaternion``.

    Tokens may be separated by whitespace or commas; ``product`` consumes two
    nested specs.
    """
    tokens = text.replace(",", " ").split()

    def parse(pos: int) -> tuple[Quasigroup, int]:
        if pos >= len(tokens):
            raise BadParams(f"truncated builtin spec {text!r}")
        tok = tokens[pos]
        if tok == "product":
            left, pos = parse(pos + 1)
            right, pos = parse(pos)
            return product(left, right), pos
        if tok not in _BUILTINS:
            raise UnknownName(tok)
        k = _BUILTINS[tok][0]
        args = tokens[pos + 1:pos + 1 + k]
        if len(args) != k:
            raise BadParams(f"{tok} needs {k} parameter(s) in {text!r}")
        return builtin(tok, args), pos + 1 + k

    q, end = parse(0)
    if end != len(tokens):
        raise BadParams(f"trailing tokens in builtin spec {text!r}")
    return q


# ---------------------------------------------------------------------------
# table file format: line 1 = "N sym1 ... symN", then N rows of N symbol names

def parse_table(text: str) -> Quasigroup:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty table file")
    head = lines[0].split()
    try:
        n = int(head[0])
    except ValueError:
        raise ParseError(f"first token must be the order, got {head[0]!r}") from None
    symbols = head[1:]
    if len(symbols) != n:
        raise ParseError(f"header declares {n} symbols but lists {len(symbols)}")
    if len(set(symbols)) != n:
        raise ParseError("symbol names must be distinct")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, got {len(lines) - 1}")
    where = {s: i for i, s in enumerate(symbols)}
    table = []
    for r, line in enumerate(lines[1:]):
        row = line.split()
        if len(row) != n:
            raise ParseError(f"row {r} has {len(row)} entries, expected {n}")
        for name in row:
            if name not in where:
                raise ParseError(f"row {r} uses unknown name {name!r}")
        table.append([where[name] for name in row])
    return validate_latin(table, symbols)


def format_table(q: Quasigroup) -> str:
    lines = [" ".join([str(q.order), *q.symbols])]
    for row in q.table.tolist():
        lines.append(" ".join(q.symbols[v] for v in row))
    return "\n".join(lines) + "\n"


def load_table(path) -> Quasigroup:
    from pathlib import Path
    return parse_table(Path(path).read_text())
