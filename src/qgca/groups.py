"""Finite group tables: validated Cayley tables with identity and inverses.

Groups enter in two ways: tables parsed from files or specs, fully verified
(associativity by Light's test, at any order), and large ones assembled from
verified parts (products, elementary abelian powers), where associativity is
inherited from the construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as cartesian

import numpy as np

from .errors import BadParams, NotAGroup, ParseError
from .quasigroup import (Quasigroup, associativity_witness, builtin,
                         check_table_size, format_table, greedy_generators,
                         parse_table, product, row_solutions)


@dataclass(frozen=True, eq=False)
class GroupTable(Quasigroup):
    """Cayley table with identity index and inverse map."""

    identity: int
    inverse: tuple[int, ...]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A greedy generating set in index order: each member is the first
        element outside the subgroup generated by the earlier ones.

        The subgroup is grown on the table by right-multiplying by the
        generators; in a finite group the elements so reached from the
        identity are the subgroup the generators generate.
        """
        inside = np.zeros(self.order, dtype=bool)
        inside[self.identity] = True
        return tuple(greedy_generators(self.table, inside))

    @cached_property
    def abelian(self) -> bool:
        """Whether the generators commute pairwise: the centralizer of a
        set is a subgroup, so then each generator's centralizer is G, and
        every element commutes with G."""
        s = list(self.generators)
        block = self.table[np.ix_(s, s)]
        return bool((block == block.T).all())

    def quasigroup(self) -> Quasigroup:
        return Quasigroup(self.symbols, self.table)

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, identity={self.symbols[self.identity]!r})"


def _finish(q: Quasigroup, *, check_associativity: bool) -> GroupTable:
    """Verify q as a group: a two-sided identity, associativity (when asked)
    and two-sided inverses.

    A two-sided identity e is idempotent (e.e = e), so only the diagonal's
    fixed points are candidates; each is accepted when its row and its
    column are both the identity map.  That reads N entries per idempotent,
    not the whole table.  There is at most one, since a left identity e and
    a right identity e' give e = e.e' = e'.

    Associativity is scanned on the opposite table b.a, the view t.T: it
    fails at (c, b, a) exactly where q fails at (a, b, c), so its first
    witness starts with the least third factor at which q fails.
    """
    t = q.table
    n = q.order
    idx = np.arange(n, dtype=t.dtype)
    e = next((int(a) for a in np.flatnonzero(t.diagonal() == idx)
              if np.array_equal(t[a], idx) and np.array_equal(t[:, a], idx)),
             None)
    if e is None:
        raise NotAGroup("no two-sided identity")
    if check_associativity:
        bad = associativity_witness(Quasigroup(q.symbols, t.T))
        if bad is not None:
            raise NotAGroup(f"associativity fails at third factor {bad[0]}")
    inv = row_solutions(t, e)
    if not (np.array_equal(t[idx, inv], np.full(n, e))
            and np.array_equal(t[inv, idx], np.full(n, e))):
        raise NotAGroup("inverses are not two-sided")
    return GroupTable(q.symbols, q.table, e, tuple(inv.tolist()))


def from_quasigroup(q: Quasigroup) -> GroupTable:
    """Verify a quasigroup table as a group (identity, associativity, inverses)."""
    return _finish(q, check_associativity=True)


def group_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """Direct product; combined index is left_index * |right| + right_index."""
    return _finish(product(g1.quasigroup(), g2.quasigroup()),
                   check_associativity=False)


def cyclic_group(n: int) -> GroupTable:
    return _finish(builtin("cyclic", [n]), check_associativity=False)


def quaternion_group() -> GroupTable:
    return from_quasigroup(builtin("quaternion"))


def nonabelian21_group() -> GroupTable:
    return from_quasigroup(builtin("nonabelian21"))


def elementary_abelian_group(p: int, k: int) -> GroupTable:
    """(Z/p)^k with index = base-p digits, most significant first.

    The k-fold product of Z/p, folded one high digit at a time: the product
    index a * |right| + b of Z/p and (Z/p)^(j-1) prepends the digit a.
    """
    if p < 2 or k < 1:
        raise BadParams(f"need p >= 2 and k >= 1, got ({p}, {k})")
    check_table_size(p ** (2 * k))
    q = z_p = builtin("cyclic", [p])
    for _ in range(k - 1):
        q = product(z_p, q)
    symbols = tuple(map("".join, cartesian(list(map(str, range(p))), repeat=k)))
    return _finish(Quasigroup(symbols, q.table), check_associativity=False)


# ---------------------------------------------------------------------------
# group file format: a quasigroup table file plus a final "identity <symbol>"

def parse_group(text: str) -> GroupTable:
    lines = text.splitlines()
    id_lines = [ln for ln in lines if ln.strip().startswith("identity ")]
    if len(id_lines) != 1:
        raise ParseError('group file needs exactly one "identity <symbol>" line')
    rest = "\n".join(ln for ln in lines if not ln.strip().startswith("identity "))
    q = parse_table(rest)
    g = from_quasigroup(q)
    declared = id_lines[0].split()
    if len(declared) != 2:
        raise ParseError('malformed identity line')
    if q.index(declared[1]) != g.identity:
        raise NotAGroup(
            f"declared identity {declared[1]!r} is not the table identity "
            f"{q.symbols[g.identity]!r}")
    return g


def format_group(g: GroupTable) -> str:
    return format_table(g.quasigroup()) + f"identity {g.symbols[g.identity]}\n"


def load_group(path) -> GroupTable:
    from pathlib import Path
    return parse_group(Path(path).read_text())
