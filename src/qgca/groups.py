"""Finite group tables: validated Cayley tables with identity and inverses.

Groups enter in two ways: small ones parsed from files (fully verified,
including associativity) and large ones assembled from verified parts
(products, elementary abelian powers), where associativity is inherited
from the construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NotAGroup, OrderTooLarge, ParseError
from .quasigroup import (Quasigroup, builtin, format_table, pack_digits,
                         parse_table, product, unpack_digits)

ASSOCIATIVITY_CHECK_BOUND = 1024


@dataclass(frozen=True, eq=False)
class GroupTable(Quasigroup):
    """Cayley table with identity index, inverse map, and abelian flag."""

    identity: int
    inverse: tuple[int, ...]
    abelian: bool

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def quasigroup(self) -> Quasigroup:
        return Quasigroup(self.symbols, self.table)

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, identity={self.symbols[self.identity]!r})"


def _finish(q: Quasigroup, *, check_associativity: bool) -> GroupTable:
    t = q.table
    n = q.order
    idx = np.arange(n)
    row_id = (t == idx[None, :]).all(axis=1)
    col_id = (t.T == idx[None, :]).all(axis=1)
    both = np.flatnonzero(row_id & col_id)
    if both.size != 1:
        raise NotAGroup("no two-sided identity")
    e = int(both[0])
    if check_associativity:
        if n > ASSOCIATIVITY_CHECK_BOUND:
            raise OrderTooLarge(n, ASSOCIATIVITY_CHECK_BOUND)
        for c in range(n):
            if not np.array_equal(t[t, c], t[:, t[:, c]]):
                raise NotAGroup(f"associativity fails at third factor {c}")
    inv = np.argmax(t == e, axis=1)
    if not (np.array_equal(t[idx, inv], np.full(n, e))
            and np.array_equal(t[inv, idx], np.full(n, e))):
        raise NotAGroup("inverses are not two-sided")
    return GroupTable(q.symbols, q.table, e, tuple(int(v) for v in inv),
                      bool((t == t.T).all()))


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
    """(Z/p)^k with index = base-p digits, most significant first."""
    if p < 2 or k < 1:
        raise BadParams(f"need p >= 2 and k >= 1, got ({p}, {k})")
    digits = unpack_digits(p, k, np.arange(p ** k, dtype=np.int32))
    table = pack_digits(p, (d[:, None] + d[None, :] for d in digits))
    symbols = tuple("".join(map(str, ds))
                    for ds in zip(*(d.tolist() for d in digits)))
    q = Quasigroup(symbols, np.ascontiguousarray(table, dtype=np.int32))
    q.table.flags.writeable = False
    return _finish(q, check_associativity=False)


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
