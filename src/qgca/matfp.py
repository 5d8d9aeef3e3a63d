"""Linear algebra over prime fields: characteristic and minimal polynomials,
rational canonical form, and invariant-subspace enumeration.

Polynomials are coefficient tuples, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  All arithmetic is mod p.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice, product, zip_longest
from typing import Callable, Sequence

import numpy as np

from .errors import BadParams, ParseError, QgcaError, TooLarge
from .quasigroup import BLOCK, closed_sets, is_prime, unpack_digits

SUBSPACE_ENUMERATION_BOUND = 2 ** 20
SUBSPACE_FAMILY_BOUND = 20000

Poly = tuple[int, ...]
Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# polynomial helpers

def p_norm(coeffs: Sequence[int], p: int) -> Poly:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def p_deg(f: Poly) -> int:
    return len(f) - 1


def p_add(f: Poly, g: Poly, p: int) -> Poly:
    return p_norm([a + b for a, b in zip_longest(f, g, fillvalue=0)], p)


def p_sub(f: Poly, g: Poly, p: int) -> Poly:
    return p_add(f, [-c for c in g], p)


def p_mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return p_norm(out, p)


def p_divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], p - 2, p)
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1] % p
        if c == 0:
            continue
        factor = c * inv_lead % p
        quo[i] = factor
        for j, b in enumerate(g):
            rem[i + j] = (rem[i + j] - factor * b) % p
    return p_norm(quo, p), p_norm(rem, p)


def p_div(f: Poly, g: Poly, p: int) -> Poly:
    quo, rem = p_divmod(f, g, p)
    if rem:
        raise QgcaError(f"inexact polynomial division: {f} / {g} mod {p}")
    return quo


def p_monic(f: Poly, p: int) -> Poly:
    if not f:
        return ()
    inv = pow(f[-1], p - 2, p)
    return tuple(c * inv % p for c in f)


def p_gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, p_divmod(f, g, p)[1]
    return p_monic(f, p)


def p_lcm(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    return p_monic(p_div(p_mul(f, g, p), p_gcd(f, g, p), p), p)


def p_eval(f: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def p_str(f: Poly) -> str:
    if not f:
        return "0"
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            x = "x" if e == 1 else f"x^{e}"
            parts.append(x if c == 1 else f"{c}{x}")
    return " + ".join(parts)


def part_coprime(f: Poly, g: Poly, p: int) -> Poly:
    """Largest monic divisor of f coprime to g."""
    f = p_monic(f, p)
    while True:
        d = p_gcd(f, g, p)
        if p_deg(d) <= 0:
            return f
        f = p_div(f, d, p)


def coprime_lcm_split(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """Split lcm(f, g) = F * G with F | f, G | g and gcd(F, G) = 1.

    Works with gcd manipulations only: exclusive factors stay whole, shared
    irreducible factors go, at full multiplicity, to the side that carries
    the higher power (ties to F).
    """
    f, g = p_monic(f, p), p_monic(g, p)
    a = part_coprime(f, g, p)      # f-exclusive primes, full multiplicity
    b = part_coprime(g, f, p)
    fs, gs = p_div(f, a, p), p_div(g, b, p)
    c = p_gcd(fs, gs, p)
    u = p_div(fs, c, p)            # support: primes heavier in f
    v = p_div(gs, c, p)            # support: primes heavier in g
    heavy_f = p_div(fs, part_coprime(fs, u, p), p)
    heavy_g = p_div(gs, part_coprime(gs, v, p), p)
    ties = part_coprime(fs, p_mul(u, v, p), p)
    big_f = p_mul(a, p_mul(heavy_f, ties, p), p)
    big_g = p_mul(b, heavy_g, p)
    if p_deg(p_gcd(big_f, big_g, p)) != 0 or \
            p_mul(big_f, big_g, p) != p_lcm(f, g, p):
        raise QgcaError("coprime lcm split failed")
    return big_f, big_g


def companion_matrix(f: Poly, p: int) -> "MatrixFp":
    """Companion matrix of a monic polynomial of degree >= 1."""
    f = p_monic(f, p)
    n = p_deg(f)
    if n < 1:
        raise BadParams("companion matrix needs degree >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = (-f[i]) % p
    return MatrixFp.from_rows(p, rows)


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True, eq=True)
class MatrixFp:
    """Square matrix over the prime field F_p, entries reduced mod p."""

    p: int
    n: int
    rows: tuple[Vec, ...]

    @classmethod
    def from_rows(cls, p: int, rows) -> "MatrixFp":
        if not is_prime(p):
            raise BadParams(f"modulus {p} is not prime")
        rows = tuple(tuple(int(v) % p for v in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows) or n == 0:
            raise ParseError("matrix must be square and nonempty")
        return cls(p, n, rows)

    @classmethod
    def identity(cls, p: int, n: int) -> "MatrixFp":
        return cls.from_rows(p, [[1 if i == j else 0 for j in range(n)]
                                 for i in range(n)])

    def vec(self, v: Sequence[int]) -> Vec:
        p = self.p
        return tuple(sum(r[j] * v[j] for j in range(self.n)) % p
                     for r in self.rows)

    def neg(self) -> "MatrixFp":
        return MatrixFp(self.p, self.n,
                        tuple(tuple((-v) % self.p for v in r) for r in self.rows))


def char_poly(m: MatrixFp) -> Poly:
    """Monic characteristic polynomial det(xI - M), by the division-free
    Samuelson-Berkowitz recurrence."""
    p, n, A = m.p, m.n, m.rows
    prev = [1]                      # descending coeffs, leading first
    for r in range(1, n + 1):
        a = A[r - 1][r - 1]
        R = A[r - 1][:r - 1]
        C = [A[i][r - 1] for i in range(r - 1)]
        q = [1, (-a) % p]
        vec = list(C)
        for k in range(2, r + 1):
            if k > 2:
                vec = [sum(A[i][j] * vec[j] for j in range(r - 1)) % p
                       for i in range(r - 1)]
            q.append((-sum(R[j] * vec[j] for j in range(r - 1))) % p)
        cur = [0] * (r + 1)
        for i in range(r + 1):
            s = 0
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                s += q[i - j] * prev[j]
            cur[i] = s % p
        prev = cur
    return p_norm(list(reversed(prev)), p)


def _local_min_poly(apply_fn: Callable[[Vec], Vec], v: Vec, p: int) -> Poly:
    """Minimal monic f with f(A)v = 0.

    Each Krylov vector A^k v is extended by the unit vector e_k to width
    2n + 1 and reduced against the echelon basis of the earlier ones; the
    extra columns then hold the combination of A^0 v .. A^k v it stands for.
    """
    n = len(v)
    basis = ()
    w, k = v, 0
    while True:
        red = _reduce(basis, w + tuple(int(i == k) for i in range(n + 1)), p)
        if not any(red[:n]):
            # 0 = sum_j red[n + j] A^j v with red[n + k] = 1: monic of degree k
            return p_norm(red[n:], p)
        basis = _insert(basis, red, p)
        w, k = apply_fn(w), k + 1


def min_poly(m: MatrixFp) -> Poly:
    """Minimal polynomial as the lcm of Krylov-local polynomials."""
    p, n = m.p, m.n
    acc: Poly = (1,)
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        acc = p_lcm(acc, _local_min_poly(m.vec, e, p), p)
        if p_deg(acc) == n:
            break
    return acc


def char_roots(m: MatrixFp) -> list[int]:
    """Eigenvalue scan: roots of the characteristic polynomial in F_p."""
    f = char_poly(m)
    return [x for x in range(m.p) if p_eval(f, x, m.p) == 0]


def poly_apply_vec(f: Poly, apply_fn: Callable[[Vec], Vec], v: Vec,
                   p: int) -> Vec:
    """f(A) v, evaluated with repeated applications of A."""
    acc = tuple(0 for _ in v)
    w = v
    for k, c in enumerate(f):
        if c:
            acc = tuple((a + c * x) % p for a, x in zip(acc, w))
        if k + 1 < len(f):
            w = apply_fn(w)
    return acc


# ---------------------------------------------------------------------------
# row echelon machinery

def _reduce(basis: Sequence[Vec], v: Vec, p: int) -> Vec:
    """v mod p with each echelon row of basis cleared from its pivot column,
    which is the row's first 1: its leading entry is 1."""
    red = [x % p for x in v]
    for row in basis:
        c = red[row.index(1)]
        if c:
            for i in range(len(red)):
                red[i] = (red[i] - c * row[i]) % p
    return tuple(red)


def _insert(basis: tuple[Vec, ...], v: Vec, p: int) -> tuple[Vec, ...]:
    """Canonical RREF basis of span(basis + v), given basis in RREF; basis
    itself when v already lies in its span."""
    red = _reduce(basis, v, p)
    lead = next((x for x in red if x), 0)
    if not lead:
        return basis
    inv = pow(lead, p - 2, p)
    new = tuple(x * inv % p for x in red)
    rows = [_reduce((new,), row, p) for row in basis] + [new]
    return tuple(sorted(rows, key=lambda row: row.index(1)))


def rref(rows: Sequence[Vec], p: int) -> tuple[Vec, ...]:
    """Canonical reduced row echelon basis of the span of ``rows``."""
    basis = ()
    for row in rows:
        basis = _insert(basis, row, p)
    return basis


def in_span(basis: Sequence[Vec], v: Vec, p: int) -> bool:
    """Whether v lies in the span of an RREF basis, such as rref returns."""
    return not any(_reduce(basis, v, p))


# ---------------------------------------------------------------------------
# rational canonical form

@dataclass(frozen=True)
class RcfResult:
    """Invariant factors in ascending divisibility order (last = minimal
    polynomial); simple means a single companion block."""

    invariant_factors: tuple[Poly, ...]
    simple: bool


def rcf(m: MatrixFp) -> RcfResult:
    """Rational canonical form via cyclic vectors and iterated deflation.

    Each round finds a maximal-order vector of the operator induced on the
    quotient by the invariant subspace accumulated so far; its minimal
    polynomial is the next invariant factor, largest first.
    """
    p, n = m.p, m.n
    w_basis: tuple[Vec, ...] = ()
    factors_desc: list[Poly] = []

    def q_apply(v: Vec) -> Vec:
        return _reduce(w_basis, m.vec(v), p)

    while len(w_basis) < n:
        dim_q = n - len(w_basis)
        # independent representatives of the quotient from reduced unit vectors
        reps: list[Vec] = []
        span = w_basis
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            grown = _insert(span, e, p)
            if len(grown) > len(span):
                reps.append(_reduce(w_basis, e, p))
                span = grown
            if len(reps) == dim_q:
                break
        v: Vec | None = None
        mu: Poly = (1,)
        for u in reps:
            fu = _local_min_poly(q_apply, u, p)
            if p_divmod(mu, fu, p)[1] == ():       # fu divides mu: nothing new
                continue
            if v is None:
                v, mu = u, fu
                continue
            big_f, big_g = coprime_lcm_split(mu, fu, p)
            w1 = poly_apply_vec(p_div(mu, big_f, p), q_apply, v, p)
            w2 = poly_apply_vec(p_div(fu, big_g, p), q_apply, u, p)
            v = tuple((a + b) % p for a, b in zip(w1, w2))
            mu = p_mul(big_f, big_g, p)
            if p_deg(mu) == dim_q:
                break
        factors_desc.append(mu)
        w = v
        for _ in range(p_deg(mu)):
            w_basis = _insert(w_basis, w, p)
            w = m.vec(w)

    factors = tuple(reversed(factors_desc))
    prod: Poly = (1,)
    for f in factors:
        prod = p_mul(prod, f, p)
    if prod != char_poly(m):
        raise QgcaError("invariant factors do not multiply to the "
                        "characteristic polynomial")
    for a, b in zip(factors, factors[1:]):
        if p_divmod(b, a, p)[1] != ():
            raise QgcaError("invariant factors fail the divisibility "
                            "chain")
    if factors[-1] != min_poly(m):
        raise QgcaError("largest invariant factor is not the minimal "
                        "polynomial")
    return RcfResult(factors, simple=len(factors) == 1)


# ---------------------------------------------------------------------------
# invariant subspaces

def _line_representatives(p: int, n: int) -> np.ndarray:
    """One vector per line of F_p^n, the one whose first nonzero entry is 1,
    in the product order of range(p)**n, as base-p codes.

    Read as n base-p digits, most significant first, such a vector is a
    number whose leading digit is 1: p**j + t for a tail t < p**j, where j
    is the count of entries after the 1.  Ascending codes are the product
    order, so there are (p**n - 1) / (p - 1) of them, and no other vector
    is visited.
    """
    return np.concatenate([np.arange(p ** j, 2 * p ** j, dtype=np.int64)
                           for j in range(n)])


def _rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms mod p of a stack of matrices, in place, and
    their ranks.  Each form's first rank rows are the canonical RREF basis
    of its row space, as :func:`rref` gives it; the rows below are zero.

    One elimination runs over the whole stack, column by column: each
    matrix with a nonzero entry in the column at or below its rank takes
    the first such row as its pivot row, swaps it up to its rank, scales it
    by the inverse of its pivot (one ``pow`` per distinct pivot value) and
    clears the column from its other rows.  Entries stay below p, so every
    intermediate is an exact int64 below p**2.
    """
    rank = np.zeros(len(a), dtype=np.intp)
    height = np.arange(a.shape[1])
    for col in range(a.shape[2]):
        cand = (a[:, :, col] != 0) & (height >= rank[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not b.size:
            continue
        src, dst = cand[b].argmax(axis=1), rank[b]
        pivots = a[b, src, col].tolist()
        inv = {v: pow(v, -1, p) for v in set(pivots)}
        row = a[b, src] * np.array([inv[v] for v in pivots])[:, None] % p
        a[b, src] = a[b, dst]
        # every row is cleared, the one at dst too, which row then replaces
        a[b] = (a[b] - a[b, :, col, None] * row[:, None, :]) % p
        a[b, dst] = row
        rank[b] += 1
    return a, rank


def _cyclic_subspaces(m: MatrixFp) -> dict[tuple[Vec, ...], Vec]:
    """The distinct proper cyclic subspaces C(v) = span{v, Mv, M^2 v, ..},
    as RREF bases in the order of their first line, each mapped to the last
    line representative that generates it.

    C(v) depends only on the line of v, so one representative per line is
    read.  Their Krylov blocks v, Mv, .., M^(n-1) v are n - 1 int64 matrix
    products over all representatives at once (n p^2 < 2**63 under
    SUBSPACE_ENUMERATION_BOUND), and one batched elimination mod p turns
    every block into the RREF basis of its span.  Representatives go in
    stacks of BLOCK / n^2 blocks, so memory stays bounded.
    """
    p, n = m.p, m.n
    mt = np.array(m.rows, dtype=np.int64).T
    lines = _line_representatives(p, n)
    seeds = {}
    step = max(1, BLOCK // (n * n))
    for start in range(0, len(lines), step):
        vecs = np.column_stack(unpack_digits(p, n, lines[start:start + step]))
        krylov = [vecs]
        for _ in range(n - 1):
            krylov.append(krylov[-1] @ mt % p)
        red, rank = _rref_stack(np.stack(krylov, axis=1), p)
        proper = np.flatnonzero(rank < n)
        for basis, r, v in zip(red[proper].tolist(), rank[proper].tolist(),
                               vecs[proper].tolist()):
            seeds[tuple(map(tuple, basis[:r]))] = tuple(v)
    return seeds


def _primary_components(m: MatrixFp, roots: Sequence[int]
                        ) -> list[tuple[Vec, ...]]:
    """RREF bases of V_λ = ker (M - λ)^n for each root λ, then of the rest,
    the image of the product of those powers: the sum of the primary
    components without a linear factor, which may be 0.

    Each power A is M - λ squared until its exponent is at least n.  The
    rows of the RREF of [A^T | I] whose left half is zero hold a basis of
    ker A in their right half, already canonical there, since no other row
    has a pivot in it.
    """
    p, n = m.p, m.n
    mat, eye = np.array(m.rows, dtype=np.int64), np.eye(n, dtype=np.int64)
    rest, out = eye, []
    for lam in roots:
        a = (mat - lam * eye) % p
        for _ in range((n - 1).bit_length()):
            a = a @ a % p
        rest = rest @ a % p
        red = rref(np.hstack([a.T, eye]).tolist(), p)
        out.append(tuple(r[n:] for r in red if not any(r[:n])))
    return out + [rref(rest.T.tolist(), p)]


def _closed_subspaces(atoms: list[tuple[Vec, ...]], gens: np.ndarray, dim: int,
                      p: int) -> list[tuple[Vec, ...]]:
    """The invariant subspaces of a dim-dimensional component, but 0 and the
    component itself, as the closed sets of :func:`closed_sets` over the
    cyclic subspaces ``atoms`` in it, generated by the rows of ``gens``.

    A step adds one atom to the basis and finds which atoms the sum holds
    by reducing the generator of each, all in one numpy pass.
    """
    gens = gens.T.astype(float)                     # by columns

    def close(x, j):
        for row in atoms[j]:
            x = _insert(x, row, p)
        if len(x) < dim:       # else the whole component: left out
            # each RREF row is zero in the pivot columns of the others, and
            # float sums of n products of residues are exact below 2**53
            red = gens - np.array(x, float).T @ gens[[r.index(1) for r in x]]
            inside = np.packbits(~np.fmod(red, p).any(0), bitorder="little")
            return int.from_bytes(inside.tobytes(), "little"), x

    return closed_sets(len(atoms), close, SUBSPACE_FAMILY_BOUND,
                       "invariant subspace family")


def invariant_subspaces(m: MatrixFp) -> list[tuple[Vec, ...]]:
    """All nonzero proper M-invariant subspaces, as canonical RREF bases.

    An invariant U is the direct sum of its parts U ∩ V in the components
    V of :func:`_primary_components` (Gohberg, Lancaster and Rodman,
    *Invariant Subspaces of Matrices with Applications*, 1986, ch. 2).  The
    roots λ are the eigenvalues of the lines among the cyclic subspaces
    that :func:`_cyclic_subspaces` finds, so no residue of F_p is scanned.
    Where M acts on V_λ as λI, every subspace of V_λ is invariant: they are
    counted by :func:`_gaussian_subspace_count` and listed by
    :func:`_subspace_blocks`.  Every other component is searched by
    :func:`_closed_subspaces` over the cyclic subspaces C(v) that lie in it,
    since U is the sum of the C(v), v in U.  The family is the product of
    the component families, each with 0 and the whole component, less the
    zero and whole sums.  Its size goes to the bound before any subspace
    is listed.  The sums, padded with zero rows to n x n, are reduced to
    canonical bases in one batched elimination and re-verified in one pass.
    """
    p, n = m.p, m.n
    if p ** n > SUBSPACE_ENUMERATION_BOUND:
        raise TooLarge(f"{p}^{n} vectors exceed bound {SUBSPACE_ENUMERATION_BOUND}")
    seeds = _cyclic_subspaces(m)
    # a line's eigenvalue is its image at the pivot, where the line has a 1
    lines = Counter(m.vec(b[0])[b[0].index(1)] for b in seeds if len(b) == 1)
    roots = sorted(lines)
    gens = np.array(list(seeds.values()), dtype=np.int64).reshape(-1, n)
    parts = []          # (basis, atoms of a searched component or None)
    for i, basis in enumerate(_primary_components(m, roots)):
        # M is λI on V_λ when every line of V_λ is an eigenline of λ
        if i < len(roots) and lines[roots[i]] * (p - 1) + 1 == p ** len(basis):
            parts.append((basis, None))
        elif basis:
            k = np.array(basis, dtype=np.int64)
            off = (gens - gens[:, [r.index(1) for r in basis]] @ k) % p
            parts.append((basis, np.flatnonzero(~off.any(1)).tolist()))
    bound = SUBSPACE_FAMILY_BOUND
    too_many = f"invariant subspace family exceeds {bound}"
    # each atom is a member, and a searched component has 0 and its atoms
    least = math.prod(len(a) + 1 if a is not None else
                      _gaussian_subspace_count(p, len(b)) for b, a in parts)
    if max(len(seeds), least - 2) > bound:
        raise TooLarge(too_many)
    atoms = list(seeds)
    found = [a if a is None else
             _closed_subspaces([atoms[j] for j in a], gens[a], len(b), p)
             for b, a in parts]
    total = math.prod(len(f) + 2 if f is not None else
                      _gaussian_subspace_count(p, len(b))
                      for (b, _), f in zip(parts, found)) - 2
    if total > bound:
        raise TooLarge(too_many)
    families = []
    for (basis, _), f in zip(parts, found):
        if f is None:
            k = np.array(basis, dtype=np.int64)
            f = [rows for dim in range(1, len(basis))
                 for block in _subspace_blocks(p, len(basis), dim)
                 for rows in (block @ k % p).tolist()]
        families.append([(), *f, basis])
    sums = [[row for part in choice for row in part]
            for choice in islice(product(*families), 1, total + 1)]
    red = np.array([rows + [(0,) * n] * (n - len(rows)) for rows in sums],
                   dtype=np.int64).reshape(total, n, n)
    red, _ = _rref_stack(red, p)
    # re-verify invariance: M v is the sum of its pivot entries times the
    # basis rows, for every row v of every basis, and the zero rows below
    img = red @ np.array(m.rows, dtype=np.int64).T % p
    piv = np.broadcast_to((red != 0).argmax(2)[:, None, :], red.shape)
    if ((img - np.take_along_axis(img, piv, 2) @ red) % p).any():
        raise QgcaError("closed-set enumeration produced a "
                        "non-invariant subspace")
    return sorted((tuple(map(tuple, basis[:len(rows)]))
                   for basis, rows in zip(red.tolist(), sums)),
                  key=lambda b: (len(b), b))


EXHAUSTIVE_VECTOR_BOUND = 2 ** 14
EXHAUSTIVE_SUBSPACE_BOUND = 200000


def _gaussian_subspace_count(p: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def _subspace_blocks(p: int, n: int, k: int):
    """Every k-dimensional subspace of F_p^n as its canonical RREF basis,
    in one (count, k, n) int64 stack per set of pivot columns, the sets in
    combinations order.  Row i has its 1 in pivot column i; its entries
    right of that and outside the other pivot columns are free, and run
    through range(p) in product order down the stack."""
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        block = np.zeros((p ** len(free), k, n), dtype=np.int64)
        block[:, range(k), pivots] = 1
        if free:
            block[(slice(None), *zip(*free))] = np.column_stack(
                unpack_digits(p, len(free), np.arange(len(block))))
        yield block


def invariant_subspaces_exhaustive(m: MatrixFp) -> list[tuple[Vec, ...]]:
    """Independent enumeration strategy: every subspace, generated as a
    reduced-echelon basis by :func:`_subspace_blocks`, filtered for
    invariance.  Feasible only for small spaces; used to cross-check
    :func:`invariant_subspaces`."""
    p, n = m.p, m.n
    if p ** n > EXHAUSTIVE_VECTOR_BOUND:
        raise TooLarge(f"{p}^{n} exceeds exhaustive bound {EXHAUSTIVE_VECTOR_BOUND}")
    if _gaussian_subspace_count(p, n) > EXHAUSTIVE_SUBSPACE_BOUND:
        raise TooLarge("too many subspaces for exhaustive enumeration")
    out = []
    for k in range(1, n):
        for block in _subspace_blocks(p, n, k):
            for rows in block.tolist():
                basis = tuple(map(tuple, rows))
                if all(in_span(basis, m.vec(r), p) for r in basis):
                    out.append(basis)
    return sorted(out, key=lambda b: (len(b), b))


# ---------------------------------------------------------------------------
# matrix file format: line 1 = "p N", then N rows of N residues

def parse_matrix(text: str) -> MatrixFp:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError('matrix header must be "p N"')
    try:
        p, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError('matrix header must be "p N" with integers') from None
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"bad matrix row {line!r}")
        try:
            rows.append([int(v) for v in parts])
        except ValueError:
            raise ParseError(f"bad matrix row {line!r}") from None
    return MatrixFp.from_rows(p, rows)


def format_matrix(m: MatrixFp) -> str:
    lines = [f"{m.p} {m.n}"]
    for row in m.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> MatrixFp:
    from pathlib import Path
    return parse_matrix(Path(path).read_text())
