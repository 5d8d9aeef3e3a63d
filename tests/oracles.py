"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own enumeration strategies: Latin
squares and permutative rules by per-line scans, seeded Latin squares by
recursive backtracking, closed subsets by bitmask scan, pushforwards by
full preimage enumeration, CA images and block recodings by the
automaton's own ``step``, subgroups of a subspace by a recursive walk over
its vectors, cyclic subspaces by per-vector Krylov insertion,
invariant subspaces by a closed-set search over all of them, and invariant
factors by Smith normal form of xI - M over F_p[x].  The measure sweeps are
the recursive per-word engine the level arrays replaced: a depth-first walk
over words in lexicographic order, pruning zero-mass subtrees, with every
mass from ``CylinderMeasure.eval``.  The whole-level
pushforwards are the level engine's first form, which the sliced levels
replaced: a base's whole level d+1 mapped, sorted and summed by code.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np

from qgca.automaton import step
from qgca.errors import (AlphabetSizeMismatch, BadEntry, BadParams,
                         DepthTooLarge, DuplicateInColumn, DuplicateInRow,
                         NotASubgroup)
from qgca.matfp import (MatrixFp, Poly, Vec, _insert, in_span, p_divmod,
                        p_monic, p_mul, p_norm, p_sub)
from qgca.measure import (WORD_ENUMERATION_BOUND, ZERO, ONE,
                          CosetMeasureReport, FiberReport, FiberRow,
                          InvarianceReport, Level, Pushforward,
                          _check_depth, _combo_float, _combo_sub, _factorize,
                          _log2_exponents, conditional_dist, pushforward_ca,
                          pushforward_shift)
from qgca.quasigroup import closed_sets


def latin_check(table) -> None:
    """Raise the first fault of a square index table: an entry outside
    0..N-1, then a repeat in a row, then a repeat in a column, each scanned
    with a dict in row-major order."""
    arr = np.asarray(table, dtype=np.int64)
    n = arr.shape[0]
    bad = np.argwhere((arr < 0) | (arr >= n))
    if bad.size:
        raise BadEntry(*(int(v) for v in bad[0]))
    for r in range(n):
        seen: dict[int, int] = {}
        for c, v in enumerate(arr[r].tolist()):
            if v in seen:
                raise DuplicateInRow(r, seen[v], c)
            seen[v] = c
    for c in range(n):
        seen = {}
        for r, v in enumerate(arr[:, c].tolist()):
            if v in seen:
                raise DuplicateInColumn(c, seen[v], r)
            seen[v] = r


def latin_square_recursive(n: int, rng) -> list[list[int]]:
    """The seeded Latin square by recursive backtracking, one call per
    cell: the form the explicit-stack ``suite.random_latin_square``
    replaced, with the same shuffles in the same order."""
    grid = [[-1] * n for _ in range(n)]
    row_used = [set() for _ in range(n)]
    col_used = [set() for _ in range(n)]

    def solve(cell: int) -> bool:
        if cell == n * n:
            return True
        r, c = divmod(cell, n)
        cands = [v for v in range(n)
                 if v not in row_used[r] and v not in col_used[c]]
        rng.shuffle(cands)
        for v in cands:
            grid[r][c] = v
            row_used[r].add(v)
            col_used[c].add(v)
            if solve(cell + 1):
                return True
            row_used[r].remove(v)
            col_used[c].remove(v)
        grid[r][c] = -1
        return False

    solve(0)
    return grid


def recode_table(rule) -> np.ndarray:
    """The block recoding's table of a rule with m = l + r >= 1: entry
    (u, v) is the code of step(u + v) for the blocks u, v of m symbols,
    listed in lexicographic order and stepped pair by pair by the
    automaton."""
    n, m = rule.alphabet_size, rule.left_radius + rule.right_radius
    blocks = list(product(range(n), repeat=m))
    table = np.empty((len(blocks), len(blocks)), dtype=np.int64)
    for u, left in enumerate(blocks):
        for v, right in enumerate(blocks):
            code = 0
            for s in step(rule, left + right):
                code = code * n + s
            table[u, v] = code
    return table


def left_permutative_sort(rule) -> bool:
    n = rule.alphabet_size
    flat = rule.table.reshape(n, -1)
    return bool((np.sort(flat, axis=0) == np.arange(n)[:, None]).all())


def right_permutative_sort(rule) -> bool:
    n = rule.alphabet_size
    flat = rule.table.reshape(-1, n)
    return bool((np.sort(flat, axis=1) == np.arange(n)[None, :]).all())


def closed_subsets_bitmask(rows) -> list[tuple[int, ...]]:
    """Every operation-closed subset of a table, by scanning all 2^N masks."""
    n = len(rows)
    out = []
    for mask in range(1, 1 << n):
        elems = [i for i in range(n) if mask >> i & 1]
        if all(mask >> rows[a][b] & 1 for a in elems for b in elems):
            out.append(tuple(elems))
    return out


def subgroups_bitmask(rows, identity: int, inverse,
                      rho=None) -> list[tuple[int, ...]]:
    """Every (rho-invariant) subgroup, by scanning all 2^N masks."""
    n = len(rows)
    out = []
    for mask in range(1, 1 << n):
        if not mask >> identity & 1:
            continue
        elems = [i for i in range(n) if mask >> i & 1]
        if not all(mask >> rows[a][b] & 1 for a in elems for b in elems):
            continue
        if not all(mask >> inverse[a] & 1 for a in elems):
            continue
        if rho is not None and not all(mask >> rho[a] & 1 for a in elems):
            continue
        out.append(tuple(elems))
    return out


def endomorphic_bruteforce(rule, g):
    """The first quadruple (a, a2, b, b2) in lexicographic order with
    phi(a.a2, b.b2) != phi(a, b).phi(a2, b2), or None when the rule's CA is
    an endomorphism of the product group shift.  Scans all N^4 quadruples."""
    rows, t = g.rows, rule.table.tolist()
    for a, a2, b, b2 in product(range(g.order), repeat=4):
        if t[rows[a][a2]][rows[b][b2]] != rows[t[a][b]][t[a2][b2]]:
            return a, a2, b, b2
    return None


def group_check_bruteforce(rows, check_associativity: bool):
    """(identity, inverse tuple) of a Latin square that passes the group
    checks, else the NotAGroup message of the first check that fails:
    identity, then (optionally) associativity by third factor, then
    two-sided inverses.  Loops over python-int rows."""
    n = len(rows)
    ids = [a for a in range(n)
           if all(rows[a][b] == b and rows[b][a] == b for b in range(n))]
    if len(ids) != 1:
        return "no two-sided identity"
    e = ids[0]
    if check_associativity:
        for c in range(n):
            if any(rows[rows[a][b]][c] != rows[a][rows[b][c]]
                   for a in range(n) for b in range(n)):
                return f"associativity fails at third factor {c}"
    inv = tuple(rows[a].index(e) for a in range(n))
    if any(rows[inv[a]][a] != e for a in range(n)):
        return "inverses are not two-sided"
    return e, inv


def subspace_members_recursive(g, view, basis_rows) -> tuple[int, ...]:
    """Element indices, ascending, of the subgroup whose coordinates in
    view.basis span basis_rows: the recursive walk over coefficient vectors
    that the packed gather replaced.  Each vector's element is a product of
    basis elements in g's python-int rows, not a read of view.index."""
    p = view.p

    def element(vec) -> int:
        acc = g.identity
        for c, b in zip(vec, view.basis):
            for _ in range(c):
                acc = g.rows[acc][b]
        return acc

    members = set()

    def walk(i: int, acc: Vec):
        if i == len(basis_rows):
            members.add(element(acc))
            return
        cur = acc
        for _ in range(p):
            walk(i + 1, cur)
            cur = tuple((x + y) % p for x, y in zip(cur, basis_rows[i]))

    walk(0, (0,) * view.k)
    return tuple(sorted(members))


def non_homomorphic_pair(img, g):
    """The first pair (a, b) in row-major order with img(a.b) !=
    img(a).img(b), or None when img is an endomorphism.  Scans all N^2
    pairs."""
    rows = g.rows
    for a, b in product(range(g.order), repeat=2):
        if img[rows[a][b]] != rows[img[a]][img[b]]:
            return a, b
    return None


def non_affine_pair(rule, g):
    """The first pair (a, b) in row-major order with phi(a, b) !=
    phi(a, e).phi(e, b), or None.  Compares the whole table at once."""
    t, e = rule.table, g.identity
    bad = np.argwhere(t != g.table[np.ix_(t[:, e], t[e, :])])
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def kernel_bruteforce(rule, g):
    """(rho, periods, zeta) of an endomorphic rule's kernel.  From each start
    a, each next symbol k_{i+1} is found by scanning row k_i for phi(k_i, .)
    = e, until a recurs; the symbols met form zeta[a]."""
    t, e = rule.table.tolist(), g.identity
    zeta = []
    for a in range(g.order):
        word = [a]
        while True:
            nxt = t[word[-1]].index(e)
            if nxt == a:
                break
            assert len(word) < g.order, "the start never recurs"
            word.append(nxt)
        zeta.append(tuple(word))
    rho = tuple(w[1] if len(w) > 1 else w[0] for w in zeta)
    return rho, tuple(len(w) for w in zeta), tuple(zeta)


def pushforward_bruteforce(m, rule, word) -> Fraction:
    """Mass of the full preimage of a cylinder: every candidate word one
    longer, filtered by stepping."""
    from qgca.automaton import step
    n = rule.alphabet_size
    total = Fraction(0)
    w = tuple(word)
    for cand in product(range(n), repeat=len(w) + 1):
        if step(rule, cand) == w:
            total += m.eval(cand)
    return total


def _ca_image(rule, codes, depth):
    """Codes of step(w) for the length-(depth+1) words w coded by ``codes``:
    the words are decoded digit by digit, laid end to end and imaged by one
    ``automaton.step`` call, whose symbol at each seam between two words is
    dropped, and each image is re-encoded."""
    n, image = rule.alphabet_size, np.zeros_like(codes)
    if depth == 0 or not len(codes):
        return image
    digits = [codes // n ** k % n for k in range(depth, -1, -1)]
    stepped = step(rule, np.stack(digits, axis=1).ravel().tolist())
    symbols = np.array(stepped + (0,), dtype=codes.dtype)
    for column in symbols.reshape(-1, depth + 1)[:, :depth].T:
        image *= n
        image += column
    return image


def whole_level(m, depth):
    """Level ``depth`` of ``m``, with every CA or shift pushforward in it
    built from its base's whole level depth+1: each word mapped to its image
    code, the codes argsorted and the masses summed over each run.  Other
    kinds give their own level."""
    if depth == 0 or not isinstance(m, Pushforward):
        return m.level(depth)
    base, n = whole_level(m.base, depth + 1), m.alphabet_size
    keys = _ca_image(m.rule, base.codes, depth) \
        if m.rule is not None else base.codes % n ** depth
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    return Level(n, depth, ordered[starts],
                 np.add.reduceat(base.nums[order], starts), base.den)


def xi_table_bruteforce(rule, length: int) -> dict[tuple, tuple]:
    """Map xi(w) -> w over every word of the given length."""
    from qgca.automaton import xi
    out = {}
    for w in product(range(rule.alphabet_size), repeat=length):
        out[xi(rule, w)] = w
    return out


# ---------------------------------------------------------------------------
# Smith normal form of xI - M over F_p[x]

def _poly_matrix_of(m: MatrixFp) -> list[list[Poly]]:
    n, p = m.n, m.p
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            base = ((-m.rows[i][j]) % p,)
            if i == j:
                row.append(p_norm((base[0], 1), p))
            else:
                row.append(p_norm(base, p))
        out.append(row)
    return out


def cyclic_subspace(m: MatrixFp, v: Vec) -> tuple[Vec, ...]:
    """RREF basis of span{v, Mv, M^2 v, ...}, one Krylov vector at a time
    until the next lies in the span."""
    basis = ()
    w = v
    while not in_span(basis, w, m.p):
        basis = _insert(basis, w, m.p)
        w = m.vec(w)
    return basis


def invariant_subspaces_all_atoms(m: MatrixFp) -> list[tuple[Vec, ...]]:
    """Every nonzero proper invariant subspace, as a closed set of
    ``closed_sets`` over all the proper cyclic subspaces, with no primary
    decomposition.  The cyclic subspaces come one line at a time from
    :func:`cyclic_subspace`, and a sum holds a cyclic subspace when it
    spans the vector that generates it."""
    p, n = m.p, m.n
    seeds = {}
    for v in product(range(p), repeat=n):
        if next((x for x in v if x), 0) == 1:
            basis = cyclic_subspace(m, v)
            if len(basis) < n:
                seeds[basis] = v
    atoms, gens = list(seeds), list(seeds.values())

    def close(x, j):
        for row in atoms[j]:
            x = _insert(x, row, p)
        if len(x) < n:
            return sum(1 << i for i, v in enumerate(gens)
                       if in_span(x, v, p)), x

    return sorted(closed_sets(len(atoms), close), key=lambda b: (len(b), b))


def snf_invariant_factors(m: MatrixFp) -> tuple[Poly, ...]:
    """Nonconstant diagonal entries of the Smith normal form of xI - M,
    monic, in ascending divisibility order."""
    from qgca.matfp import p_add

    p = m.p
    E = _poly_matrix_of(m)
    n = m.n

    for k in range(n):
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if E[i][j] and (best is None
                                    or len(E[i][j]) < len(E[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != k:
                E[k], E[bi] = E[bi], E[k]
            if bj != k:
                for row in E:
                    row[k], row[bj] = row[bj], row[k]
            changed = False
            for i in range(k + 1, n):
                if E[i][k]:
                    q, _ = p_divmod(E[i][k], E[k][k], p)
                    if q:
                        for j in range(k, n):
                            E[i][j] = p_sub(E[i][j], p_mul(q, E[k][j], p), p)
                    if E[i][k]:
                        changed = True
            for j in range(k + 1, n):
                if E[k][j]:
                    q, _ = p_divmod(E[k][j], E[k][k], p)
                    if q:
                        for i in range(k, n):
                            E[i][j] = p_sub(E[i][j], p_mul(q, E[i][k], p), p)
                    if E[k][j]:
                        changed = True
            if changed:
                continue
            off = [(i, j) for i in range(k + 1, n) for j in range(k + 1, n)
                   if E[i][j] and p_divmod(E[i][j], E[k][k], p)[1]]
            if off:
                i = off[0][0]
                for j in range(k, n):
                    E[k][j] = p_add(E[k][j], E[i][j], p)
                continue
            break

    factors = [p_monic(E[i][i], p) for i in range(n) if E[i][i]]
    return tuple(f for f in factors if len(f) >= 2)


# ---------------------------------------------------------------------------
# the recursive per-word measure engine

def positive_words(m, depth):
    """All positive-mass words of the given length, lexicographically.

    Zero-mass subtrees are pruned, which additivity makes exact.
    """
    def rec(w, p):
        if len(w) == depth:
            yield w, p
            return
        for b in range(m.alphabet_size):
            q = m.eval(w + (b,))
            if q > 0:
                yield from rec(w + (b,), q)

    if depth == 0:
        yield (), ONE
        return
    yield from rec((), ONE)


def invariance_report(m, depth, rule=None):
    """Exact maximum of |pushforward(w) - m(w)| over all words of the depth.

    ``rule`` selects the CA pushforward; None selects the shift.
    """
    _check_depth(m.alphabet_size, depth)
    pushed = pushforward_shift(m) if rule is None else pushforward_ca(m, rule)
    best, best_word = ZERO, None

    def rec(w):
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


_factorize_cached = cache(_factorize)


def entropy_combo(m, depth):
    """H_depth as an exact linear combination {base: coeff} of log2(base)."""
    combo = {}
    for _, p in positive_words(m, depth):
        for base, e in _log2_exponents(p, _factorize_cached):
            combo[base] = combo.get(base, ZERO) - p * e
    return {b: c for b, c in combo.items() if c != 0}


def block_entropy(m, depth):
    _check_depth(m.alphabet_size, depth)
    return _combo_float(entropy_combo(m, depth))


def entropy_rate_profile(m, n_max):
    if n_max < 2:
        return []
    _check_depth(m.alphabet_size, n_max)
    combos = [entropy_combo(m, k) for k in range(1, n_max + 1)]
    return [_combo_float(_combo_sub(combos[k + 1], combos[k]))
            for k in range(n_max - 1)]


def coset_measure_check(m, g, subgroup_members, depth, mass_floor=ZERO):
    """Check that conditional distributions are uniform on right cosets."""
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
    worst = None
    for w, mass in positive_words(m, depth):
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


def fiber_spectrum(m, rule, depth, mass_floor=ZERO):
    """Conditional weights of the N fiber preimages over each image word."""
    from qgca.automaton import fiber_preimages

    pushed = pushforward_ca(m, rule)
    _check_depth(m.alphabet_size, depth + 1)
    rows, largest = [], ZERO
    for w, total in positive_words(pushed, depth):
        largest = max(largest, total)
        if total < mass_floor:
            continue
        masses = [m.eval(f) for f in fiber_preimages(rule, w)]
        weights = tuple(v / total for v in masses)
        rows.append(FiberRow(w, total, sum(1 for v in weights if v > 0), weights))
    if not rows:
        raise BadParams(f"mass floor {mass_floor} prunes every image word: "
                        f"the largest pushforward mass at depth {depth} is "
                        f"{largest}")

    counts = Counter(r.support_count for r in rows)
    top = max(counts.values())
    k_est = min(k for k, c in counts.items() if c == top)
    positive = {v for r in rows for v in r.weights if v > 0}
    eta = positive.pop() if len(positive) == 1 else None
    inc = _combo_sub(entropy_combo(m, depth + 1), entropy_combo(m, depth))
    target = {b: Fraction(e) for b, e in _factorize(k_est)}
    check = abs(_combo_float(_combo_sub(inc, target)))
    dev = invariance_report(m, depth, rule).max_abs_deviation
    return FiberReport(depth=depth, mass_floor=mass_floor, rows=tuple(rows),
                       K_estimate=k_est, eta_constant=eta,
                       entropy_check=check, invariance_deviation=dev)


def support_alphabet(m, depth):
    """Symbols of positive single-site mass, and whether every length-
    ``depth`` word over them has positive mass."""
    if depth < 2:
        raise BadParams("support check needs depth >= 2")
    symbols = [b for b in range(m.alphabet_size) if m.eval((b,)) > 0]
    if len(symbols) ** depth > WORD_ENUMERATION_BOUND:
        raise DepthTooLarge(len(symbols), depth, WORD_ENUMERATION_BOUND)
    full = True

    def rec(w):
        if len(w) == depth:
            return True
        for b in symbols:
            ext = w + (b,)
            if m.eval(ext) == 0 or not rec(ext):
                return False
        return True

    full = rec(())
    return frozenset(symbols), full
