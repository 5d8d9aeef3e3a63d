"""Endomorphic cellular automata on product group shifts: affine
decomposition, kernel words and the induced alphabet permutation, invariant
subgroups, subgroup lattices, and the lemma audits that cross-check the
combinatorial and linear-algebra views of the kernel."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automaton import LocalRule, is_bipermutative, make_rule
from .errors import (AlphabetSizeMismatch, BadParams, NotAffine,
                     NotBipermutative, NotEndomorphicCA, NotEndomorphism,
                     TooLarge)
from .groups import GroupTable, elementary_abelian_group
from .matfp import (MatrixFp, Poly, RcfResult, Vec, char_roots,
                    invariant_subspaces, rcf)
from .quasigroup import (CLOSURE_ORDER_BOUND, first_hit, pack_digits,
                         row_solutions, subquasigroups, unpack_digits)


# ---------------------------------------------------------------------------
# affine decomposition over abelian groups

@dataclass(frozen=True)
class AffineDecomposition:
    """phi(a, b) = phi0(a).phi1(b), or phi0(a) + phi1(b) over an abelian
    group, with both maps endomorphisms."""

    phi0: tuple[int, ...]
    phi1: tuple[int, ...]
    phi0_automorphism: bool
    phi1_automorphism: bool
    bipermutative: bool


def _check_alphabet(rule: LocalRule, g: GroupTable) -> None:
    if not rule.is_rnnca:
        raise NotBipermutative("rule is not nearest-neighbour")
    if rule.alphabet_size != g.order:
        raise AlphabetSizeMismatch("rule alphabet", rule.alphabet_size,
                                   "group", g.order)


def _non_endomorphism(img: np.ndarray, g: GroupTable) -> tuple[int, int] | None:
    """The first row-major (a, b) with img(a.b) != img(a).img(b), or None.

    Certificate first: the equation is checked only for a in the generating
    set S = g.generators, which reads |S|.N entries.  That suffices, since
    the set of a with img(a.b) = img(a).img(b) for all b is closed under
    products: for two such a, a', associativity gives img(a.a'.b) =
    img(a).img(a'.b) = img(a).img(a').img(b) = img(a.a').img(b).  So the set
    holds the subgroup <S> = G.  Every GroupTable is associative, verified
    or by construction.  Only when the certificate fails does the full
    row-major scan run, to find the first witness.
    """
    gt, s = g.table, list(g.generators)
    if np.array_equal(img[gt[s]], gt[img[s]][:, img]):
        return None
    cols = img.astype(np.intp)
    return first_hit(lambda r: img[gt[r]] != np.take(gt[img[r]], cols, axis=1),
                     g.order)


def _affine_fault(t: np.ndarray, g: GroupTable, phi0: np.ndarray,
                  phi1: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """("affine", (a, b)) for the first pair with t(a, b) != phi0(a).phi1(b),
    else ("phi0" or "phi1", witness) for a map that is no endomorphism.

    Each block gathers the rows phi0(a) of the group table, then takes the
    columns phi1 along axis 1, with intp indices converted once per call."""
    cols = phi1.astype(np.intp)
    bad = first_hit(
        lambda r: t[r] != np.take(g.table[phi0[r]], cols, axis=1), g.order)
    if bad is not None:
        return "affine", bad
    for name, img in (("phi0", phi0), ("phi1", phi1)):
        bad = _non_endomorphism(img, g)
        if bad is not None:
            return name, bad
    return None


def _split(phi0: np.ndarray, phi1: np.ndarray) -> AffineDecomposition:
    """The decomposition of a rule already checked to be phi0(a).phi1(b):
    it is bipermutative exactly when phi0 and phi1 are bijections."""
    p0, p1 = tuple(phi0.tolist()), tuple(phi1.tolist())
    auto0, auto1 = len(set(p0)) == len(p0), len(set(p1)) == len(p1)
    return AffineDecomposition(p0, p1, auto0, auto1, auto0 and auto1)


def decompose_affine(rule: LocalRule, g: GroupTable) -> AffineDecomposition:
    """Split a rule over an abelian group into its two endomorphism tables.

    phi0 is the action on the left neighbour (phi(. , e)) and phi1 on the
    right (phi(e, .)); the full table must factor through them, and each must
    respect the group operation.
    """
    _check_alphabet(rule, g)
    if not g.abelian:
        raise BadParams("affine decomposition needs an abelian group")
    t, e = rule.table, g.identity
    phi0, phi1 = t[:, e], t[e, :]
    fault = _affine_fault(t, g, phi0, phi1)
    if fault is not None:
        name, witness = fault
        if name == "affine":
            raise NotAffine(witness)
        raise NotEndomorphism(name, witness)
    return _split(phi0, phi1)


def affine_rho(g: GroupTable, dec: AffineDecomposition) -> tuple[int, ...]:
    """The kernel permutation predicted by the affine form: -phi1^{-1} . phi0."""
    if not (dec.phi0_automorphism and dec.phi1_automorphism):
        raise NotBipermutative("affine rho needs automorphism components")
    neg_phi1_inv = np.empty(g.order, dtype=np.intp)
    neg_phi1_inv[list(dec.phi1)] = g.inverse
    return tuple(neg_phi1_inv[list(dec.phi0)].tolist())


# ---------------------------------------------------------------------------
# kernel

def _verify_endomorphic(rule: LocalRule, g: GroupTable) -> AffineDecomposition:
    """Check phi(a.a', b.b') = phi(a,b).phi(a',b') for all quadruples and
    return the split of phi into phi0 and phi1.

    Over a product group shift this holds exactly when phi factors through
    phi0 = phi(.,e) and phi1 = phi(e,.), both are endomorphisms, and their
    images commute elementwise.  Row a is then b -> phi0(a).phi1(b).

    The commutation is certified on the generators S: if phi0(s) commutes
    with phi1(s') for all s, s' in S, then phi0(G) = <phi0(S)> lies in the
    centralizer of phi1(S), a subgroup, and so each phi0(a) commutes with
    <phi1(S)> = phi1(G).  The full scan runs only to find the witness.
    """
    t, gt, e, n = rule.table, g.table, g.identity, g.order
    if int(t[e, e]) != e:
        raise NotEndomorphicCA((e, e, e, e))
    phi0, phi1 = t[:, e], t[e, :]
    fault = _affine_fault(t, g, phi0, phi1)
    if fault is not None:
        name, (x, y) = fault
        raise NotEndomorphicCA({"affine": (x, e, e, y), "phi0": (x, y, e, e),
                                "phi1": (e, e, x, y)}[name])
    # t(a, b) = phi0(a).phi1(b) by now; ask that it equal phi1(b).phi0(a)
    s = list(g.generators)
    x, y = phi0[s], phi1[s]
    if not np.array_equal(gt[np.ix_(x, y)], gt[np.ix_(y, x)].T):
        # phi1(b).phi0(a) for the rows a in r: the columns phi0(a) first,
        # then every row phi1(b), so each take holds one block
        cols, rows = phi0.astype(np.intp), phi1.astype(np.intp)
        a, b = first_hit(lambda r: t[r] != np.take(
            np.take(gt, cols[r], axis=1), rows, axis=0).T, n)
        raise NotEndomorphicCA((e, a, b, e))
    return _split(phi0, phi1)


def _cycles(perm) -> list[list[int]]:
    """The cycles of perm, each from its smallest member, in order of it.
    Both callers pass a permutation (kernel the rho of a rule it verified
    bipermutative, rho_orbits one it checked), so every walk closes."""
    seen = [False] * len(perm)
    cycles = []
    for a in range(len(perm)):
        if seen[a]:
            continue
        cyc = [a]
        seen[a] = True
        x = perm[a]
        while x != a:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        cycles.append(cyc)
    return cycles


@dataclass(frozen=True)
class KernelReport:
    """Kernel configurations of an endomorphic rule, one per alphabet symbol.

    rho is the permutation with phi(a, rho(a)) = e, so the kernel point with
    first symbol a is the rho-orbit of a; periods[a] is its length.  The
    period words are built from rho only when read: word(a) for one symbol,
    zeta for all of them, with shift(zeta[a]) = zeta[rho(a)].  split is the
    phi0/phi1 decomposition that the kernel verified.
    """

    rho: tuple[int, ...]
    periods: tuple[int, ...]
    split: AffineDecomposition

    def word(self, a: int) -> tuple[int, ...]:
        """zeta[a]: rho walked from a for periods[a] steps."""
        w = [a]
        for _ in range(self.periods[a] - 1):
            w.append(self.rho[w[-1]])
        return tuple(w)

    @cached_property
    def zeta(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.word(a) for a in range(len(self.rho)))


def kernel(rule: LocalRule, g: GroupTable) -> KernelReport:
    """Solve phi(k_i, k_{i+1}) = e by right-cancellation from every start
    symbol; verifies the rule is a bipermutative endomorphic CA first.  A
    rule that is neither is reported as not bipermutative."""
    _check_alphabet(rule, g)
    try:
        split = _verify_endomorphic(rule, g)
    except NotEndomorphicCA:
        if is_bipermutative(rule):
            raise
        split = None
    if split is None or not split.bipermutative:
        raise NotBipermutative("kernel needs a bipermutative rule")
    n, e, t = g.order, g.identity, rule.table
    rho = row_solutions(t, e).tolist()
    periods = [0] * n
    for cyc in _cycles(rho):
        for b in cyc:
            periods[b] = len(cyc)
    return KernelReport(tuple(rho), tuple(periods), split)


@dataclass(frozen=True)
class RhoOrbits:
    orbits: tuple[tuple[int, ...], ...]
    single_orbit: bool


def rho_orbits(rho, g: GroupTable) -> RhoOrbits:
    """Cycle decomposition of rho restricted to the non-identity symbols."""
    rho = tuple(int(v) for v in rho)
    n, e = g.order, g.identity
    if n == 1:
        raise BadParams("the trivial group has no non-identity symbol to orbit")
    if sorted(rho) != list(range(n)):
        raise BadParams("rho must be a permutation of the alphabet")
    if rho[e] != e:
        raise BadParams("rho must fix the identity")
    orbits = [tuple(c) for c in _cycles(rho) if c[0] != e]
    return RhoOrbits(tuple(orbits), len(orbits) == 1)


# ---------------------------------------------------------------------------
# subgroup lattices

def invariant_subgroups(g: GroupTable, rho=None) -> list[tuple[int, ...]]:
    """All subgroups B with rho(B) = B, including the trivial ones; every
    subgroup when rho is None.

    In a finite group a nonempty subset closed under the operation is a
    subgroup, so these are the subsets closed under the operation and rho.
    """
    if rho is None:
        return subquasigroups(g, include_trivial=True)
    rho = tuple(int(v) for v in rho)
    if sorted(rho) != list(range(g.order)) or rho[g.identity] != g.identity:
        raise BadParams("rho must be a permutation fixing the identity")
    return subquasigroups(g, include_trivial=True, unary=(rho,))


def subgroups(g: GroupTable) -> list[tuple[int, ...]]:
    return invariant_subgroups(g, None)


def h_max(g: GroupTable) -> float:
    """log2 of the largest proper subgroup order."""
    if g.order == 1:
        raise BadParams("the trivial group has no proper subgroup")
    best = max(len(s) for s in subgroups(g) if len(s) < g.order)
    return math.log2(best)


# ---------------------------------------------------------------------------
# linear view of rho on elementary abelian groups

def elementary_structure(g: GroupTable) -> tuple[int, int] | None:
    """(p, k) when g is elementary abelian of order p^k, else None.

    An abelian group whose generators all have prime order p is (Z/p)^k,
    and each greedy generator then multiplies the subgroup's order by p,
    so k is the number of generators.
    """
    if not g.abelian or g.order == 1:
        return None
    p = 2                  # the smallest divisor >= 2, hence prime
    while g.order % p:
        p += 1
    s = np.array(g.generators)
    power = s
    for _ in range(p - 1):
        power = g.table[power, s]
    if (power != g.identity).any():
        return None
    return p, len(s)


@dataclass(frozen=True)
class LinearView:
    """Coordinates for an elementary abelian group plus rho as a matrix:
    index[pack_digits(p, v)] is the element with coordinates v in basis."""

    p: int
    k: int
    basis: tuple[int, ...]
    index: np.ndarray
    matrix: MatrixFp


def linear_view(g: GroupTable, rho) -> LinearView | None:
    """Express rho as a matrix over F_p when g is elementary abelian and rho
    is additive; None when either fails.

    The coordinates are an isomorphism of g onto F_p^k, so rho is additive
    exactly when the matrix of its basis images agrees with it on every
    element: that one check rejects every other rho."""
    struct = elementary_structure(g)
    if struct is None:
        return None
    p, k = struct
    r = np.asarray(rho, dtype=g.table.dtype)

    # the greedy generators form a basis; span holds every element reached
    basis = g.generators
    coord = np.zeros((g.order, k), dtype=np.int64)
    span = np.array([g.identity])
    for i, a in enumerate(basis):
        layers = [span]
        for t in range(1, p):
            cur = g.table[layers[-1], a]
            coord[cur] = coord[span]
            coord[cur, i] = t
            layers.append(cur)
        span = np.concatenate(layers)
    # column j holds the coordinates of rho(basis[j])
    matrix = MatrixFp.from_rows(p, coord[r[list(basis)]].T)
    m = np.asarray(matrix.rows, dtype=np.int64)
    if not np.array_equal(coord @ m.T % p, coord[r]):
        return None
    index = np.empty(g.order, dtype=np.intp)
    index[pack_digits(p, coord.T)] = np.arange(g.order)
    return LinearView(p, k, basis, index, matrix)


def subspace_to_subgroup(view: LinearView, basis_rows) -> tuple[int, ...]:
    """Element indices, ascending, of the subgroup whose coordinates span
    the rows of basis_rows; (identity,) for no rows.

    The coefficient vectors are the base-p digits of 0..p**d - 1 for d
    rows; their combinations of the rows are packed (which reduces each
    entry mod p) and read through view.index in one gather."""
    p, d = view.p, len(basis_rows)
    coeffs = np.array(unpack_digits(p, d, np.arange(p ** d)), dtype=np.int64)
    rows = np.array(basis_rows, dtype=np.int64)
    vectors = coeffs.reshape(d, p ** d).T @ rows.reshape(d, view.k)
    return tuple(sorted(set(view.index[pack_digits(p, vectors.T)].tolist())))


# ---------------------------------------------------------------------------
# rule builders for matrix examples

def affine_matrix_system(m0: MatrixFp, m1: MatrixFp | None = None
                         ) -> tuple[GroupTable, LocalRule]:
    """The product group (Z/p)^k with the rule phi(a, b) = M0 a + M1 b
    (M1 defaults to the identity).

    Row a of the rule table is row M0 a of the group table, so the table is
    one axis-0 take of those rows; an explicit M1 then permutes the columns
    by one axis-1 take of the columns M1 b."""
    p, k = m0.p, m0.n
    if m1 is not None and (m1.p, m1.n) != (p, k):
        raise BadParams("component matrices must share modulus and size")
    g = elementary_abelian_group(p, k)
    digits = unpack_digits(p, k, np.arange(g.order))

    def images(mat: MatrixFp) -> np.ndarray:
        return pack_digits(p, [sum(c * d for c, d in zip(row, digits))
                               for row in mat.rows])

    table = g.table.take(images(m0), axis=0)
    if m1 is not None:
        table = table.take(images(m1), axis=1)
    return g, make_rule(g.order, 0, 1, table)


# ---------------------------------------------------------------------------
# lemma audits

@dataclass(frozen=True)
class LemmaAuditReport:
    """Both sides of the two claimed equivalences, computed independently.

    Kernel side: is the non-identity alphabet a single rho-orbit, and does a
    nontrivial proper rho-invariant subgroup exist?  Linear side (when rho is
    linear over an elementary abelian group): is the canonical form a single
    block, and does a nontrivial proper invariant subspace exist?  split is
    the kernel's verified phi0/phi1 decomposition.
    """

    rho: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    single_orbit: bool
    subgroup_method: str
    has_invariant_subgroup: bool | None
    subgroup_witness: tuple[int, ...] | None
    kernel_lemma_verdict: str
    linear: bool
    invariant_factors: tuple[Poly, ...] | None
    simple: bool | None
    has_invariant_subspace: bool | None
    subspace_witness: tuple[Vec, ...] | None
    eigenvalues: tuple[int, ...] | None
    rcf_lemma_verdict: str | None
    split: AffineDecomposition


def lemma_audit(g: GroupTable, rule: LocalRule) -> LemmaAuditReport:
    """Audit the single-orbit and simple-form equivalences on one instance.

    Nothing is assumed: each side of each equivalence is computed by its own
    enumeration, and disagreements ship a witness.  The trivial group has
    no non-identity symbol and no proper subgroup, so it is rejected.
    """
    if g.order == 1:
        raise BadParams("the trivial group has no non-identity symbol to audit")
    kern = kernel(rule, g)
    orb = rho_orbits(kern.rho, g)
    view = linear_view(g, kern.rho)

    method = "unavailable"
    has_sub: bool | None = None
    witness: tuple[int, ...] | None = None
    if g.order <= CLOSURE_ORDER_BOUND:
        subs = invariant_subgroups(g, kern.rho)
        nontrivial = [s for s in subs if 1 < len(s) < g.order]
        has_sub = bool(nontrivial)
        witness = nontrivial[0] if nontrivial else None
        method = "enumeration"

    factors = simple = subspaces = sub_witness = eigen = rcf_verdict = None
    if view is not None:
        result: RcfResult = rcf(view.matrix)
        factors = result.invariant_factors
        simple = result.simple
        eigen = tuple(char_roots(view.matrix))
        try:
            spaces = invariant_subspaces(view.matrix)
        except TooLarge:
            spaces = None
        if spaces is not None:
            subspaces = bool(spaces)
            sub_witness = spaces[0] if spaces else None
            rcf_verdict = "AGREE" if simple == (not subspaces) else "DISAGREE"
            if has_sub is None:
                # subgroups of an elementary abelian group are subspaces
                has_sub = subspaces
                witness = (subspace_to_subgroup(view, sub_witness)
                           if sub_witness else None)
                method = "subspace"

    if has_sub is None:
        verdict = "UNDECIDED"
    else:
        verdict = "AGREE" if orb.single_orbit == (not has_sub) else "DISAGREE"

    return LemmaAuditReport(
        rho=kern.rho, orbits=orb.orbits, single_orbit=orb.single_orbit,
        subgroup_method=method, has_invariant_subgroup=has_sub,
        subgroup_witness=witness, kernel_lemma_verdict=verdict,
        linear=view is not None, invariant_factors=factors, simple=simple,
        has_invariant_subspace=subspaces, subspace_witness=sub_witness,
        eigenvalues=eigen, rcf_lemma_verdict=rcf_verdict, split=kern.split)
