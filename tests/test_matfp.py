from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgca import matfp as mf
from qgca.errors import (BadParams, BoundError, ParseError, QgcaError,
                         TooLarge)

from oracles import (cyclic_subspace, invariant_subspaces_all_atoms,
                     snf_invariant_factors)

M7 = mf.MatrixFp.from_rows(7, [[0, 0, 0, 1],
                               [1, 0, 0, 1],
                               [0, 1, 0, 1],
                               [0, 0, 1, 1]])


def random_matrix(p, n, rng):
    return mf.MatrixFp.from_rows(p, [[rng.randrange(p) for _ in range(n)]
                                     for _ in range(n)])


# ---------------------------------------------------------------------------
# polynomials

def test_poly_divmod_contract(rng):
    for p in (2, 3, 7):
        for _ in range(30):
            f = mf.p_norm([rng.randrange(p) for _ in range(rng.randrange(1, 7))], p)
            g = mf.p_norm([rng.randrange(p) for _ in range(rng.randrange(1, 5))], p)
            if not g:
                continue
            q, r = mf.p_divmod(f, g, p)
            assert mf.p_add(mf.p_mul(q, g, p), r, p) == f
            assert mf.p_deg(r) < mf.p_deg(g)


def test_poly_gcd_lcm_contract(rng):
    p = 5
    for _ in range(30):
        f = mf.p_norm([rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
        g = mf.p_norm([rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
        if not f or not g:
            continue
        d = mf.p_gcd(f, g, p)
        assert mf.p_divmod(f, d, p)[1] == ()
        assert mf.p_divmod(g, d, p)[1] == ()
        l = mf.p_lcm(f, g, p)
        assert mf.p_divmod(l, f, p)[1] == ()
        assert mf.p_divmod(l, g, p)[1] == ()


def test_coprime_lcm_split(rng):
    p = 3
    for _ in range(40):
        f = mf.p_monic(mf.p_norm(
            [rng.randrange(p) for _ in range(rng.randrange(2, 7))], p), p)
        g = mf.p_monic(mf.p_norm(
            [rng.randrange(p) for _ in range(rng.randrange(2, 7))], p), p)
        if mf.p_deg(f) < 1 or mf.p_deg(g) < 1:
            continue
        F, G = mf.coprime_lcm_split(f, g, p)
        assert mf.p_divmod(f, F, p)[1] == ()
        assert mf.p_divmod(g, G, p)[1] == ()
        assert mf.p_deg(mf.p_gcd(F, G, p)) == 0
        assert mf.p_mul(F, G, p) == mf.p_lcm(f, g, p)


def test_coprime_lcm_split_self_check(monkeypatch):
    """The split is re-checked against lcm(f, g): against a wrong lcm,
    here f * g for f = g = x + 1 over F_2, it raises."""
    monkeypatch.setattr(mf, "p_lcm", mf.p_mul)
    with pytest.raises(QgcaError, match="coprime lcm split failed"):
        mf.coprime_lcm_split((1, 1), (1, 1), 2)


def test_rcf_self_check_product(monkeypatch):
    monkeypatch.setattr(mf, "char_poly", lambda m: (1,))
    with pytest.raises(QgcaError, match="invariant factors do not multiply "
                                        "to the characteristic polynomial"):
        mf.rcf(mf.MatrixFp.identity(2, 2))


def test_rcf_self_check_divisibility_chain(monkeypatch):
    """A split that never merges two vectors keeps the first vector of each
    round: on diag(0, 0, 1) over F_2 the factors come out x + 1, x, x, whose
    product is still the characteristic polynomial."""
    monkeypatch.setattr(mf, "coprime_lcm_split", lambda f, g, p: (f, (1,)))
    with pytest.raises(QgcaError, match="invariant factors fail the "
                                        "divisibility chain"):
        mf.rcf(mf.MatrixFp.from_rows(2, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))


def test_rcf_self_check_minimal_polynomial(monkeypatch):
    monkeypatch.setattr(mf, "min_poly", mf.char_poly)
    with pytest.raises(QgcaError, match="largest invariant factor is not "
                                        "the minimal polynomial"):
        mf.rcf(mf.MatrixFp.identity(2, 2))


def test_p_str():
    assert mf.p_str((6, 6, 6, 6, 1)) == "x^4 + 6x^3 + 6x^2 + 6x + 6"
    assert mf.p_str((1, 1)) == "x + 1"
    assert mf.p_str(()) == "0"


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials

def test_char_poly_identity_f2():
    ident = mf.MatrixFp.identity(2, 2)
    assert mf.char_poly(ident) == (1, 0, 1)          # (x+1)^2 over F2
    assert mf.min_poly(ident) == (1, 1)              # x + 1


def test_companion_char_equals_min():
    for p, f in ((2, (1, 1, 1)), (7, (4, 2, 0, 1)), (3, (2, 0, 1, 1))):
        c = mf.companion_matrix(f, p)
        assert mf.char_poly(c) == mf.p_monic(f, p)
        assert mf.min_poly(c) == mf.p_monic(f, p)
        assert mf.rcf(c).simple


def test_m7_char_min_frozen():
    assert mf.char_poly(M7) == (6, 6, 6, 6, 1)
    assert mf.min_poly(M7) == (6, 6, 6, 6, 1)
    assert mf.char_poly(M7.neg()) == (6, 1, 6, 1, 1)


def test_char_roots_frozen():
    assert mf.char_roots(M7) == [5]
    assert mf.char_roots(M7.neg()) == [2]


def test_min_poly_annihilates_and_divides(rng):
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            m = random_matrix(p, n, rng)
            f = mf.min_poly(m)
            c = mf.char_poly(m)
            assert mf.p_divmod(c, f, p)[1] == ()
            for i in range(n):
                e = tuple(1 if j == i else 0 for j in range(n))
                assert mf.poly_apply_vec(f, m.vec, e, p) == (0,) * n


def test_char_poly_against_snf_product(rng):
    for p in (2, 3, 5, 7):
        for n in (2, 3, 4, 5):
            m = random_matrix(p, n, rng)
            prod = (1,)
            for f in snf_invariant_factors(m):
                prod = mf.p_mul(prod, f, p)
            assert prod == mf.char_poly(m)


@st.composite
def small_matrices(draw, max_vectors):
    """A matrix over F_p with p^n <= max_vectors."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, max(k for k in range(1, 8) if p ** k <= max_vectors)))
    entries = st.integers(0, p - 1)
    return mf.MatrixFp.from_rows(p, draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=60)
@given(m=small_matrices(125))
def test_min_poly_is_the_least_monic_annihilator(m):
    p, n = m.p, m.n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    least = next(f for d in range(1, n + 1)
                 for f in (c + (1,) for c in product(range(p), repeat=d))
                 if all(not any(mf.poly_apply_vec(f, m.vec, e, p))
                        for e in units))
    assert mf.min_poly(m) == least


@settings(max_examples=40)
@given(m=small_matrices(7 ** 5))
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = sympy.Matrix(m.rows).charpoly(x).all_coeffs()
    assert mf.char_poly(m) == mf.p_norm([int(c) for c in reversed(coeffs)], m.p)


# ---------------------------------------------------------------------------
# row echelon machinery

@st.composite
def row_lists(draw, max_vectors=7 ** 5):
    """(p, rows): one to five rows of a common width over F_p, with
    p^width <= max_vectors."""
    m = draw(small_matrices(max_vectors))
    rows = draw(st.lists(st.sampled_from(m.rows + tuple(map(m.vec, m.rows))),
                         min_size=1, max_size=5))
    return m.p, rows


def span_of(rows, p):
    n = len(rows[0])
    return {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p
                  for j in range(n))
            for cs in product(range(p), repeat=len(rows))}


@given(data=st.data(), pr=row_lists())
def test_rref_depends_only_on_the_span(data, pr):
    p, rows = pr
    basis = mf.rref(rows, p)
    pivots = [next(i for i, x in enumerate(r) if x) for r in basis]
    assert pivots == sorted(set(pivots))
    assert all(r[c] == int(i == k) for k, c in enumerate(pivots)
               for i, r in enumerate(basis))
    assert all(mf.in_span(basis, r, p) for r in rows)
    assert mf.rref(data.draw(st.permutations(rows)), p) == basis
    # entries need not be reduced mod p
    lifted = [tuple(x + p * (i - j) for j, x in enumerate(r))
              for i, r in enumerate(rows)]
    assert mf.rref(lifted, p) == basis
    assert all(mf.in_span(basis, r, p) for r in lifted)
    combos = data.draw(st.lists(st.lists(st.integers(0, p - 1),
                                         min_size=len(rows),
                                         max_size=len(rows)), max_size=3))
    extra = [tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p
                   for j in range(len(rows[0]))) for cs in combos]
    assert mf.rref(rows + extra, p) == basis


@given(pr=row_lists(max_vectors=27))
def test_in_span_matches_enumerated_span(pr):
    p, rows = pr
    basis = mf.rref(rows, p)
    span = span_of(rows, p)
    assert len(span) == p ** len(basis)
    for v in product(range(p), repeat=len(rows[0])):
        assert mf.in_span(basis, v, p) == (v in span)


# ---------------------------------------------------------------------------
# rational canonical form

def test_rcf_identity_f2():
    result = mf.rcf(mf.MatrixFp.identity(2, 2))
    assert result.invariant_factors == ((1, 1), (1, 1))
    assert not result.simple


def test_rcf_m7_simple():
    for m in (M7, M7.neg()):
        result = mf.rcf(m)
        assert result.simple
        assert result.invariant_factors == (mf.char_poly(m),)


def test_rcf_matches_snf_oracle(rng):
    for p in (2, 3, 5, 7):
        for n in (2, 3, 4, 5, 6):
            for _ in range(4):
                m = random_matrix(p, n, rng)
                assert mf.rcf(m).invariant_factors == snf_invariant_factors(m)


def test_rcf_divisibility_and_min(rng):
    for _ in range(10):
        m = random_matrix(3, 5, rng)
        factors = mf.rcf(m).invariant_factors
        for a, b in zip(factors, factors[1:]):
            assert mf.p_divmod(b, a, 3)[1] == ()
        assert factors[-1] == mf.min_poly(m)


# ---------------------------------------------------------------------------
# invariant subspaces

def test_irreducible_companion_has_no_invariant_subspaces():
    c = mf.companion_matrix((1, 1, 1), 2)            # x^2 + x + 1, irreducible
    assert mf.invariant_subspaces(c) == []
    assert mf.invariant_subspaces_exhaustive(c) == []


def test_identity_f2_has_three_lines():
    ident = mf.MatrixFp.identity(2, 2)
    main = mf.invariant_subspaces(ident)
    assert len(main) == 3
    assert all(len(b) == 1 for b in main)
    assert main == mf.invariant_subspaces_exhaustive(ident)


def test_m7neg_invariant_subspaces_frozen():
    spaces = mf.invariant_subspaces(M7.neg())
    assert [len(b) for b in spaces] == [1, 3]
    line = spaces[0]
    assert mf.in_span(line, (1, 4, 6, 5), 7)         # the eigenvector of 2
    assert spaces == mf.invariant_subspaces_exhaustive(M7.neg())


def test_invariant_subspaces_strategies_agree(rng):
    for p, n in ((2, 3), (2, 4), (3, 3), (5, 2), (2, 5), (2, 6), (3, 4),
                 (7, 2), (3, 2), (2, 2)):
        for _ in range(4):
            m = random_matrix(p, n, rng)
            assert mf.invariant_subspaces(m) == \
                mf.invariant_subspaces_exhaustive(m)


def _power_of_x_minus_2(p, k):
    f = (1,)
    for _ in range(k):
        f = mf.p_mul(f, (p - 2, 1), p)
    return f


@st.composite
def subspace_matrices(draw):
    """A random matrix over F_p (p in 2, 3, 5, 7, n <= 4), an identity, a
    nilpotent Jordan block, the companion matrix of (x - 2)^4 over F_7, or
    M7 and its negative.  Identities stay at p^n <= 343, since their every
    subspace is invariant."""
    kind = draw(st.sampled_from(["random", "random", "identity", "jordan",
                                 "companion", "m7", "m7neg"]))
    if kind == "companion":
        return mf.companion_matrix(_power_of_x_minus_2(7, 4), 7)
    if kind in ("m7", "m7neg"):
        return M7 if kind == "m7" else M7.neg()
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3 if kind == "identity" and p > 5 else 4))
    if kind == "identity":
        return mf.MatrixFp.identity(p, n)
    if kind == "jordan":
        return mf.MatrixFp.from_rows(p, [[int(j == i + 1) for j in range(n)]
                                         for i in range(n)])
    return mf.MatrixFp.from_rows(p, draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=n, max_size=n)))


@settings(max_examples=80)
@given(m=subspace_matrices())
def test_batched_cyclic_subspaces_match_the_per_line_oracle(m):
    """The batched elimination finds the proper cyclic subspaces that the
    per-vector Krylov oracle finds on every line of F_p^n (one vector per
    line, its first nonzero entry 1, in product order): the same RREF
    bases, first met in the same order, with the same last generator."""
    p, n = m.p, m.n
    expect = {}
    for v in product(range(p), repeat=n):
        if next((x for x in v if x), 0) == 1:
            basis = cyclic_subspace(m, v)
            if len(basis) < n:
                expect[basis] = v
    assert list(mf._cyclic_subspaces(m).items()) == list(expect.items())
    assert mf.invariant_subspaces(m) == mf.invariant_subspaces_exhaustive(m)


def test_scalar_components_are_listed_without_a_search(monkeypatch):
    """The identity over F_7^4 and F_5^4 and diag(1, 1, 2) over F_3 act as a
    scalar on each eigenspace, so their subspaces are counted and listed
    and no closed set is searched; the Jordan block over F_2 is searched."""
    calls = []
    closed_sets = mf.closed_sets

    def spy(*args):
        calls.append(args)
        return closed_sets(*args)

    monkeypatch.setattr(mf, "closed_sets", spy)
    ident = mf.MatrixFp.identity(7, 4)
    spaces = mf.invariant_subspaces(ident)
    # the Gaussian binomials [4 choose k]_7 for k = 1, 2, 3
    assert len(spaces) == 400 + 2850 + 400 == 3650
    assert spaces == mf.invariant_subspaces_exhaustive(ident)
    assert len(mf.invariant_subspaces(mf.MatrixFp.identity(5, 4))) == 1118
    diag = mf.MatrixFp.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert len(mf.invariant_subspaces(diag)) == 10
    assert calls == []
    jordan = mf.MatrixFp.from_rows(2, [[1, 1], [0, 1]])
    assert mf.invariant_subspaces(jordan) == [((1, 0),)]
    assert len(calls) == 1


@st.composite
def block_sums(draw):
    """A block sum over F_p (p in 2, 3, 5, 7) of scalar, Jordan and
    companion blocks, a random matrix, or M7 and its negative.  Dimensions
    stay at p^n <= 343, and at n <= 5 over F_2 and n <= 4 over F_3, so the
    all-atom search stays quick."""
    kind = draw(st.sampled_from(["blocks"] * 4 + ["random", "m7", "m7neg"]))
    if kind in ("m7", "m7neg"):
        return M7 if kind == "m7" else M7.neg()
    p = draw(st.sampled_from([2, 3, 5, 7]))
    top = {2: 5, 3: 4, 5: 3, 7: 3}[p]
    entries = st.integers(0, p - 1)
    if kind == "random":
        n = draw(st.integers(1, top))
        return mf.MatrixFp.from_rows(p, draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n,
            max_size=n)))
    blocks = []
    while not blocks or (sum(map(len, blocks)) < top and draw(st.booleans())):
        k = draw(st.integers(1, top - sum(map(len, blocks))))
        shape, lam = draw(st.sampled_from(["scalar", "jordan",
                                           "companion"])), draw(entries)
        if shape == "companion":
            f = (*draw(st.lists(entries, min_size=k, max_size=k)), 1)
            blocks.append(mf.companion_matrix(f, p).rows)
        else:
            blocks.append([[lam * (i == j) + (shape == "jordan" and j == i + 1)
                            for j in range(k)] for i in range(k)])
    n, rows, at = sum(map(len, blocks)), [], 0
    for block in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - len(r)) for r in block]
        at += len(block)
    return mf.MatrixFp.from_rows(p, rows)


@settings(max_examples=100)
@given(m=block_sums())
def test_primary_decomposition_matches_the_other_strategies(m):
    """The component-wise family is the exhaustive filter's and the
    all-atom closed-set search's, the same sorted RREF list."""
    spaces = mf.invariant_subspaces(m)
    assert spaces == mf.invariant_subspaces_exhaustive(m)
    assert spaces == invariant_subspaces_all_atoms(m)


def test_line_representatives_are_the_lines_in_product_order():
    for p, n in ((2, 1), (2, 4), (3, 3), (7, 4), (5, 1)):
        codes = mf._line_representatives(p, n)
        assert len(codes) == (p ** n - 1) // (p - 1)
        lines = [v for v in product(range(p), repeat=n)
                 if next((x for x in v if x), 0) == 1]
        assert [tuple(int(c) // p ** (n - 1 - i) % p for i in range(n))
                for c in codes] == lines


def test_rref_stack_matches_rref_on_wide_and_deficient_blocks(rng):
    """Stacks of 3 x 5 matrices mod 7 and 11, with zero and repeated rows,
    reduce to the canonical bases of :func:`mf.rref`."""
    for p in (7, 11):
        blocks = [[[rng.randrange(p) if rng.random() < 0.5 else 0
                    for _ in range(5)] for _ in range(3)] for _ in range(40)]
        blocks += [[[0] * 5] * 3, [[3, 1, 0, 0, 2]] * 3]
        red, rank = mf._rref_stack(np.array(blocks, dtype=np.int64), p)
        for block, got, r in zip(blocks, red.tolist(), rank.tolist()):
            assert tuple(map(tuple, got[:r])) == mf.rref(block, p)
            assert not any(map(any, got[r:]))


def test_a_one_dimensional_space_over_a_large_prime_reads_one_line():
    """F_p with p = 2**20 - 3 has one line, which spans the whole space:
    no proper invariant subspace, found without visiting p vectors."""
    assert mf.invariant_subspaces(mf.MatrixFp.from_rows(1048573, [[5]])) == []


def test_invariant_subspaces_are_invariant(rng):
    m = random_matrix(3, 4, rng)
    for basis in mf.invariant_subspaces(m):
        for row in basis:
            assert mf.in_span(basis, m.vec(row), 3)


def test_invariant_subspaces_bound():
    with pytest.raises(TooLarge):
        mf.invariant_subspaces(mf.MatrixFp.identity(2, 21))


def test_invariant_subspaces_family_bound(monkeypatch):
    ident = mf.MatrixFp.identity(3, 4)          # 210 proper subspaces
    monkeypatch.setattr(mf, "SUBSPACE_FAMILY_BOUND", 210)
    assert len(mf.invariant_subspaces(ident)) == 210
    monkeypatch.setattr(mf, "SUBSPACE_FAMILY_BOUND", 209)
    with pytest.raises(TooLarge, match="invariant subspace family exceeds 209"):
        mf.invariant_subspaces(ident)


def test_invariant_subspaces_family_bound_beyond_the_eigenspace_count(
        monkeypatch):
    """diag(1, 1, 2) over F_3 has 9 distinct proper cyclic subspaces and 10
    invariant subspaces (5 lines, the plane E_1 and the 4 planes through
    E_2), so the 10th is found by the enumeration, not by the counts of
    cyclic subspaces or of eigenspace subspaces that it makes first."""
    m = mf.MatrixFp.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert mf.invariant_subspaces(m) == mf.invariant_subspaces_exhaustive(m)
    monkeypatch.setattr(mf, "SUBSPACE_FAMILY_BOUND", 10)
    assert len(mf.invariant_subspaces(m)) == 10
    monkeypatch.setattr(mf, "SUBSPACE_FAMILY_BOUND", 9)
    with pytest.raises(TooLarge, match="invariant subspace family exceeds 9"):
        mf.invariant_subspaces(m)


def test_invariant_subspaces_family_bound_from_eigenspace_count(monkeypatch):
    """The identity on F_2^10 has 1,023 lines and far more than
    SUBSPACE_FAMILY_BOUND subspaces, all invariant: the bound is exceeded
    before any closed set is enumerated."""
    def enumerate_nothing(*args):
        raise AssertionError("closed sets were enumerated")

    monkeypatch.setattr(mf, "closed_sets", enumerate_nothing)
    with pytest.raises(TooLarge, match="invariant subspace family exceeds "
                                       f"{mf.SUBSPACE_FAMILY_BOUND}"):
        mf.invariant_subspaces(mf.MatrixFp.identity(2, 10))


def test_invariant_subspaces_self_check(monkeypatch):
    """Every subspace the enumeration returns is re-checked for invariance:
    span(e2) is not invariant under the Jordan block over F_2."""
    monkeypatch.setattr(mf, "closed_sets", lambda *args: [((0, 1),)])
    with pytest.raises(QgcaError, match="closed-set enumeration produced a "
                                        "non-invariant subspace"):
        mf.invariant_subspaces(mf.MatrixFp.from_rows(2, [[1, 1], [0, 1]]))


def test_exhaustive_vector_bound():
    assert mf.EXHAUSTIVE_VECTOR_BOUND == 2 ** 14
    with pytest.raises(TooLarge) as exc:
        mf.invariant_subspaces_exhaustive(mf.MatrixFp.identity(2, 15))
    assert isinstance(exc.value, BoundError)           # exit code 3
    assert str(exc.value) == "2^15 exceeds exhaustive bound 16384"


def test_exhaustive_subspace_bound():
    """F_2^14 is within the vector bound, but its subspaces are not."""
    assert mf._gaussian_subspace_count(2, 14) > mf.EXHAUSTIVE_SUBSPACE_BOUND
    with pytest.raises(TooLarge) as exc:
        mf.invariant_subspaces_exhaustive(mf.MatrixFp.identity(2, 14))
    assert isinstance(exc.value, BoundError)           # exit code 3
    assert str(exc.value) == "too many subspaces for exhaustive enumeration"


# ---------------------------------------------------------------------------
# files and construction

def test_matrix_from_rows_requires_prime():
    with pytest.raises(BadParams):
        mf.MatrixFp.from_rows(6, [[1]])


def test_matrix_file_roundtrip():
    text = mf.format_matrix(M7)
    again = mf.parse_matrix(text)
    assert again == M7
    assert mf.format_matrix(again) == text


def test_matrix_file_errors():
    with pytest.raises(ParseError):
        mf.parse_matrix("7\n")
    with pytest.raises(ParseError):
        mf.parse_matrix("7 2\n1 2\n")
    with pytest.raises(ParseError):
        mf.parse_matrix("7 1\n1 2\n")
