import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qgca import automaton as ca
from qgca import eca
from qgca import groups as gr
from qgca import matfp as mf
from qgca import quasigroup as qg
from qgca.errors import (AlphabetMismatch, BadParams, NotAffine, NotAGroup,
                         NotBipermutative, NotEndomorphicCA, NotEndomorphism,
                         OrderTooLarge, ParseError)
from qgca.fixtures import M7_MATRIX
from qgca.suite import random_bipermutative_rule, random_latin_square

from oracles import (endomorphic_bruteforce, group_check_bruteforce,
                     kernel_bruteforce, non_affine_pair, non_homomorphic_pair,
                     subgroups_bitmask, subspace_members_recursive)


def led_rule(p, c0, c1):
    return ca.from_quasigroup(qg.builtin("ledrappier", [p, c0, c1]))


# ---------------------------------------------------------------------------
# group tables

def test_quaternion_group_structure(quat):
    g = gr.from_quasigroup(quat)
    assert g.identity == quat.index("1")
    assert not g.abelian
    assert g.inv(quat.index("i")) == quat.index("-i")
    assert g.inv(quat.index("-1")) == quat.index("-1")


def test_cyclic_group_is_abelian():
    g = gr.cyclic_group(6)
    assert g.abelian and g.identity == 0
    assert g.inv(2) == 4


def test_non_group_rejected(d7):
    with pytest.raises(NotAGroup):
        gr.from_quasigroup(d7)


def _group_outcome(q, check):
    try:
        g = gr._finish(q, check_associativity=check)
    except NotAGroup as exc:
        return exc.reason
    return g.identity, g.inverse


def _normalized(rows, left, right):
    """rows with its columns reordered so row 0 is the identity map (left),
    then its rows reordered so column 0 is (right)."""
    t = np.array(rows)
    if left:
        t = t[:, np.argsort(t[0])]
    if right:
        t = t[np.argsort(t[:, 0])]
    return qg.validate_latin(t)


@pytest.mark.parametrize("check", [True, False])
def test_group_checks_match_the_bruteforce_in_any_row_blocks(
        check, rng, monkeypatch):
    """Loops, one-sided identities and groups, checked in the default row
    blocks and in blocks of two rows, against python-int loops.

    Two loops fail associativity first at third factor 2.  In (Z/2)^4 with
    an intercalate flipped the first such triple scanned is (a, b, c) =
    (4, 8, 2): neither other factor is the one named, and b = 8 lies past
    the first two-row block.  The order-6 loop fails at first factor 1,
    below its least failing third factor."""
    tables = [qg.builtin(name) for name in ("D7", "quaternion", "nonabelian21")]
    # swap the entries of the Latin subsquare at rows 4, 5 and columns 8, 9
    z2_4 = gr.elementary_abelian_group(2, 4).table.copy()
    r, c = [4, 4, 5, 5], [8, 9, 8, 9]
    z2_4[r, c] = z2_4[r, c[::-1]]
    tables.append(qg.validate_latin(z2_4))
    tables.append(qg.validate_latin([
        [0, 1, 2, 3, 4, 5], [1, 3, 5, 0, 2, 4], [2, 4, 3, 5, 0, 1],
        [3, 0, 4, 1, 5, 2], [4, 5, 0, 2, 1, 3], [5, 2, 1, 4, 3, 0]]))
    for n in (5, 6, 7, 8):
        rows = random_latin_square(n, rng)
        tables += [_normalized(rows, left, right)
                   for left, right in ((True, True), (True, False),
                                       (False, True))]
    expect = [group_check_bruteforce(q.rows, check) for q in tables]
    assert len(set(map(str, expect))) > 3
    assert [_group_outcome(q, check) for q in tables] == expect
    monkeypatch.setattr(qg, "row_blocks",
                        lambda n: (slice(r, r + 2) for r in range(0, n, 2)))
    assert [_group_outcome(q, check) for q in tables] == expect


@pytest.mark.parametrize("op", [
    lambda x, y: (2 * x - y) % 5,       # idempotent, so n candidates
    lambda x, y: (y - x) % 5,           # 0 is a left identity only
    lambda x, y: (x - y) % 5,           # 0 is a right identity only
])
@pytest.mark.parametrize("check", [True, False])
def test_no_two_sided_identity(op, check):
    q = qg.validate_latin([[op(x, y) for y in range(5)] for x in range(5)])
    with pytest.raises(NotAGroup) as exc:
        gr._finish(q, check_associativity=check)
    assert exc.value.reason == "no two-sided identity"
    assert group_check_bruteforce(q.rows, check) == exc.value.reason


def test_finish_reads_the_identity_from_the_diagonal_on_z7x4():
    """Verifying the (Z/7)^4 table allocates no n^2-sized temporary: the
    identity is read from the diagonal's one fixed point and the inverse
    scan runs in row blocks, under 0.05 bytes per n^2 entry."""
    q = gr.elementary_abelian_group(7, 4).quasigroup()
    peak = _traced_peak(lambda: gr._finish(q, check_associativity=False))
    assert peak <= 0.05 * q.order ** 2


def test_group_product_packing():
    g = gr.group_product(gr.cyclic_group(2), gr.quaternion_group())
    assert g.order == 16 and g.identity == 0
    assert g.mul(1 * 8 + 2, 1 * 8 + 4) == 0 * 8 + 6      # (1,i)*(1,j) = (0,k)


def test_elementary_abelian_group():
    g = gr.elementary_abelian_group(7, 4)
    assert g.order == 2401 and g.abelian and g.identity == 0
    a = qg.pack_digits(7, (1, 2, 3, 4))
    b = qg.pack_digits(7, (6, 6, 6, 6))
    assert g.mul(a, b) == qg.pack_digits(7, (0, 1, 2, 3))
    assert qg.unpack_digits(7, 4, a) == (1, 2, 3, 4)


@pytest.mark.parametrize("p, k", [(2, 5), (3, 3), (7, 2), (5, 1), (11, 1),
                                  (3, 4), (2, 8), (5, 3)])
def test_elementary_abelian_table_adds_digits(p, k):
    g = gr.elementary_abelian_group(p, k)
    idx = np.arange(p ** k)
    digits = zip(qg.unpack_digits(p, k, idx[:, None]),
                 qg.unpack_digits(p, k, idx[None, :]))
    assert np.array_equal(g.table, qg.pack_digits(p, [a + b for a, b in digits]))


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2)])
def test_affine_matrix_system_default_m1_is_the_identity(p, k, rng):
    """With M1 left out, the rule table (a row take) is the one an explicit
    identity M1 gives (row and column takes) and the digit brute force
    phi(a, b) = M0 a + b.  A random explicit M1 gives M0 a + M1 b."""
    idx = np.arange(p ** k)
    da = qg.unpack_digits(p, k, idx[:, None])
    db = qg.unpack_digits(p, k, idx[None, :])

    def random_matrix():
        return mf.MatrixFp.from_rows(
            p, [[rng.randrange(p) for _ in range(k)] for _ in range(k)])

    def image(mat, digits):
        return [sum(c * d for c, d in zip(row, digits)) for row in mat.rows]

    for _ in range(4):
        m0, m1 = random_matrix(), random_matrix()
        g, rule = eca.affine_matrix_system(m0)
        _, explicit = eca.affine_matrix_system(m0, mf.MatrixFp.identity(p, k))
        brute = qg.pack_digits(p, [a + b for a, b in zip(image(m0, da), db)])
        assert rule == explicit
        assert np.array_equal(rule.table, brute)
        assert g == gr.elementary_abelian_group(p, k)
        _, mixed = eca.affine_matrix_system(m0, m1)
        brute = qg.pack_digits(p, [a + b for a, b in zip(image(m0, da),
                                                         image(m1, db))])
        assert np.array_equal(mixed.table, brute)


def test_rule_group_size_mismatch_message():
    with pytest.raises(AlphabetMismatch) as exc:
        eca.kernel(led_rule(3, 1, 1), gr.cyclic_group(2))
    assert str(exc.value) == ("rule alphabet of size 3 does not match "
                              "group of size 2")


def test_group_file_roundtrip():
    g = gr.quaternion_group()
    text = gr.format_group(g)
    again = gr.parse_group(text)
    assert again == g
    assert gr.format_group(again) == text


def test_group_file_identity_must_match(quat):
    text = qg.format_table(quat) + "identity i\n"
    with pytest.raises(NotAGroup):
        gr.parse_group(text)
    with pytest.raises(ParseError):
        gr.parse_group(qg.format_table(quat))


# ---------------------------------------------------------------------------
# affine decomposition

def test_decompose_xor():
    g = gr.cyclic_group(2)
    dec = eca.decompose_affine(led_rule(2, 1, 1), g)
    assert dec.phi0 == (0, 1) and dec.phi1 == (0, 1)
    assert dec.bipermutative and dec.phi0_automorphism and dec.phi1_automorphism


def test_decompose_ledrappier_scalars():
    g = gr.cyclic_group(5)
    dec = eca.decompose_affine(led_rule(5, 2, 3), g)
    assert dec.phi0 == tuple(2 * a % 5 for a in range(5))
    assert dec.phi1 == tuple(3 * b % 5 for b in range(5))


def test_decompose_rejects_nonaffine():
    g = gr.cyclic_group(4)
    table = [[(a + b + a * b) % 4 for b in range(4)] for a in range(4)]
    rule = ca.make_rule(4, 0, 1, table)
    with pytest.raises(NotAffine) as exc:
        eca.decompose_affine(rule, g)
    a, b = exc.value.witness
    assert (a + b + a * b) % 4 != (a + b) % 4


def test_decompose_rejects_non_endomorphism():
    g = gr.cyclic_group(4)
    f = [0, 1, 3, 2]                      # f(0)=0 but f(1+1) != f(1)+f(1)
    table = [[(f[a] + b) % 4 for b in range(4)] for a in range(4)]
    rule = ca.make_rule(4, 0, 1, table)
    with pytest.raises(NotEndomorphism):
        eca.decompose_affine(rule, g)


def test_decompose_needs_abelian(quat):
    g = gr.from_quasigroup(quat)
    with pytest.raises(BadParams):
        eca.decompose_affine(ca.from_quasigroup(quat), g)


# ---------------------------------------------------------------------------
# kernel

def test_kernel_xor():
    g = gr.cyclic_group(2)
    rep = eca.kernel(led_rule(2, 1, 1), g)
    assert rep.rho == (0, 1)
    assert rep.zeta == ((0,), (1,))
    assert rep.periods == (1, 1)


def test_kernel_identity_rho_ledrappier_321():
    g = gr.cyclic_group(3)
    rep = eca.kernel(led_rule(3, 2, 1), g)
    assert rep.rho == (0, 1, 2)
    assert rep.zeta == ((0,), (1,), (2,))


def test_kernel_rho_fixes_identity_and_matches_affine(rng):
    cases = [(gr.cyclic_group(5), led_rule(5, 2, 3)),
             (gr.cyclic_group(7), led_rule(7, 3, 4)),
             (gr.cyclic_group(2), led_rule(2, 1, 1))]
    for p, k in ((2, 2), (3, 2)):
        m0 = _random_invertible(p, k, rng)
        m1 = _random_invertible(p, k, rng)
        g, rule = eca.affine_matrix_system(m0, m1)
        cases.append((g, rule))
    for g, rule in cases:
        rep = eca.kernel(rule, g)
        assert rep.rho[g.identity] == g.identity
        dec = eca.decompose_affine(rule, g)
        assert rep.rho == eca.affine_rho(g, dec)


def _random_matrix(p, k, rng):
    return mf.MatrixFp.from_rows(p, [[rng.randrange(p) for _ in range(k)]
                                     for _ in range(k)])


def _random_invertible(p, k, rng):
    while True:
        m = _random_matrix(p, k, rng)
        if mf.char_roots(m).count(0) == 0 and mf.p_eval(mf.char_poly(m), 0, p):
            return m


def test_kernel_shift_relation():
    g = gr.cyclic_group(7)
    rep = eca.kernel(led_rule(7, 3, 4), g)
    for a in range(7):
        za = rep.zeta[a]
        assert za[1:] + (za[0],) == rep.zeta[rep.rho[a]]


def test_kernel_zeta_is_isomorphism_abelian():
    g = gr.cyclic_group(6)
    table = [[(5 * a + b) % 6 for b in range(6)] for a in range(6)]
    rule = ca.make_rule(6, 0, 1, table)
    rep = eca.kernel(rule, g)
    for a in range(6):
        for b in range(6):
            la, lb = rep.periods[a], rep.periods[b]
            period = math.lcm(la, lb)
            summed = tuple(g.mul(rep.zeta[a][i % la], rep.zeta[b][i % lb])
                           for i in range(period))
            c = g.mul(a, b)
            lc = rep.periods[c]
            assert period % lc == 0
            assert summed == tuple(rep.zeta[c][i % lc] for i in range(period))


def test_kernel_rejects_nonabelian_inverse_rule(quat):
    g = gr.from_quasigroup(quat)
    rule = ca.dual_rule(ca.from_quasigroup(quat))   # phi(a,b) = a^{-1} b
    with pytest.raises(NotEndomorphicCA):
        eca.kernel(rule, g)


def test_abelian_inverse_rule_is_endomorphic():
    g = gr.cyclic_group(6)
    rule = ca.dual_rule(ca.from_quasigroup(g.quasigroup()))
    rep = eca.kernel(rule, g)
    assert rep.rho == tuple(range(6))               # k_{i+1} = k_i


def test_kernel_rejects_non_endomorphic_quasigroup(d7):
    # D7 is not even a group, so feed its rule with a genuine group alphabet
    rule = ca.from_quasigroup(d7)
    g = gr.cyclic_group(7)
    with pytest.raises(NotEndomorphicCA):
        eca.kernel(rule, g)


def _table_rule(n, f):
    return ca.make_rule(n, 0, 1, [[f(a, b) for b in range(n)] for a in range(n)])


_F4 = [0, 1, 3, 2]              # f(1 + 1) != f(1) + f(1)
_F6 = [0, 1, 2, 3, 5, 4]        # additive until f(1 + 3) != f(1) + f(3)
_NOT_ABELIAN = (BadParams, "affine decomposition needs an abelian group", None)


def _shifted_z3():
    """Z/3 with its identity at index 1, and phi(a, b) = a.b.(index 0)."""
    g = gr.parse_group("3 a e b\nb a e\na e b\ne b a\nidentity e\n")
    return _table_rule(3, lambda a, b: g.mul(g.mul(a, b), 0)), g


def _group_rule(g):
    return ca.from_quasigroup(g.quasigroup()), g


def _endo(witness):
    return (NotEndomorphicCA,
            f"rule is not an endomorphic CA; witness quadruple {witness}",
            witness)


@pytest.mark.parametrize("make, by_decompose, by_kernel", [
    pytest.param(lambda: (_table_rule(4, lambda a, b: (a + b + a * b) % 4),
                          gr.cyclic_group(4)),
                 (NotAffine, "local rule is not affine; witness pair (1, 1)",
                  (1, 1)),
                 (NotBipermutative, "kernel needs a bipermutative rule", None),
                 id="not-affine"),
    pytest.param(lambda: (ca.from_quasigroup(qg.builtin("D7")),
                          gr.cyclic_group(7)),
                 (NotAffine, "local rule is not affine; witness pair (1, 1)",
                  (1, 1)),
                 _endo((1, 0, 0, 1)), id="not-affine-bipermutative"),
    pytest.param(lambda: (_table_rule(4, lambda a, b: (_F4[a] + b) % 4),
                          gr.cyclic_group(4)),
                 (NotEndomorphism, "phi0 is not an endomorphism; witness (1, 1)",
                  (1, 1)),
                 _endo((1, 1, 0, 0)), id="phi0"),
    pytest.param(lambda: (_table_rule(4, lambda a, b: (a + _F4[b]) % 4),
                          gr.cyclic_group(4)),
                 (NotEndomorphism, "phi1 is not an endomorphism; witness (1, 1)",
                  (1, 1)),
                 _endo((0, 0, 1, 1)), id="phi1"),
    pytest.param(lambda: (_table_rule(6, lambda a, b: (_F6[a] + b) % 6),
                          gr.cyclic_group(6)),
                 (NotEndomorphism, "phi0 is not an endomorphism; witness (1, 3)",
                  (1, 3)),
                 _endo((1, 3, 0, 0)), id="phi0-later"),
    pytest.param(lambda: (_table_rule(4, lambda a, b: (_F4[a] + _F4[b]) % 4),
                          gr.cyclic_group(4)),
                 (NotEndomorphism, "phi0 is not an endomorphism; witness (1, 1)",
                  (1, 1)),
                 _endo((1, 1, 0, 0)), id="phi0-before-phi1"),
    pytest.param(lambda: (_table_rule(4, lambda a, b: (a + b + 1) % 4),
                          gr.cyclic_group(4)),
                 (NotAffine, "local rule is not affine; witness pair (0, 0)",
                  (0, 0)),
                 _endo((0, 0, 0, 0)), id="t_ee"),
    pytest.param(_shifted_z3,
                 (NotAffine, "local rule is not affine; witness pair (0, 0)",
                  (0, 0)),
                 _endo((1, 1, 1, 1)), id="t_ee-identity-not-first"),
    # a^-1 b: phi0 is inversion, an anti-automorphism of Q8
    pytest.param(lambda: (ca.dual_rule(ca.from_quasigroup(qg.builtin(
        "quaternion"))), gr.quaternion_group()),
                 _NOT_ABELIAN, _endo((2, 4, 0, 0)), id="quaternion-dual"),
    # a b: phi0 = phi1 = identity, whose images do not commute
    pytest.param(lambda: (ca.from_quasigroup(qg.builtin("quaternion")),
                          gr.quaternion_group()),
                 _NOT_ABELIAN, _endo((0, 2, 4, 0)), id="quaternion-product"),
    # the same failure on Z/5 x Q8, a larger group with four generators
    pytest.param(lambda: _group_rule(gr.group_product(gr.cyclic_group(5),
                                                      gr.quaternion_group())),
                 _NOT_ABELIAN, _endo((0, 2, 4, 0)), id="c5xq-product"),
])
def test_endomorphism_failures_keep_their_witness(make, by_decompose, by_kernel):
    rule, g = make()
    for fn, (cls, text, witness) in ((eca.decompose_affine, by_decompose),
                                     (eca.kernel, by_kernel)):
        with pytest.raises(cls) as exc:
            fn(rule, g)
        assert str(exc.value) == text
        assert getattr(exc.value, "witness", None) == witness


_SMALL_GROUPS = [lambda n=n: gr.cyclic_group(n) for n in range(2, 7)] + [
    gr.quaternion_group,
    lambda: gr.group_product(gr.cyclic_group(2), gr.quaternion_group())]


@st.composite
def _bijection(draw, g):
    """An automorphism (a conjugation, times a power map when g is abelian)
    or a random permutation fixing the identity."""
    n, e = g.order, g.identity
    if draw(st.booleans()):
        rest = draw(st.permutations([a for a in range(n) if a != e]))
        return [e if a == e else rest[a - (a > e)] for a in range(n)]
    return draw(_automorphism(g))


@st.composite
def _automorphism(draw, g):
    """a -> (c a c^-1)^k, with k = 1 unless g is abelian."""
    n = g.order
    c = draw(st.integers(0, n - 1))
    k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1])) \
        if g.abelian else 1
    out = []
    for a in range(n):
        x = g.mul(g.mul(c, a), g.inv(c))
        power = x
        for _ in range(k - 1):
            power = g.mul(power, x)
        out.append(power)
    return out


@settings(max_examples=80)
@given(data=st.data(), make=st.sampled_from(_SMALL_GROUPS),
       kind=st.sampled_from(["affine", "latin", "dual"]))
def test_kernel_rejects_exactly_what_the_oracle_rejects(data, make, kind):
    g = make()
    n = g.order
    if kind == "latin":
        seed = data.draw(st.integers(0, 10 ** 6))
        rule = random_bipermutative_rule(n, random.Random(seed))
    else:
        s0, s1 = data.draw(_bijection(g)), data.draw(_bijection(g))
        rule = _table_rule(n, lambda a, b: g.mul(s0[a], s1[b]))
        if kind == "dual":
            rule = ca.dual_rule(rule)
    bad = endomorphic_bruteforce(rule, g)
    try:
        eca.kernel(rule, g)
    except NotEndomorphicCA as exc:
        assert bad is not None
        a, a2, b, b2 = exc.witness      # the witness is a failing quadruple
        t = rule.table
        assert t[g.mul(a, a2), g.mul(b, b2)] != g.mul(t[a, b], t[a2, b2])
    else:
        assert bad is None


def test_endomorphism_check_memory_on_z7x4():
    """Peak traced memory of the checks stays under 16 bytes per n^2 entry."""
    g, rule = eca.affine_matrix_system(M7_MATRIX)
    bound = 4 * g.order ** 2 * 4
    for fn in (eca.kernel, eca.decompose_affine):
        tracemalloc.start()
        try:
            fn(rule, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (fn.__name__, peak)


_CERTIFICATE_GROUPS = [lambda n=n: gr.cyclic_group(n) for n in range(2, 13)] + [
    gr.quaternion_group,
    lambda: gr.group_product(gr.cyclic_group(2), gr.quaternion_group()),
    gr.nonabelian21_group,
    lambda: gr.elementary_abelian_group(2, 3),
    lambda: gr.elementary_abelian_group(3, 2)]


@st.composite
def _group_map(draw, g):
    """An automorphism (a conjugation times a power map), the same with its
    last element's image redrawn, a random permutation, or a random map
    fixing the identity."""
    n, e = g.order, g.identity
    kind = draw(st.sampled_from(["automorphism", "late", "permutation",
                                 "fixes-e"]))
    if kind == "permutation":
        return draw(st.permutations(range(n)))
    if kind == "fixes-e":
        img = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        img[e] = e
        return img
    img = draw(_automorphism(g))
    if kind == "late":
        img[n - 1] = draw(st.integers(0, n - 1))
    return img


@settings(max_examples=300)
@given(data=st.data(), make=st.sampled_from(_CERTIFICATE_GROUPS))
def test_endomorphism_certificate_matches_the_full_scan(data, make):
    g = make()
    img = data.draw(_group_map(g))
    found = eca._non_endomorphism(np.array(img, dtype=np.int32), g)
    assert found == non_homomorphic_pair(img, g)


def test_endomorphism_check_on_an_int16_image_from_z7x4():
    """phi0 of the (Z/7)^4 rule, read from its int16 table, then with one
    image changed; the witness is the first of a whole-table scan."""
    g, rule = eca.affine_matrix_system(M7_MATRIX)
    img = rule.table[:, g.identity].copy()
    assert img.dtype == g.table.dtype == np.int16
    assert eca._non_endomorphism(img, g) is None
    img[1234] = img[1233]
    bad = np.argwhere(img[g.table] != g.table[np.ix_(img, img)])
    assert eca._non_endomorphism(img, g) == tuple(int(v) for v in bad[0])


@pytest.mark.parametrize("make", _CERTIFICATE_GROUPS + [
    lambda: gr.cyclic_group(1),
    lambda: gr.elementary_abelian_group(2, 5),
    lambda: gr.group_product(gr.cyclic_group(3), gr.nonabelian21_group())])
def test_generators_are_greedy_in_index_order(make):
    _check_greedy_generators(make())


@settings(max_examples=60)
@given(data=st.data(), make=st.sampled_from(_CERTIFICATE_GROUPS[-5:]))
def test_generators_of_relabelled_groups(data, make):
    """The same groups with their elements renumbered, so that the earlier
    generators need not commute with the next one."""
    g = make()
    perm = data.draw(st.permutations(range(g.order)))
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = np.array(perm)[g.table]
    _check_greedy_generators(gr.from_quasigroup(qg.validate_latin(table)))


def _check_greedy_generators(g):
    gens = g.generators
    for i, s in enumerate(gens):
        earlier = qg.closure(g, (g.identity,) + gens[:i])
        assert s not in earlier
        assert set(range(s)) <= earlier         # s is the first element outside
    assert qg.closure(g, (g.identity,) + gens) == frozenset(range(g.order))
    assert g.abelian == bool((g.table == g.table.T).all())


@pytest.mark.parametrize("make", _CERTIFICATE_GROUPS + [
    lambda: gr.cyclic_group(1),
    lambda: gr.group_product(gr.cyclic_group(2), gr.cyclic_group(4)),
    lambda: gr.group_product(gr.cyclic_group(3), gr.cyclic_group(9)),
    lambda: gr.elementary_abelian_group(5, 2)])
def test_elementary_structure_matches_element_orders(make):
    g = make()
    n = g.order
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    k = round(math.log(n, p)) if p else 0
    expected = None
    if (p and p ** k == n and bool((g.table == g.table.T).all())
            and all(_power(g, a, p) == g.identity for a in range(n))):
        expected = (p, k)
    assert eca.elementary_structure(g) == expected


def _power(g, a, m):
    out = g.identity
    for _ in range(m):
        out = g.mul(out, a)
    return out


def test_z7x4_generators_read_only_the_table():
    g = gr.elementary_abelian_group(7, 4)
    assert g.generators == (1, 7, 49, 343)
    assert "rows" not in vars(g)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_elementary_abelian_group_memory():
    """The (Z/7)^4 table, n^2 int16 entries, is built and verified under 2.5
    bytes per entry: the identity and inverse checks run in row blocks."""
    n = 7 ** 4
    assert _traced_peak(gr.elementary_abelian_group, 7, 4) < 2.5 * n * n


def test_affine_matrix_system_memory():
    """The (Z/7)^4 group and rule tables are built under 4.5 bytes per n^2
    entry: two int16 tables and block-sized temporaries."""
    n = 7 ** 4
    assert _traced_peak(eca.affine_matrix_system, M7_MATRIX) < 4.5 * n * n


def test_solver_and_dual_memory_on_z7x4():
    """The right-cancellation table of the (Z/7)^4 rule and the dual of its
    group are scattered in row blocks, in the table's dtype: each peaks
    under 1.5 times the bytes of one table (an intp argsort reads 4)."""
    g, rule = eca.affine_matrix_system(M7_MATRIX)
    assert ca.is_bipermutative(rule)
    assert _traced_peak(lambda: rule.solve) < 1.5 * rule.table.nbytes
    assert _traced_peak(qg.dual, g) < 1.5 * g.table.nbytes


def test_audit_memory_on_z7x4():
    """The kernel, the decomposition and the audit peak under 6 bytes per
    n^2 entry: one n^2 read for the affine test, and certificates for the
    rest."""
    g, rule = eca.affine_matrix_system(M7_MATRIX)
    bound = 1.5 * g.order ** 2 * 4
    for fn, args in ((eca.kernel, (rule, g)), (eca.decompose_affine, (rule, g)),
                     (eca.lemma_audit, (g, rule))):
        peak = _traced_peak(fn, *args)
        assert peak < bound, (fn.__name__, peak)


def test_checks_read_under_a_fifth_of_a_table_on_z7x4():
    """The decomposition, the kernel and the audit, each on a fresh pair,
    peak under 0.8 bytes per n^2 entry: the n^2 passes run in row blocks and
    no kernel word is built."""
    bound = 0.2 * 7 ** 8 * 4
    for fn in (eca.decompose_affine, eca.kernel, eca.lemma_audit):
        g, rule = eca.affine_matrix_system(M7_MATRIX)
        args = (g, rule) if fn is eca.lemma_audit else (rule, g)
        peak = _traced_peak(fn, *args)
        assert peak < bound, (fn.__name__, peak)


def test_audits_read_bipermutativity_from_the_split_on_z7x4():
    """Each audit, on a fresh pair, reads bipermutativity from phi0 and
    phi1 and never scans the table for repeats."""
    for fn in (eca.decompose_affine, eca.kernel, eca.lemma_audit):
        g, rule = eca.affine_matrix_system(M7_MATRIX)
        fn(*((g, rule) if fn is eca.lemma_audit else (rule, g)))
        assert "_bipermutative" not in vars(rule), fn.__name__


def test_a_late_fault_keeps_its_row_major_witness():
    """A fault in row 2000, far past the first row block, is found with the
    witness of a whole-table row-major scan."""
    g, rule = eca.affine_matrix_system(M7_MATRIX)
    table = rule.table.copy()
    table[2000, 1234] = (table[2000, 1234] + 1) % g.order
    bad = ca.make_rule(g.order, 0, 1, table)
    witness = non_affine_pair(bad, g)
    assert witness == (2000, 1234)
    with pytest.raises(NotAffine) as exc:
        eca.decompose_affine(bad, g)
    assert exc.value.witness == witness


def test_z7x4_passes_stay_in_heap_sized_blocks():
    """The decomposition and the kernel, each on a fresh (Z/7)^4 pair, peak
    under 0.5 MiB: their row blocks of about 2**16 entries keep each int16
    temporary under glibc's 128 KiB mmap threshold (2**17-entry blocks
    peaked at 654 KiB)."""
    for fn in (eca.decompose_affine, eca.kernel):
        g, rule = eca.affine_matrix_system(M7_MATRIX)
        peak = _traced_peak(fn, rule, g)
        assert peak < 2 ** 19, (fn.__name__, peak)


def test_criterion_6_reads_the_split_from_the_audit(monkeypatch):
    """Criterion 6 runs no decomposition of its own: it reads phi0 and phi1
    from the audit, whose kernel verified them, and they are the ones
    decompose_affine finds, on (Z/7)^4 and on Ledrappier rules."""
    from qgca import fixtures, suite
    calls = []
    real = eca.decompose_affine

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eca, "decompose_affine", counting)
    rows = suite.criterion_6()
    assert calls == [] and "FAIL" not in {r.status for r in rows}
    cases = [(gr.cyclic_group(p), led_rule(p, c0, c1))
             for p, c0, c1 in ((2, 1, 1), (3, 2, 1), (5, 2, 3), (7, 3, 4))]
    for g, rule in cases + [fixtures._z7x4()]:
        assert eca.lemma_audit(g, rule).split == real(rule, g)
    assert calls == []


def test_lemma_audit_builds_no_kernel_word(monkeypatch):
    reports = []
    real = eca.kernel

    def recording(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(eca, "kernel", recording)
    g, rule = eca.affine_matrix_system(M7_MATRIX)
    eca.lemma_audit(g, rule)
    assert len(reports) == 1 and "zeta" not in vars(reports[0])
    assert reports[0].word(0) == (0,) and "zeta" not in vars(reports[0])


_PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def _matrix_system(draw, invertible):
    """M0 a + M1 b over (Z/2)^3 or (Z/3)^2, with M0 and M1 invertible if
    asked, else drawn from all matrices."""
    p, k = draw(st.sampled_from([(2, 3), (3, 2)]))
    mats = []
    for _ in range(2):
        rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k,
                                      max_size=k), min_size=k, max_size=k))
        if invertible:
            assume(len(mf.rref([tuple(r) for r in rows], p)) == k)
        mats.append(mf.MatrixFp.from_rows(p, rows))
    return eca.affine_matrix_system(*mats)


@st.composite
def _endomorphic_system(draw):
    """A Ledrappier rule c0 a + c1 b over Z/p, or M0 a + M1 b over (Z/2)^3
    or (Z/3)^2 with invertible M0 and M1."""
    if draw(st.booleans()):
        p = draw(st.sampled_from(_PRIMES))
        c0, c1 = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
        return gr.cyclic_group(p), led_rule(p, c0, c1)
    return draw(_matrix_system(invertible=True))


@settings(max_examples=60)
@given(system=_endomorphic_system())
def test_kernel_matches_the_bruteforce_kernel(system):
    g, rule = system
    rho, periods, zeta = kernel_bruteforce(rule, g)
    rep = eca.kernel(rule, g)
    assert (rep.rho, rep.periods) == (rho, periods)
    assert tuple(rep.word(a) for a in range(g.order)) == zeta
    assert rep.zeta == zeta


@settings(max_examples=60)
@given(system=_matrix_system(invertible=False))
def test_singular_components_are_not_bipermutative(system):
    """Endomorphic rules whose M0 or M1 may be singular: the kernel refuses
    exactly the rules that are not bipermutative, and the decomposition
    reports the same bipermutativity as the Latin check."""
    g, rule = system
    biperm = ca.is_bipermutative(rule)
    assert eca.decompose_affine(rule, g).bipermutative == biperm
    if biperm:
        eca.kernel(rule, g)
    else:
        with pytest.raises(NotBipermutative) as exc:
            eca.kernel(rule, g)
        assert str(exc.value) == "kernel needs a bipermutative rule"


# ---------------------------------------------------------------------------
# orbits and subgroup lattices

def test_rho_orbits_identity_z3():
    g = gr.cyclic_group(3)
    rep = eca.rho_orbits((0, 1, 2), g)
    assert rep.orbits == ((1,), (2,))
    assert not rep.single_orbit


def test_rho_orbits_z2_identity_is_single():
    g = gr.cyclic_group(2)
    rep = eca.rho_orbits((0, 1), g)
    assert rep.single_orbit


def test_rho_orbits_rejects_the_trivial_group():
    with pytest.raises(BadParams, match="trivial group"):
        eca.rho_orbits((0,), gr.cyclic_group(1))


def test_rho_orbits_rejects_bad_rho():
    g = gr.cyclic_group(3)
    with pytest.raises(BadParams):
        eca.rho_orbits((1, 0, 2), g)       # moves the identity
    with pytest.raises(BadParams):
        eca.rho_orbits((0, 1, 1), g)       # not a permutation


def test_invariant_subgroups_z3_identity():
    g = gr.cyclic_group(3)
    assert eca.invariant_subgroups(g) == [(0,), (0, 1, 2)]


def test_invariant_subgroups_v4_swap_frozen():
    g = gr.group_product(gr.cyclic_group(2), gr.cyclic_group(2))
    swap = (0, 2, 1, 3)
    subs = eca.invariant_subgroups(g, swap)
    assert subs == [(0,), (0, 3), (0, 1, 2, 3)]


def _kernel_rho_system(p, k, seed):
    """An elementary abelian group with the kernel rho of a random
    bipermutative affine rule over it."""
    g, rule = eca.affine_matrix_system(
        _random_invertible(p, k, random.Random(seed)))
    return g, eca.kernel(rule, g).rho


@pytest.mark.parametrize("make,rho_kind", [
    (lambda: gr.quaternion_group(), "identity"),
    (lambda: gr.quaternion_group(), "inverse"),
    (lambda: gr.cyclic_group(12), "identity"),
    (lambda: gr.cyclic_group(12), "inverse"),
    (lambda: gr.group_product(gr.cyclic_group(2), gr.cyclic_group(2)), "swap"),
] + [(lambda p=p, k=k, seed=seed: _kernel_rho_system(p, k, seed), "kernel")
     for p, k in ((2, 4), (3, 2)) for seed in (1, 2, 3)])
def test_invariant_subgroups_match_bitmask_oracle(make, rho_kind):
    if rho_kind == "kernel":
        g, rho = make()
    else:
        g = make()
    if rho_kind == "identity":
        rho = tuple(range(g.order))
    elif rho_kind == "inverse":
        rho = tuple(g.inv(a) for a in range(g.order))
    elif rho_kind == "swap":
        rho = (0, 2, 1, 3)
    found = eca.invariant_subgroups(g, rho)
    oracle = sorted(subgroups_bitmask(g.rows, g.identity, g.inverse, rho),
                    key=lambda s: (len(s), s))
    assert found == oracle


@pytest.mark.parametrize("make", [
    lambda: gr.group_product(gr.cyclic_group(2), gr.quaternion_group()),
    gr.nonabelian21_group,
    lambda: gr.elementary_abelian_group(2, 4),
], ids=["c2q", "nonabelian21", "z2^4"])
def test_invariant_subgroups_without_rho_are_the_identity_map_run(make):
    g = make()
    assert eca.invariant_subgroups(g, None) \
        == eca.invariant_subgroups(g, tuple(range(g.order)))


def test_invariant_subgroups_bound():
    with pytest.raises(OrderTooLarge):
        eca.invariant_subgroups(gr.elementary_abelian_group(7, 4))


def test_single_orbit_implies_no_nontrivial_invariant_subgroup(rng):
    # forward direction of the single-orbit lemma, over a spread of systems
    cases = [(gr.cyclic_group(p), led_rule(p, c0, c1))
             for p, c0, c1 in ((2, 1, 1), (3, 1, 1), (5, 2, 3), (7, 3, 4),
                               (5, 4, 1), (7, 1, 6))]
    for p, k in ((2, 2), (3, 2), (2, 3)):
        for _ in range(3):
            m0 = _random_invertible(p, k, rng)
            cases.append(eca.affine_matrix_system(m0))
    seen_single = 0
    for g, rule in cases:
        rep = eca.kernel(rule, g)
        orb = eca.rho_orbits(rep.rho, g)
        if orb.single_orbit:
            seen_single += 1
            subs = eca.invariant_subgroups(g, rep.rho)
            assert not [s for s in subs if 1 < len(s) < g.order]
    assert seen_single >= 1


def test_subgroup_orders_quaternion(quat):
    g = gr.from_quasigroup(quat)
    assert sorted(len(s) for s in eca.subgroups(g)) == [1, 2, 4, 4, 4, 8]
    assert eca.h_max(g) == 2.0


def test_subgroup_orders_nonabelian21():
    g = gr.nonabelian21_group()
    counts = Counter(len(s) for s in eca.subgroups(g))
    assert counts == Counter({1: 1, 3: 7, 7: 1, 21: 1})
    assert eca.h_max(g) == math.log2(7)
    assert abs(eca.h_max(g) - 2.807354922057604) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_h_max_prime_cyclic_is_zero(p):
    assert eca.h_max(gr.cyclic_group(p)) == 0.0


# ---------------------------------------------------------------------------
# linear view and matrix systems

def test_affine_matrix_system_identity_is_addition():
    ident = mf.MatrixFp.identity(2, 2)
    g, rule = eca.affine_matrix_system(ident)
    assert rule.table.tolist() == g.table.tolist()


def test_linear_view_extracts_matrix(rng):
    m0 = mf.MatrixFp.from_rows(3, [[0, 2], [2, 0]])
    g, rule = eca.affine_matrix_system(m0)
    rep = eca.kernel(rule, g)
    view = eca.linear_view(g, rep.rho)
    assert view is not None
    assert view.matrix == mf.MatrixFp.from_rows(3, [[0, 1], [1, 0]])  # -m0


def test_linear_view_rejects_nonlinear():
    g = gr.cyclic_group(4)                 # not elementary abelian
    assert eca.linear_view(g, (0, 1, 2, 3)) is None
    g2 = gr.group_product(gr.cyclic_group(3), gr.cyclic_group(3))
    # swap (0,1) <-> (1,0), fix the rest: rho(1+1) != rho(1)+rho(1)
    nonadditive = tuple(3 if a == 1 else 1 if a == 3 else a for a in range(9))
    assert eca.linear_view(g2, nonadditive) is None
    assert eca.linear_view(g2, (1, 0) + tuple(range(2, 9))) is None  # moves e


def test_linear_view_rejects_a_matrix_that_misses_rho(monkeypatch):
    """The matrix is re-checked against rho on every element: one built
    wrong (here the zero matrix) gives no view."""
    g, rule = eca.affine_matrix_system(mf.MatrixFp.from_rows(3, [[0, 2],
                                                                 [2, 0]]))
    rho = eca.kernel(rule, g).rho
    assert eca.linear_view(g, rho) is not None

    class ZeroMatrix:
        @staticmethod
        def from_rows(p, rows):
            return mf.MatrixFp.from_rows(p, np.zeros_like(rows))

    monkeypatch.setattr(eca, "MatrixFp", ZeroMatrix)
    assert eca.linear_view(g, rho) is None


def test_lemma_audit_is_undecided_without_a_subgroup_answer():
    """Past 64 elements subgroups are not enumerated.  Cyclic 128 then has
    no linear view to fall back on, and (Z/2)^10 has one whose invariant
    subspaces exceed their bound."""
    c128 = gr.cyclic_group(128)
    cases = [(c128, ca.from_quasigroup(c128.quasigroup()), False),
             (*eca.affine_matrix_system(mf.MatrixFp.identity(2, 10)), True)]
    for g, rule, linear in cases:
        rep = eca.lemma_audit(g, rule)
        assert (rep.kernel_lemma_verdict, rep.subgroup_method,
                rep.has_invariant_subgroup, rep.subgroup_witness,
                rep.linear, rep.has_invariant_subspace,
                rep.rcf_lemma_verdict) \
            == ("UNDECIDED", "unavailable", None, None, linear, None, None)


def test_subspace_to_subgroup_is_closed():
    g, rule = eca.affine_matrix_system(
        mf.MatrixFp.from_rows(7, [[0, 0, 0, 1], [1, 0, 0, 1],
                                  [0, 1, 0, 1], [0, 0, 1, 1]]))
    rep = eca.lemma_audit(g, rule)
    members = set(rep.subgroup_witness)
    assert len(members) == 7
    assert all(g.mul(a, b) in members for a in members for b in members)
    assert all(rep.rho[a] in members for a in members)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2), (2, 4)])
def test_subspace_to_subgroup_matches_the_recursive_walk(p, k, rng):
    """Every invariant subspace of random matrices, of the identity (so of
    every subspace) and the empty basis, against the recursive walk."""
    seen = 0
    for m in [mf.MatrixFp.identity(p, k)] \
            + [_random_matrix(p, k, rng) for _ in range(4)]:
        g, rule = eca.affine_matrix_system(m)
        view = eca.linear_view(g, tuple(rule.table[:, g.identity].tolist()))
        spaces = [(), *mf.invariant_subspaces(view.matrix),
                  tuple(map(tuple, np.eye(k, dtype=int).tolist()))]
        for basis in spaces:
            members = eca.subspace_to_subgroup(view, basis)
            assert members == subspace_members_recursive(g, view, basis)
            assert len(members) == p ** len(basis)
        seen += len(spaces)
    assert eca.subspace_to_subgroup(view, ()) == (g.identity,)
    assert seen > 20


# ---------------------------------------------------------------------------
# audits

def test_audit_z3_identity_disagrees():
    g = gr.cyclic_group(3)
    rep = eca.lemma_audit(g, led_rule(3, 2, 1))
    assert rep.kernel_lemma_verdict == "DISAGREE"
    assert rep.orbits == ((1,), (2,))
    assert rep.has_invariant_subgroup is False
    assert rep.rcf_lemma_verdict == "AGREE"          # 1x1 identity matrix


def test_audit_rejects_the_trivial_group():
    g = gr.cyclic_group(1)
    with pytest.raises(BadParams, match="trivial group"):
        eca.lemma_audit(g, ca.from_quasigroup(g.quasigroup()))


def test_audit_xor_agrees():
    g = gr.cyclic_group(2)
    rep = eca.lemma_audit(g, led_rule(2, 1, 1))
    assert rep.kernel_lemma_verdict == "AGREE"
    assert rep.single_orbit and rep.has_invariant_subgroup is False
    assert rep.rcf_lemma_verdict == "AGREE" and rep.simple


def test_audit_z7x4_frozen():
    g, rule = eca.affine_matrix_system(
        mf.MatrixFp.from_rows(7, [[0, 0, 0, 1], [1, 0, 0, 1],
                                  [0, 1, 0, 1], [0, 0, 1, 1]]))
    rep = eca.lemma_audit(g, rule)
    assert rep.kernel_lemma_verdict == "AGREE"       # both sides false
    assert not rep.single_orbit
    assert rep.has_invariant_subgroup is True
    assert rep.subgroup_method == "subspace"
    assert rep.simple is True
    assert rep.rcf_lemma_verdict == "DISAGREE"       # simple, yet subspaces
    assert rep.eigenvalues == (2,)
    assert [len(b) for b in [rep.subspace_witness]] == [1]
