"""Acceptance criteria, one test per criterion, each printing a PASS line.

Each test runs the paper-suite rows for its criterion, asserts every
machine-checked row passed within the stated wall-clock budget, and then
re-verifies the headline value independently of the suite code.
"""
import math
import time
from fractions import Fraction as F

from qgca import automaton as ca
from qgca import cli
from qgca import eca
from qgca import groups as gr
from qgca import matfp as mf
from qgca import measure as mu
from qgca import quasigroup as qg
from qgca import suite

from oracles import closed_subsets_bitmask


def run_criterion(k, budget_seconds, depth=None, seed=0):
    t0 = time.perf_counter()
    rows = suite._CRITERIA[k - 1](depth, seed)
    elapsed = time.perf_counter() - t0
    failures = [r for r in rows if r.status == "FAIL"]
    assert not failures, failures
    assert elapsed < budget_seconds, f"criterion {k} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.2f}s)"
          + "".join(f"\n    {r.name}: {r.status} {r.detail}" for r in rows))
    return rows


def test_criterion_1_example_d_subquasigroups():
    run_criterion(1, 1.0)
    d7 = qg.builtin("D7")
    found = qg.subquasigroups(d7)
    oracle = sorted((s for s in closed_subsets_bitmask(d7.rows)
                     if 1 < len(s) < 7), key=lambda s: (len(s), s))
    assert found == oracle == [(0, 1), (2, 3)]
    assert d7.symbols[0:2] == ("a1", "a2") and d7.symbols[2:4] == ("b1", "b2")


def test_criterion_2_quaternion_orbit():
    run_criterion(2, 1.0)
    quat = qg.builtin("quaternion")
    rule = ca.from_quasigroup(quat)
    p = quat.word("i j k")
    assert ca.step_periodic(rule, p) == quat.word("k i j")
    cur = p
    for _ in range(3):
        cur = ca.step_periodic(rule, cur)
    assert cur == p
    assert ca.step_periodic(rule, quat.word("k i j")) != p


def test_criterion_3_uniform_invariance():
    run_criterion(3, 30.0)
    rule = ca.from_quasigroup(qg.builtin("D7"))
    rep = mu.invariance_report(mu.UniformMeasure(7), 4, rule)
    assert rep.max_abs_deviation == F(0) and rep.worst_word is None


def test_criterion_4_example11_suite():
    rows = run_criterion(4, 120.0)
    assert len(rows) == 5
    m = mu.example11(gr.cyclic_group(2))
    # headline: sigma and Phi deviations exactly zero at depth 4
    g = gr.group_product(gr.cyclic_group(2), gr.quaternion_group())
    rule = ca.from_quasigroup(g.quasigroup())
    assert mu.invariance_report(m, 4).max_abs_deviation == 0
    assert mu.invariance_report(m, 4, rule).max_abs_deviation == 0
    assert mu.entropy_rate_profile(m, 5) == [1.0, 1.0, 1.0, 1.0]


def test_criterion_5_xi_conjugacy():
    run_criterion(5, 10.0)
    d7_rule = ca.from_quasigroup(qg.builtin("D7"))
    w = (0, 3, 4, 6, 2, 5, 1, 0, 3)
    assert ca.xi(d7_rule, ca.step(d7_rule, w)) == ca.xi(d7_rule, w)[1:]
    assert ca.xi_inverse(d7_rule, ca.xi(d7_rule, w)) == w


def test_criterion_6_z7x4_eca_audit(z7x4_builds):
    rows = run_criterion(6, 60.0)
    # one build, and neither the criterion nor its audit builds the
    # 2401 x 2401 rows tuple
    (g, _), = z7x4_builds
    assert g.order == 2401 and "rows" not in vars(g)
    infos = [r for r in rows if r.status == "INFO"]
    assert any("DISAGREE" in r.detail for r in infos)
    result = mf.rcf(mf.MatrixFp.from_rows(
        7, [[0, 0, 0, 7 - 1], [7 - 1, 0, 0, 7 - 1],
            [0, 7 - 1, 0, 7 - 1], [0, 0, 7 - 1, 7 - 1]]))
    assert result.simple                      # -M has a single companion block


def test_criterion_6_and_eca_audit_share_one_z7x4_build(z7x4_builds, capsys):
    suite.criterion_6(None, 0)
    assert cli.main(["eca", "audit", "@z7x4", "@z7x4"]) == 0
    assert "rcf_lemma=DISAGREE" in capsys.readouterr().out
    assert len(z7x4_builds) == 1


def test_criterion_7_h_max():
    run_criterion(7, 10.0)
    assert eca.h_max(gr.nonabelian21_group()) == math.log2(7)
    assert abs(eca.h_max(gr.nonabelian21_group()) - 2.807354922057604) <= 1e-12
    assert eca.h_max(gr.cyclic_group(13)) == 0.0


def test_criterion_8_fiber_property_sweep():
    run_criterion(8, 60.0)
    rule = ca.from_quasigroup(qg.builtin("quaternion"))
    rep = mu.fiber_spectrum(mu.UniformMeasure(8), rule, 2)
    assert rep.K_estimate == 8 and rep.eta_constant == F(1, 8)
    assert all(r.support_count == 8 for r in rep.rows)


def test_criterion_9_lemma_audits():
    run_criterion(9, 10.0)
    g3 = gr.cyclic_group(3)
    rule3 = ca.from_quasigroup(qg.builtin("ledrappier", [3, 2, 1]))
    rep = eca.lemma_audit(g3, rule3)
    assert rep.kernel_lemma_verdict == "DISAGREE"
    assert rep.orbits == ((1,), (2,))
    ident = mf.MatrixFp.identity(2, 2)
    assert mf.rcf(ident).invariant_factors == ((1, 1), (1, 1))
    assert len(mf.invariant_subspaces(ident)) == 3
