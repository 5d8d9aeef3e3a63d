import argparse
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qgca import cli
from qgca import matfp as mf
from qgca import measure as mu
from qgca import quasigroup as qg
from qgca.fixtures import M7_MATRIX, export_fixtures
from qgca.matfp import load_matrix
from qgca.groups import (cyclic_group, elementary_abelian_group, format_group,
                         group_product, load_group, quaternion_group)
from qgca.quasigroup import load_table


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    export_fixtures(d)
    return d


GOLDEN = Path(__file__).parent / "golden"


def run_raw(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *argv):
    code, out, err = run_raw(capsys, *argv)
    return code, out.strip(), err.strip()


def test_qg_validate_ok(capsys, fixture_dir):
    code, out, _ = run(capsys, "qg", "validate", fixture_dir / "d7.table")
    assert code == 0 and out == "LATIN OK N=7"


def test_qg_validate_corrupted(capsys, tmp_path, fixture_dir):
    text = (fixture_dir / "d7.table").read_text().replace("c3\na1", "c3\na2", 1)
    bad = tmp_path / "bad.table"
    bad.write_text(text)
    code, _, err = run(capsys, "qg", "validate", bad)
    assert code == 1 and "FAIL" in err


@pytest.mark.parametrize("text, message", [
    ("", "empty table file"),
    ("x a b\na b\nb a\n", "first token must be the order, got 'x'"),
    ("3 a b\na b\nb a\n", "header declares 3 symbols but lists 2"),
    ("2 a a\na a\na a\n", "symbol names must be distinct"),
    ("2 a b\na b\n", "expected 2 table rows, got 1"),
    ("2 a b\na b\nb\n", "row 1 has 1 entries, expected 2"),
    ("2 a b\na b\nb z\n", "row 1 uses unknown name 'z'"),
])
def test_qg_validate_malformed_table_file(capsys, tmp_path, text, message):
    """Each fault of the table file format exits 2 with its own text."""
    path = tmp_path / "bad.table"
    path.write_text(text)
    code, out, err = run(capsys, "qg", "validate", path)
    assert (code, out, err) == (2, "", f"input error: {message}")


@pytest.mark.parametrize("verb, text, message", [
    (("eca", "rcf"), "", "empty matrix file"),
    (("eca", "rcf"), "2\n", 'matrix header must be "p N"'),
    (("eca", "rcf"), "2 x\n1\n", 'matrix header must be "p N" with integers'),
    (("eca", "rcf"), "2 2\n1 0\n", "expected 2 matrix rows, got 1"),
    (("eca", "rcf"), "2 2\n1 0\n1\n", "bad matrix row '1'"),
    (("eca", "rcf"), "2 2\n1 0\n1 z\n", "bad matrix row '1 z'"),
    (("eca", "rcf"), "2 0\n", "matrix must be square and nonempty"),
    (("eca", "rcf"), "4 2\n1 0\n0 1\n", "modulus 4 is not prime"),
    (("ca", "step"), "", "empty rule file"),
    (("ca", "step"), "2 0 1\n0 0 0\n", "expected 4 neighbourhood lines, got 1"),
    (("ca", "step"), "2 0 1\n0 0 0\n0 1 1\n0 0 1\n1 1 0\n",
     "duplicate neighbourhood (0, 0)"),
    (("mu", "eval"), "kind\n", "expected key=value, got 'kind'"),
    (("mu", "eval"), "kind=uniform\nkind=uniform\n", "duplicate key 'kind'"),
    (("mu", "eval"), "kind=uniform\n", "measure spec missing 'alphabet_size'"),
    (("mu", "eval"), "kind=nope\n", "unknown measure kind 'nope'"),
    (("mu", "eval"), "kind=uniform\nalphabet_size=2\nsymbols=a\n",
     "symbols count must match the alphabet size"),
])
def test_malformed_matrix_rule_and_measure_files(capsys, tmp_path, verb, text,
                                                 message):
    """Each fault of the matrix, rule and measure file formats exits 2 with
    its own text: through ``eca rcf FILE``, ``ca step FILE 0`` and
    ``mu eval FILE 0``."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    word = () if verb == ("eca", "rcf") else ("0",)
    code, out, err = run(capsys, *verb, path, *word)
    assert (code, out, err) == (2, "", f"input error: {message}")


def test_qg_validate_out_writes_file(capsys, tmp_path, fixture_dir):
    out_path = tmp_path / "validate.txt"
    code, stdout, _ = run(capsys, "qg", "validate", fixture_dir / "d7.table",
                          "--out", out_path)
    assert code == 0 and stdout == ""
    assert out_path.read_text() == "LATIN OK N=7\n"


@pytest.mark.parametrize("argv", [
    ("qg", "sub", "@d7", "--jobs", "2"),
    ("paper-suite", "--depth", "3", "--jobs", "2"),
    ("mu", "invariance", "@uniform,2", "--shift"),
])
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_builtin_spec_without_its_parameter_is_input_error(capsys):
    code, out, err = run(capsys, "qg", "validate", "@cyclic")
    assert (code, out) == (2, "")
    assert err == "input error: cyclic needs 1 parameter(s) in 'cyclic'"


@pytest.mark.parametrize("argv, token", [
    (("mu", "invariance", "@uniform,abc"), "abc"),
    (("qg", "validate", "@cyclic,x"), "x"),
    (("qg", "validate", "@ledrappier,3,a,1"), "a"),
    (("eca", "invsubspaces", "@identity,3,y"), "y"),
    (("mu", "example11", "@cyclic,q"), "q"),
    (("mu", "eval", "@example11,x", "0"), "x"),
])
def test_malformed_integer_in_a_spec_is_input_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: expected an integer, got {token!r}"


@pytest.mark.parametrize("text, token", [
    ("kind=uniform\nalphabet_size=abc\n", "abc"),
    ("kind=orbit\nalphabet_size=8\nperiod_word=2 x 6\n", "x"),
])
def test_malformed_integer_in_a_measure_file_is_input_error(
        capsys, tmp_path, text, token):
    path = tmp_path / "bad.measure"
    path.write_text(text)
    code, out, err = run(capsys, "mu", "invariance", path)
    assert (code, out) == (2, "")
    assert err == f"input error: expected an integer, got {token!r}"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "qg", "validate", "/nonexistent/x.table")
    assert code == 2


@pytest.mark.parametrize("flags", [[], ["-u"]],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_not_an_error(flags):
    """A reader that closes the pipe before the report is written, as
    ``| head`` may, leaves exit 0 and nothing on stderr, whether the short
    report is still in the stdout buffer when the verb returns or not."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *flags, "-m", "qgca.cli", "ca",
                               "dual", "@d7"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


# the child caps its own address space at 2 GiB, then times ``main`` alone
_CAPPED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
from qgca.cli import main
start = time.perf_counter()
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    f.write(str(time.perf_counter() - start))
sys.exit(code)
"""


@pytest.mark.parametrize("spec, entries", [
    ("@cyclic,40000", 40000 ** 2),
    ("@ledrappier,40009,1,1", 40009 ** 2),
    ("@product,cyclic,200,cyclic,200", 40000 ** 2),
    ("@ledrappier,2305843009213693951,1,1", (2 ** 61 - 1) ** 2),
])
def test_a_builtin_table_past_the_bound_exits_3(tmp_path, spec, entries):
    """Refused before its N**2 entries are allocated: exit 3 and the bound
    line, with no traceback, within a 2 GiB address space and in under 1 s
    (the table alone would take about 6 GiB).  The modulus 2**61 - 1 is
    found prime first, in that time too."""
    src = Path(cli.__file__).resolve().parents[1]
    seconds = tmp_path / "seconds"
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, str(seconds), "qg", "validate",
         spec], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == (f"bound exceeded: table with {entries} "
                           "entries exceeds bound 16777216\n")
    assert float(seconds.read_text()) < 1


def test_eca_charpoly_over_a_61_bit_prime(tmp_path):
    """The modulus 2**61 - 1 is found prime in under 1 s (trial division
    would take about 1.5e9 divisions)."""
    src = Path(cli.__file__).resolve().parents[1]
    seconds = tmp_path / "seconds"
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, str(seconds), "eca", "charpoly",
         "@identity,2305843009213693951,2"], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "min=x + 2305843009213693950" in proc.stdout.splitlines()
    assert float(seconds.read_text()) < 1


def test_qg_sub_output(capsys, fixture_dir):
    code, out, _ = run(capsys, "qg", "sub", fixture_dir / "d7.table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size\tmembers"
    assert "2\ta1 a2" in lines and "2\tb1 b2" in lines


def test_qg_dual_roundtrip(capsys, fixture_dir):
    code, out, _ = run(capsys, "qg", "dual", fixture_dir / "d7.table")
    assert code == 0
    d = qg.parse_table(out)
    assert d == qg.dual(load_table(fixture_dir / "d7.table"))


def test_ca_orbit(capsys, fixture_dir):
    code, out, _ = run(capsys, "ca", "orbit",
                       fixture_dir / "quaternion.rule", "i j k")
    assert code == 0 and out == "preperiod=0 period=3"


def test_ca_step_names(capsys):
    code, out, _ = run(capsys, "ca", "step", "@quaternion", "i j k i j k")
    assert code == 0 and out == "k i j k i"


@pytest.mark.parametrize("times, expected", [("0", "i j k i j k"),
                                              ("2", "j k i j")])
def test_ca_step_times(capsys, times, expected):
    code, out, _ = run(capsys, "ca", "step", "@quaternion", "i j k i j k",
                       "--times", times)
    assert (code, out) == (0, expected)


def test_ca_step_negative_times_is_bad_input(capsys):
    code, out, err = run(capsys, "ca", "step", "@quaternion", "i j k",
                         "--times", "-1")
    assert (code, out) == (2, "")
    assert err == "input error: --times must be nonnegative, got -1"
    # inputs are read before the verb runs: an unreadable rule comes first
    code, out, err = run(capsys, "ca", "step", "@nope", "i", "--times", "-1")
    assert (code, out, err) == (2, "", "input error: unknown builtin name 'nope'")


def test_ca_fiber(capsys):
    code, out, _ = run(capsys, "ca", "fiber", "@xor", "1 0")
    assert code == 0
    assert "0\t0 1 1" in out and "1\t1 0 0" in out


def test_ca_xi_and_inverse(capsys):
    code, out, _ = run(capsys, "ca", "xi", "@xor", "0 1 1 0")
    assert code == 0 and out == "0 1 1 0"
    code, out, _ = run(capsys, "ca", "xi", "@d7", "a1 b2 c1 c3")
    assert code == 0
    code2, out2, _ = run(capsys, "ca", "xi", "@d7", out, "--inverse")
    assert code2 == 0 and out2 == "a1 b2 c1 c3"


def test_ca_recode(capsys, tmp_path):
    rule = tmp_path / "wide.rule"
    lines = ["2 1 1"]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                lines.append(f"{a} {b} {c} {a ^ c}")
    rule.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "ca", "recode", rule, "0 1 1 0")
    assert code == 0
    assert out.splitlines()[0] == "block=2 alphabet=4"
    # a word is read against the rule's symbols, as every other ca word is;
    # an empty word prints no encoded or stepped line
    names = run(capsys, "ca", "recode", "@d7", "a1 b1")
    indices = run(capsys, "ca", "recode", "@d7", "0 2")
    assert names == indices
    assert names[1].splitlines()[1:3] == ["encoded\t0 2", "stepped\t4"]
    code, out, _ = run(capsys, "ca", "recode", "@d7", "")
    assert code == 0 and "encoded" not in out and "stepped" not in out


def test_mu_invariance_example11(capsys, fixture_dir):
    code, out, _ = run(capsys, "mu", "invariance", "@example11,2",
                       "--ca", fixture_dir / "c2q.rule", "--depth", "4")
    assert code == 0
    assert "max_dev=0/1" in out


def test_mu_invariance_detects_deviation(capsys, tmp_path):
    (tmp_path / "b.measure").write_text("kind=bernoulli\nweights=1/3 2/3\n")
    code, out, _ = run(capsys, "mu", "invariance", tmp_path / "b.measure",
                       "--ca", "@xor", "--depth", "3")
    assert code == 1
    assert "max_dev=16/81" in out and "worst=1 1 1" in out


def test_mu_eval_with_names(capsys, fixture_dir):
    code, out, _ = run(capsys, "mu", "eval",
                       fixture_dir / "example11_c2.measure", "(0,i) (1,j)")
    assert code == 0 and out == "1/12"


def test_mu_entropy(capsys, monkeypatch):
    """H_k and the increments come from one build of each level: for a
    product measure that is three ``level`` calls per depth, one for the
    product and one per factor."""
    builds = []
    level = mu.CylinderMeasure.level

    def spy(m, depth):
        builds.append(depth)
        return level(m, depth)

    monkeypatch.setattr(mu.CylinderMeasure, "level", spy)
    code, out, _ = run(capsys, "mu", "entropy", "@example11,2", "--depth", "4")
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines()[1:]]
    assert [r[2] for r in rows[1:]] == ["1", "1", "1"]
    assert sorted(builds) == [1] * 3 + [2] * 3 + [3] * 3 + [4] * 3


def test_mu_conditional(capsys):
    code, out, _ = run(capsys, "mu", "conditional", "@uniform,4", "2 3")
    assert code == 0
    assert out.splitlines()[1] == "0\t1/4"


def test_mu_cmeasure(capsys, fixture_dir):
    code, out, _ = run(capsys, "mu", "cmeasure", "@example11,2",
                       fixture_dir / "c2q.group",
                       "--subgroup", "(0,1) (1,1)", "--depth", "3")
    assert code == 0 and "passed=True" in out
    # the subgroup is read as names of the group, not of the measure
    code, out, err = run(capsys, "mu", "cmeasure", "@uniform,16", "@c2q",
                         "--subgroup", "(0,1) (1,1)", "--depth", "2")
    assert (code, err) == (1, "")
    assert out.splitlines()[1].endswith("is not the coset [0, 8]")


def test_mu_cmeasure_digit_names_are_names(capsys, tmp_path):
    # element names of (Z/2)^4 are digit strings: "0010" is index 2, not 10
    g = elementary_abelian_group(2, 4)
    assert g.symbols[2] == "0010"
    group = tmp_path / "z2x4.group"
    group.write_text(format_group(g))
    assert cli._parse_word("0000 0010", g.symbols, g.order) == (0, 2)
    # Bernoulli mass 1/2 on each of 0000 and 0010: uniform on the coset {0, 2}
    weights = ["1/2" if a in (0, 2) else "0" for a in range(16)]
    measure = tmp_path / "b.measure"
    measure.write_text("kind=bernoulli\nweights=" + " ".join(weights) + "\n")
    code, out, err = run(capsys, "mu", "cmeasure", measure, group,
                         "--subgroup", "0000 0010", "--depth", "2")
    assert code == 0 and "passed=True" in out, err


@pytest.mark.parametrize("argv, message", [
    (("ca", "step", "@d7", "a1 zz"), "unknown symbol 'zz'"),
    (("ca", "step", "@d7", "a1 9"), "symbol index 9 outside 0..6"),
    (("mu", "eval", "@uniform,5", "0 zz"), "unknown symbol 'zz'"),
    (("mu", "eval", "@uniform,5", "0 9"), "symbol index 9 outside 0..4"),
    (("mu", "cmeasure", "@uniform,4", "@cyclic,7", "--subgroup", "0 zz"),
     "unknown symbol 'zz'"),
    (("mu", "cmeasure", "@uniform,4", "@cyclic,7", "--subgroup", "0 9"),
     "symbol index 9 outside 0..6"),
])
def test_a_bad_word_is_read_against_the_input_before_it(capsys, argv,
                                                        message):
    """A rule word, a measure word and a --subgroup each exit 2 with the
    index range of the input named before them."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"input error: {message}")


@pytest.mark.parametrize("argv", [
    ("eca", "kernel", "@nope1", "@nope2"),
    ("eca", "invsubgroups", "@nope1", "--rule", "@nope2"),
    ("mu", "fibers", "@nope1", "@nope2"),
    ("mu", "invariance", "@nope1", "--ca", "@nope2"),
    ("mu", "cmeasure", "@nope1", "@nope2", "--subgroup", "zz"),
    ("mu", "cmeasure", "@uniform,2", "@nope1", "--subgroup", "zz"),
    ("ca", "step", "@nope1", "zz"),
])
def test_the_first_bad_input_is_reported(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: unknown builtin name ") \
        and "nope1" in err


def test_mu_cmeasure_size_mismatch_message(capsys, fixture_dir):
    code, _, err = run(capsys, "mu", "cmeasure", "@uniform,4",
                       fixture_dir / "c2q.group", "--subgroup", "(0,1)")
    assert code == 2
    assert err == ("input error: group of size 16 does not match "
                   "measure alphabet of size 4")


def test_mu_fibers(capsys, fixture_dir):
    code, out, _ = run(capsys, "mu", "fibers", "@example11,2",
                       fixture_dir / "c2q.rule", "--depth", "3")
    assert code == 0
    assert "K_estimate=2 eta=1/2 entropy_check=0" in out


@pytest.mark.parametrize("argv", [
    ("mu", "fibers", "@uniform,2", "@xor"),
    ("mu", "cmeasure", "@uniform,2", "@cyclic,2", "--subgroup", "0"),
])
@pytest.mark.parametrize("floor", ["abc", "1/0"])
def test_bad_mass_floor_is_a_usage_error(capsys, argv, floor):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--mass-floor", floor])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith(f"usage: qgca mu {argv[1]} ")
    assert captured.err.endswith(
        f"error: argument --mass-floor: bad rational {floor!r}\n")


def test_mu_fibers_floor_that_prunes_every_word_is_an_input_error(capsys):
    code, out, err = run_raw(capsys, "mu", "fibers", "@uniform,2", "@xor",
                             "--depth", "2", "--mass-floor", "1/2")
    assert (code, out) == (2, "")
    assert err == ("input error: mass floor 1/2 prunes every image word: "
                   "the largest pushforward mass at depth 2 is 1/4\n")


def test_mass_floor_parses_to_a_fraction():
    argv = ["mu", "fibers", "@uniform,2", "@xor", "--mass-floor", "1/3"]
    assert cli.build_parser(argv).parse_args(argv).mass_floor == Fraction(1, 3)


def test_mu_support(capsys):
    code, out, _ = run(capsys, "mu", "support", "@example11,2", "--depth", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "symbols=(0,i) (0,j) (0,k) (1,i) (1,j) (1,k)"
    assert lines[1] == "full_shift_over_support=False"


def test_mu_example11_verb(capsys, fixture_dir):
    code, out, _ = run(capsys, "mu", "example11", fixture_dir / "cyclic2.group",
                       "--depth", "3")
    assert code == 0
    assert "shift_dev\t0/1" in out and "ca_dev\t0/1" in out


def test_mu_depth_bound_exit_code(capsys):
    code, _, err = run(capsys, "mu", "invariance", "@uniform,2", "--depth", "25")
    assert code == 3 and "bound" in err


def test_eca_charpoly(capsys, fixture_dir):
    code, out, _ = run(capsys, "eca", "charpoly", fixture_dir / "m7.matrix")
    assert code == 0
    assert out.splitlines()[0] == "char=x^4 + 6x^3 + 6x^2 + 6x + 6"


def test_eca_rcf_and_subspaces(capsys):
    code, out, _ = run(capsys, "eca", "rcf", "@m7neg")
    assert code == 0 and "simple=True blocks=1" in out
    code, out, _ = run(capsys, "eca", "invsubspaces", "@m7neg")
    assert code == 0 and out.splitlines()[0] == "count=2"


def test_eca_decompose_kernel_orbits_audit(capsys, fixture_dir):
    code, out, _ = run(capsys, "eca", "decompose",
                       fixture_dir / "xor.rule", fixture_dir / "cyclic2.group")
    assert code == 0 and "bipermutative=True" in out
    code, out, _ = run(capsys, "eca", "kernel",
                       fixture_dir / "ledrappier321.rule",
                       fixture_dir / "cyclic3.group")
    assert code == 0
    code, out, _ = run(capsys, "eca", "orbits",
                       fixture_dir / "ledrappier321.rule",
                       fixture_dir / "cyclic3.group")
    assert code == 0 and "single_orbit=False" in out
    code, out, _ = run(capsys, "eca", "audit",
                       fixture_dir / "ledrappier321.rule",
                       fixture_dir / "cyclic3.group")
    assert code == 0 and "kernel_lemma=DISAGREE" in out


def test_eca_audit_z7x4_builds_the_group_once(capsys, z7x4_builds):
    code, out, _ = run(capsys, "eca", "audit", "@z7x4", "@z7x4")
    assert code == 0 and "rcf_lemma=DISAGREE" in out
    assert len(z7x4_builds) == 1


def test_eca_invsubgroups_and_hmax(capsys, fixture_dir):
    code, out, _ = run(capsys, "eca", "invsubgroups",
                       fixture_dir / "quaternion.group")
    assert code == 0 and len(out.splitlines()) == 7      # header + 6 subgroups
    code, out, _ = run(capsys, "eca", "hmax",
                       fixture_dir / "nonabelian21.group")
    assert code == 0 and out == "h_max=2.80735492206"


def test_eca_invsubgroups_with_a_rule_keeps_the_rho_invariant_ones(
        capsys, tmp_path):
    from qgca.automaton import format_rule
    from qgca.eca import affine_matrix_system
    # phi(a, b) = M a + b on (Z/2)^2, with M of order 3: rho cycles the
    # three subgroups of order 2, so none of them is invariant
    g, rule = affine_matrix_system(mf.MatrixFp.from_rows(2, [[0, 1],
                                                             [1, 1]]))
    (tmp_path / "k4.group").write_text(format_group(g))
    (tmp_path / "k4.rule").write_text(format_rule(rule))
    code, out, _ = run(capsys, "eca", "invsubgroups", tmp_path / "k4.group")
    assert code == 0 and len(out.splitlines()) == 6      # header + 5 subgroups
    code, out, _ = run(capsys, "eca", "invsubgroups", tmp_path / "k4.group",
                       "--rule", tmp_path / "k4.rule")
    assert (code, out) == (0, "order\tmembers\n1\t00\n4\t00 01 10 11")


def test_eca_orbits_names_a_long_cycle_by_its_length(capsys):
    # rho is multiplication by -2, a unit of order 36 mod 37
    code, out, _ = run(capsys, "eca", "orbits", "@ledrappier,37,2,1",
                       "@cyclic,37")
    assert (code, out) == (0, "orbits=1 single_orbit=True\n"
                              "(cycle of length 36 from 1)")


def test_ca_dual_prints_the_dual_rule(capsys, tmp_path):
    from qgca.automaton import dual_rule, parse_rule
    from qgca.fixtures import resolve_rule
    rule, _ = resolve_rule("@d7")
    code, out, err = run_raw(capsys, "ca", "dual", "@d7")
    assert (code, err) == (0, "") and parse_rule(out) == dual_rule(rule)
    (tmp_path / "dual.rule").write_text(out)
    code, out, _ = run_raw(capsys, "ca", "dual", tmp_path / "dual.rule")
    assert code == 0 and parse_rule(out) == rule


def test_malformed_rule_file_is_an_input_error(capsys, tmp_path):
    rule = tmp_path / "bad.rule"
    rule.write_text("2 0 1\n0 0 0\n0 1 x\n1 0 1\n1 1 0\n")
    code, out, err = run(capsys, "ca", "step", rule, "0 1")
    assert (code, out, err) \
        == (2, "", "input error: bad neighbourhood line '0 1 x'")


def test_export_fixtures_verb_lists_what_it_writes(capsys, tmp_path,
                                                   fixture_dir):
    code, out, err = run(capsys, "export-fixtures", tmp_path / "fx")
    assert (code, err) == (0, "")
    names = out.splitlines()
    assert sorted(names) == sorted(p.name for p in fixture_dir.iterdir())
    for name in names:
        assert (tmp_path / "fx" / name).read_text() \
            == (fixture_dir / name).read_text()


def test_exported_fixtures_roundtrip(fixture_dir):
    assert load_table(fixture_dir / "d7.table") == qg.builtin("D7")
    assert load_matrix(fixture_dir / "m7.matrix") == M7_MATRIX
    expected = group_product(cyclic_group(2), quaternion_group())
    assert load_group(fixture_dir / "c2q.group") == expected
    doc = mu.load_measure(fixture_dir / "example11_c2.measure")
    reference = mu.example11(cyclic_group(2))
    for w, mass in reference.positive_words(3):
        assert doc.measure.eval(w) == mass


def test_every_exported_fixture_roundtrips(fixture_dir):
    from qgca.automaton import format_rule, load_rule, parse_rule
    from qgca.groups import format_group, parse_group
    from qgca.matfp import format_matrix, parse_matrix
    from qgca.quasigroup import format_table, parse_table

    for path in sorted(fixture_dir.iterdir()):
        if path.suffix == ".table":
            obj = load_table(path)
            assert parse_table(format_table(obj)) == obj
            assert format_table(obj) == path.read_text()
        elif path.suffix == ".group":
            obj = load_group(path)
            assert parse_group(format_group(obj)) == obj
            assert format_group(obj) == path.read_text()
        elif path.suffix == ".matrix":
            obj = load_matrix(path)
            assert parse_matrix(format_matrix(obj)) == obj
            assert format_matrix(obj) == path.read_text()
        elif path.suffix == ".rule":
            obj = load_rule(path)
            assert parse_rule(format_rule(obj)) == obj
        elif path.suffix == ".measure":
            doc = mu.load_measure(path)
            assert doc.measure.eval(()) == 1


def test_output_to_file(capsys, tmp_path, fixture_dir):
    out_path = tmp_path / "report.tsv"
    code, stdout, _ = run(capsys, "qg", "sub", fixture_dir / "d7.table",
                          "--out", out_path)
    assert code == 0 and stdout == ""
    assert "a1 a2" in out_path.read_text()


GOLDEN_COMMANDS = {
    "qg_sub_d7.tsv": ("qg", "sub", "@d7"),
    "qg_sub_c2q_trivial.tsv": ("qg", "sub", "@c2q", "--include-trivial"),
    "eca_invsubgroups_c2q.tsv": ("eca", "invsubgroups", "@c2q"),
    "eca_invsubspaces_identity_3_4.tsv": ("eca", "invsubspaces",
                                          "@identity,3,4"),
    "eca_invsubspaces_m7neg.tsv": ("eca", "invsubspaces", "@m7neg"),
    "eca_audit_ledrappier321_cyclic3.tsv": ("eca", "audit",
                                            "{fx}/ledrappier321.rule",
                                            "{fx}/cyclic3.group"),
    "eca_audit_z7x4.tsv": ("eca", "audit", "@z7x4", "@z7x4"),
    "eca_kernel_z7x4.tsv": ("eca", "kernel", "@z7x4", "@z7x4"),
    "eca_kernel_cyclic4.tsv": ("eca", "kernel", "@cyclic,4", "@cyclic,4"),
    "eca_orbits_ledrappier321_cyclic3.tsv": ("eca", "orbits",
                                             "{fx}/ledrappier321.rule",
                                             "{fx}/cyclic3.group"),
    "mu_eval_example11_c2.tsv": ("mu", "eval", "{fx}/example11_c2.measure",
                                 "(0,i) (0,j)"),
    "mu_conditional_example11_c2.tsv": ("mu", "conditional",
                                        "{fx}/example11_c2.measure",
                                        "(0,i) (0,j)"),
    "mu_support_example11_c2.tsv": ("mu", "support",
                                    "{fx}/example11_c2.measure",
                                    "--depth", "3"),
    "mu_entropy_example11_c2.tsv": ("mu", "entropy",
                                    "{fx}/example11_c2.measure",
                                    "--depth", "4"),
    "mu_fibers_example11_c2q.tsv": ("mu", "fibers", "@example11,2",
                                    "{fx}/c2q.rule", "--depth", "3"),
    "mu_invariance_example11_c2q.tsv": ("mu", "invariance", "@example11,2",
                                        "--ca", "{fx}/c2q.rule",
                                        "--depth", "4"),
    "mu_example11_cyclic4.tsv": ("mu", "example11", "@cyclic,4",
                                 "--depth", "3"),
    "mu_cmeasure_example11_c2q.tsv": ("mu", "cmeasure", "@example11,2",
                                      "@c2q", "--subgroup", "(0,1) (1,1)",
                                      "--depth", "3"),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_golden_output(capsys, tmp_path, fixture_dir, golden):
    argv = [a.format(fx=fixture_dir) for a in GOLDEN_COMMANDS[golden]]
    code, out, _ = run_raw(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()
    # the same report written to --out: the golden bytes, nothing on stdout
    path = tmp_path / golden
    code, out, err = run_raw(capsys, *argv, "--out", path)
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_invsubspaces_family_bound_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(mf, "SUBSPACE_FAMILY_BOUND", 100)
    code, _, err = run(capsys, "eca", "invsubspaces", "@identity,3,4")
    assert code == 3
    assert err == "bound exceeded: invariant subspace family exceeds 100"


def test_qg_sub_order_bound_exit_code(capsys):
    code, _, err = run(capsys, "qg", "sub",
                       f"@cyclic,{qg.CLOSURE_ORDER_BOUND + 1}")
    assert code == 3
    assert err == "bound exceeded: order 65 exceeds enumeration bound 64"


def test_ca_orbit_periodic_state_bound_exit_code(capsys):
    from qgca.automaton import PERIODIC_STATE_BOUND
    assert PERIODIC_STATE_BOUND == 2 ** 20
    code, out, _ = run(capsys, "ca", "orbit", "@cyclic,2", " ".join("0" * 20))
    assert code == 0 and out.startswith("preperiod=")
    code, out, err = run(capsys, "ca", "orbit", "@cyclic,2", " ".join("0" * 21))
    assert (code, out) == (3, "")
    assert err == "bound exceeded: 2^21 periodic states exceed bound 1048576"


def test_eca_invsubspaces_enumeration_bound_exit_code(capsys):
    assert mf.SUBSPACE_ENUMERATION_BOUND == 2 ** 20
    code, out, err = run(capsys, "eca", "invsubspaces", "@identity,2,21")
    assert (code, out) == (3, "")
    assert err == "bound exceeded: 2^21 vectors exceed bound 1048576"


def test_eca_group_file_past_order_1024_is_verified(capsys, fixture_dir,
                                                    tmp_path):
    """A group file of any order the table bound admits is verified, so
    past order 1024 it is read as a group and the enumeration bound of
    h_max is the bound it meets."""
    code, out, _ = run(capsys, "eca", "hmax", fixture_dir / "quaternion.group")
    assert (code, out) == (0, "h_max=2")
    group = tmp_path / "c1031.group"
    group.write_text(format_group(cyclic_group(1031)))
    got = run(capsys, "eca", "kernel", "@cyclic,1031", group)
    assert got[0] == 0
    assert got == run(capsys, "eca", "kernel", "@cyclic,1031", "@cyclic,1031")
    code, out, err = run(capsys, "eca", "hmax", group)
    assert (code, out) == (3, "")
    assert err == "bound exceeded: order 1031 exceeds enumeration bound 64"


def test_ca_step_rule_table_bound_exit_code(capsys, tmp_path):
    from qgca.automaton import RULE_TABLE_BOUND
    assert RULE_TABLE_BOUND == 2 ** 24
    # 2**25 neighbourhoods: rejected from the header, before any is read
    rule = tmp_path / "wide.rule"
    rule.write_text("2 12 12\n")
    code, out, err = run(capsys, "ca", "step", rule, "0 1")
    assert (code, out) == (3, "")
    assert err == ("bound exceeded: table with 33554432 entries "
                   "exceeds bound 16777216")


def test_paper_suite_depth3(capsys):
    code, raw, _ = run_raw(capsys, "paper-suite", "--depth", "3")
    assert code == 0
    assert raw == (GOLDEN / "paper_suite_depth3.tsv").read_text()
    out = raw.strip()
    lines = out.splitlines()
    assert lines[0] == "criterion\tname\tstatus\tdetail"
    statuses = {ln.split("\t")[2] for ln in lines[1:]}
    assert "FAIL" not in statuses
    assert "INFO" in statuses


def test_paper_suite_corrupted_builtin_fails(capsys, monkeypatch):
    import qgca.quasigroup as qgm
    bad = [list(r) for r in qgm._D7_TABLE]
    bad[0][1] = bad[0][0]                    # duplicate in row 0
    monkeypatch.setattr(qgm, "_D7_TABLE", tuple(tuple(r) for r in bad))
    code, out, _ = run(capsys, "paper-suite", "--depth", "3")
    assert code == 1
    row1 = [ln for ln in out.splitlines()[1:] if ln.split("\t")[0] == "1"]
    assert row1 and all("FAIL" in ln for ln in row1)


def test_eca_hmax_rejects_the_trivial_group(capsys):
    code, out, err = run(capsys, "eca", "hmax", "@cyclic,1")
    assert (code, out) == (2, "")
    assert "the trivial group has no proper subgroup" in err


def test_eca_audit_rejects_the_trivial_group(capsys):
    code, out, err = run(capsys, "eca", "audit", "@cyclic,1", "@cyclic,1")
    assert (code, out) == (2, "")
    assert "the trivial group has no non-identity symbol to audit" in err


def test_eca_orbits_rejects_the_trivial_group(capsys):
    code, out, err = run(capsys, "eca", "orbits", "@cyclic,1", "@cyclic,1")
    assert (code, out) == (2, "")
    assert err == ("input error: the trivial group has no non-identity "
                   "symbol to orbit")


def test_eca_kernel_builds_only_the_words_it_prints(capsys, monkeypatch):
    from qgca import eca
    monkeypatch.setattr(eca.KernelReport, "zeta", property(
        lambda rep: pytest.fail("the whole kernel-word table was built")))
    code, out, _ = run(capsys, "eca", "kernel", "@cyclic,4", "@cyclic,4")
    assert code == 0 and out.splitlines()[2] == "1\t3\t2\t1 3"
    code, out, _ = run(capsys, "eca", "kernel", "@z7x4", "@z7x4")
    assert code == 0 and "(period 342)" in out


@pytest.mark.parametrize("argv", [
    ["mu", "entropy", "@uniform,2"],
    ["mu", "invariance", "@uniform,2"],
    ["mu", "fibers", "@uniform,2", "@xor"],
])
def test_mu_negative_depth_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv, "--depth", "-1")
    assert (code, out) == (2, "")
    assert "depth must be nonnegative" in err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_paper_suite_rejects_a_depth_below_one(capsys, monkeypatch, depth):
    from qgca import suite
    from qgca.errors import BadParams
    ran = []
    monkeypatch.setattr(suite, "_CRITERIA",
                        [lambda *args: ran.append(args) or []])
    code, out, err = run(capsys, "paper-suite", "--depth", depth)
    assert (code, out, ran) == (2, "", [])
    assert err == "input error: depth must be at least 1"
    for call in (suite.paper_suite, suite.criterion_3):
        with pytest.raises(BadParams, match="depth must be at least 1"):
            call(int(depth), 0)


# ---------------------------------------------------------------------------
# one-path parser builds

def _parse_outcome(capsys, parser, argv):
    try:
        result = ("namespace", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _argv_cases(row):
    """A valid argv for the verb of ``row``, then --help, a bad --depth
    value, an unrecognized argument and, if the verb takes one, a missing
    positional."""
    path = cli._path(row)
    valid, positional = list(path), False
    for arg in row[3]:
        name, kwargs = (arg, {}) if isinstance(arg, str) else arg
        if not name.startswith("-"):
            valid.append(f"<{name}>")
            positional = True
        elif kwargs.get("required"):
            valid += [name, "<value>"]
    cases = [valid, path + ["--help"], valid + ["--depth", "x"],
             valid + ["--no-such-option"]]
    return cases + [path] if positional else cases


@pytest.mark.parametrize("row", cli._VERBS,
                         ids=lambda r: " ".join(cli._path(r)))
def test_one_path_parser_matches_the_full_parser(capsys, monkeypatch, row):
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for argv in _argv_cases(row):
        one = _parse_outcome(capsys, cli.build_parser(argv), argv)
        assert one == _parse_outcome(capsys, cli.build_parser(), argv), argv
        outcomes.append(one[0])
    assert outcomes[0][1]["fn"] is row[2]
    assert outcomes[1:] == [("exit", 0)] + [("exit", 2)] * (len(outcomes) - 2)


def _parsers_built(monkeypatch, build):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", counting)
        return built, build()


@pytest.mark.parametrize("argv, progs", [
    (["mu", "invariance", "@uniform,2", "--depth", "3"],
     ["qgca", "qgca mu", "qgca mu invariance"]),
    (["paper-suite", "--depth", "3"], ["qgca", "qgca paper-suite"]),
    (["export-fixtures"], ["qgca", "qgca export-fixtures"]),
])
def test_a_named_verb_builds_only_its_path(monkeypatch, argv, progs):
    built, _ = _parsers_built(monkeypatch, lambda: cli.build_parser(argv))
    assert built == progs


@pytest.mark.parametrize("argv", [[], ["--help"], ["mu"], ["mu", "--help"],
                                  ["mu", "bogus"], ["bogus", "invariance"]])
def test_anything_else_builds_every_parser(monkeypatch, argv):
    built, _ = _parsers_built(monkeypatch, lambda: cli.build_parser(argv))
    assert len(built) == 1 + 4 + len(cli._VERBS)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qgca", "mu", "invariance",
                                      "@uniform,2", "--depth", "3"])
    built, code = _parsers_built(monkeypatch, lambda: cli.main(None))
    assert built == ["qgca", "qgca mu", "qgca mu invariance"]
    assert code == 0
    assert capsys.readouterr().out == (
        "transform=shift depth=3 max_dev=0/1 worst=-\n")


def test_help_lists_every_group_and_verb(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    for argv in (["--help"], ["mu", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage: qgca [-h] {qg,ca,mu,eca,paper-suite,export-fixtures} ..." \
        in out
    for name, help_text in (
            ("qg", "quasigroup tables"), ("ca", "rules and words"),
            ("mu", "cylinder measures"), ("eca", "endomorphic-CA analysis"),
            ("paper-suite", "run every acceptance scenario"),
            ("export-fixtures", "write the builtin example files")):
        assert any(line.split() == [name, *help_text.split()]
                   for line in out.splitlines()), name
    assert ("usage: qgca mu [-h] {eval,invariance,entropy,conditional,"
            "cmeasure,fibers,support,example11} ...") in out


def test_no_command_names_the_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: qgca [-h] {qg,ca,mu,eca,paper-suite,export-fixtures} ...\n"
        "qgca: error: the following arguments are required: command\n")
