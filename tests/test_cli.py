import csv
import importlib.metadata
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (NON_FINITE_TEXTS, SM84_B, assert_no_child_left,
                      near_tolerance_sm64_text, yoshida_text)
from cxsplit import bench, cli, designer, problems
from cxsplit.errors import (CxsplitError, DesignScanUnreliable, ParseError,
                            ReferenceInconsistent, ValidationError)
from cxsplit.order_conditions import LONGEST
from cxsplit.schemes import builtin_names, builtin_scheme, load_scheme, serialize_scheme

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# validate's stability-class line, and its verdict on a scheme with every a
# real and >= 0 and every Re(b) > 0
STABLE_CLASS = "  stable class (real a >= 0, Re(b) > 0): "
STABLE = STABLE_CLASS + "yes"


def _subprocess_env(**extra):
    """os.environ and extra, with the `cxsplit` this process imported first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _without_wall_time(csv_text):
    """The sweep CSV lines without their wall_time column (no method name holds a comma)."""
    return [line.split(",")[:6] + line.split(",")[7:] for line in csv_text.splitlines()]


def test_validate_builtins_ok(capsys):
    assert cli.main(["validate", "SM4", "SM64", "S62"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "SM4: pattern=BAB stages=4 order=4" in out
    assert "sum_a = 1" in out
    assert "min_re_b" in out
    assert "  effective order (s, n) = (4, 4), eps^3 terms not checked\n" in out


def test_validate_bad_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("name=t\npattern=BAB\norder=2\nb 0.4 0.0\na 1.0 0.0\nb 0.5 0.0\n")
    assert cli.main(["validate", str(bad)]) == cli.EXIT_VALIDATION
    assert "INVALID" in capsys.readouterr().out


def test_validate_near_tolerance_file_is_invalid(tmp_path, capsys):
    path = tmp_path / "sm64_edge.txt"
    path.write_text(near_tolerance_sm64_text())
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert out == f"{path}: INVALID (SM64: consistency-b defect 2.700e-09)\n"


def test_sweep_near_tolerance_file_exits_runtime(tmp_path, osc_ref, capsys):
    path = tmp_path / "sm64_edge.txt"
    path.write_text(near_tolerance_sm64_text())
    code = cli.main(["sweep", "--problem", "osc", "--methods", str(path),
                     "--nsteps", "16"])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SM64: consistency-b defect 2.700e-09\n"


@pytest.mark.parametrize("name", sorted(NON_FINITE_TEXTS))
def test_non_finite_file_is_invalid_without_warnings(name, tmp_path, osc_ref, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(NON_FINITE_TEXTS[name])
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{path}: INVALID (t: consistency-")
    assert captured.err == ""
    assert cli.main(["sweep", "--problem", "osc", "--methods", str(path),
                     "--nsteps", "16"]) == cli.EXIT_RUNTIME


# A first-order BAB scheme whose kicks zero all three residual polynomials:
# b solves sum b = 1, p_aba = p_abb = p_abaaa = 0 at equal flows a = 1/3, but
# the odd moment sum b_i c_i is 0.5137, not 1/2 (mu_1 = 0.0137).
NON_SYMMETRIC_TEXT = """name=nonsym
pattern=BAB
order=4
symmetric=false
b 0.15040014595123982 0.0
a 0.3333333333333333 0.0
b 0.25783921186330566 0.0
a 0.3333333333333333 0.0
b 0.4921607881366942 0.0
a 0.3333333333333334 0.0
b 0.09959985404876036 0.0
"""


def test_validate_does_not_print_symmetric_residuals_for_a_non_symmetric_file(
        tmp_path, capsys):
    # the residuals of the symmetric family are zero, but mu_1 = 0.0137:
    # the file's order=4 is invalid, and its effective order is (1, 3)
    path = tmp_path / "nonsym.txt"
    path.write_text(NON_SYMMETRIC_TEXT)
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "nonsym: pattern=BAB stages=3 order=4"
    assert out.splitlines()[-3:] == ["  effective order (s, n) = (1, 3), eps^3 terms not checked",
                                     STABLE,
                                     "nonsym: INVALID (order 4 needs |mu_1| <= 1e-09)"]
    assert "p_aba" not in out


STRANG_TEXT = "name=strang4\npattern=BAB\norder={order}\nsymmetric=true\nb 0.5 0\na 1 0\nb 0.5 0\n"
STRANG_ABA_TEXT = ("name=strangaba\npattern=ABA\norder={order}\nsymmetric=true\n"
                   "a 0.5 0\nb 1 0\na 0.5 0\n")


@pytest.mark.parametrize("order,code", [(2, cli.EXIT_OK), (3, cli.EXIT_VALIDATION),
                                        (4, cli.EXIT_VALIDATION),
                                        (99999999999999999999, cli.EXIT_VALIDATION)])
def test_validate_symmetric_file_claiming_order_four_needs_its_residuals(
        order, code, tmp_path, capsys):
    # Strang's mu_2 = 1/6 (BAB) and -1/12 (ABA) leave it (2, 2): a file that
    # claims order 3 or more, symmetric or not, is invalid
    bab, aba = tmp_path / "strang.txt", tmp_path / "strangaba.txt"
    bab.write_text(STRANG_TEXT.format(order=order))
    aba.write_text(STRANG_ABA_TEXT.format(order=order))
    assert cli.main(["validate", str(bab), str(aba)]) == code
    expected = []
    for name, pattern, min_re in (("strang4", "BAB", "1  min_re_b = 0.5"),
                                  ("strangaba", "ABA", "0.5  min_re_b = 1")):
        expected += [f"{name}: pattern={pattern} stages=1 order={order}",
                     "  sum_a = 1+0j  sum_b = 1+0j", f"  min_re_a = {min_re}",
                     "  effective order (s, n) = (2, 2), eps^3 terms not checked", STABLE]
        if code != cli.EXIT_OK:
            expected.append(f"{name}: INVALID (order {order} needs |mu_2| <= 1e-09)")
    assert capsys.readouterr().out.splitlines() == expected


def _non_symmetric_text(which, order):
    """The nonsym file, or Strang's BAB or ABA file marked not symmetric, claiming `order`."""
    if which == "nonsym":
        return NON_SYMMETRIC_TEXT.replace("order=4", f"order={order}")
    text = STRANG_ABA_TEXT if which == "strangaba" else STRANG_TEXT
    return text.format(order=order).replace("symmetric=true", "symmetric=false")


@pytest.mark.parametrize("which,order,invalid", [
    ("nonsym", 1, None), ("nonsym", 2, 1), ("nonsym", 5, 1),
    ("strang", 2, None), ("strang", 3, 2), ("strang", 99999999999999999999, 2),
    ("strangaba", 2, None), ("strangaba", 4, 2)])
def test_validate_non_symmetric_file_needs_its_moment_conditions(which, order, invalid,
                                                                  tmp_path, capsys):
    # mu_k = sum b_i c_i^k - 1/(k+1) must vanish for k < order; Strang's
    # kicks at c = 0 and 1 (BAB) or at c = 1/2 (ABA) meet mu_1 but not mu_2,
    # which comes before delta_10 of the same word length
    path = tmp_path / "nonsym.txt"
    path.write_text(_non_symmetric_text(which, order))
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out.splitlines()
    name = out[0].split(":")[0]
    assert out[3].startswith("  effective order (s, n) = ")
    if invalid is None:
        assert code == cli.EXIT_OK and out[4:] == [STABLE]
    else:
        assert code == cli.EXIT_VALIDATION
        assert out[4:] == [STABLE,
                           f"{name}: INVALID (order {order} needs |mu_{invalid}| <= 1e-09)"]


@pytest.mark.parametrize("text,verdict", [
    (yoshida_text(), "no, a_2 = -1.70241 < 0"),    # its Re(b_2) = -0.175604 comes after
    ("name=t\npattern=BAB\norder=1\nsymmetric=false\n"
     "b 0.25 0\na 0.5 0.1\nb 0.5 0\na 0.5 -0.1\nb 0.25 0\n", "no, a_1 = 0.5+0.1j is not real"),
    ("name=t\npattern=BAB\norder=1\nsymmetric=false\n"
     "b 0.6 0\na 0.5 0\nb -0.2 0.3\na 0.5 0\nb 0.6 -0.3\n", "no, Re(b_2) = -0.2 <= 0"),
    ("name=t\npattern=ABA\norder=1\nsymmetric=false\na 0 0\nb 1 0\na 1 0\n", "yes"),
    ("name=t\npattern=BAB\norder=1\nsymmetric=true\nb 0.25 0\na -1e-6 0\nb 0.25 0\n"
     "a 1.000002 0\nb 0.25 0\na -1e-6 0\nb 0.25 0\n", "no, a_1 = -1e-06 < 0")],
    ids=["yoshida", "complex-a", "negative-re-b", "zero-a", "slightly-negative-a"])
def test_validate_names_the_first_coefficient_outside_the_stable_class(text, verdict,
                                                                      tmp_path, capsys):
    # every a real and >= 0 (a zero flow too) and every Re(b) > 0, the a
    # checked first; the line leaves the exit code as it was
    path = tmp_path / "s.txt"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[4:] == [STABLE_CLASS + verdict]


def test_validate_builtins_and_designs_keep_exit_zero(tmp_path, capsys):
    sm4, sm64 = tmp_path / "sm4.txt", tmp_path / "sm64.txt"
    assert cli.main(["design", "--a1", "0.13505265889288437", "--out", str(sm4)]) == 0
    assert cli.main(["design", "--stages", "6", "--out", str(sm64)]) == 0
    capsys.readouterr()
    assert cli.main(["validate", *builtin_names(), str(sm4), str(sm64)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "INVALID" not in out
    # every one in the stable class
    assert [line for line in out.splitlines() if line.startswith(STABLE_CLASS)] == \
        [STABLE] * (len(builtin_names()) + 2)


def _sm4_text(order):
    """The SM4 builtin as a scheme file that claims `order`."""
    return serialize_scheme(replace(builtin_scheme("SM4"), claimed_order=order))


@pytest.mark.parametrize("order", [0, -1])
def test_scheme_file_order_below_one_is_a_parse_error(order, tmp_path, capsys):
    path = tmp_path / "sm4.txt"
    path.write_text(_sm4_text(order))
    message = f"order must be at least 1, got {order}"
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_scheme(path.read_text())
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().out == f"{path}: INVALID ({message})\n"
    # a sweep resolves its methods before any reference or output
    code = cli.main(["sweep", "--problem", "osc", "--methods", str(path), "--nsteps", "8"])
    assert code == cli.EXIT_RUNTIME
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("order,code", [(4, cli.EXIT_OK), (5, cli.EXIT_VALIDATION),
                                        (6, cli.EXIT_VALIDATION)])
def test_validate_symmetric_file_claiming_order_five_needs_p_abaaa(order, code, tmp_path,
                                                                   capsys):
    # SM4 has p_aba = p_abb = 0 but |p_abaaa| = |mu_4| = 6.24e-3: its
    # effective order is (4, 4)
    path = tmp_path / "sm4.txt"
    path.write_text(_sm4_text(order))
    assert cli.main(["validate", str(path)]) == code
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"SM4: pattern=BAB stages=4 order={order}"
    assert out[3] == "  effective order (s, n) = (4, 4), eps^3 terms not checked"
    invalid = f"SM4: INVALID (order {order} needs |mu_4| <= 1e-09)"
    assert out[4:] == [STABLE] + ([] if code == cli.EXIT_OK else [invalid])


@pytest.mark.parametrize("order", [6, 8])
def test_validate_sm64_claiming_order_six_or_more_is_invalid(order, tmp_path, capsys):
    # SM64 meets every mu_k up to mu_5 but not delta_30: its effective order is (6, 4)
    path = tmp_path / "sm64.txt"
    path.write_text(serialize_scheme(replace(builtin_scheme("SM64"), claimed_order=order)))
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "  effective order (s, n) = (6, 4), eps^3 terms not checked"
    assert out[4:] == [STABLE, f"SM64: INVALID (order {order} needs |delta_30| <= 1e-09)"]


def _gauss_text(symmetric):
    """Kicks (0, 1/2, 1/2, 0) at the 2-point Gauss nodes, claiming order 4."""
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    rows = ["b 0 0", f"a {c1!r} 0", "b 0.5 0", f"a {c2 - c1!r} 0", "b 0.5 0",
            f"a {1.0 - c2!r} 0", "b 0 0"]
    return "\n".join(["name=gauss", "pattern=BAB", "order=4", f"symmetric={symmetric}",
                      *rows]) + "\n"


def test_validate_verdict_ignores_the_symmetric_header(tmp_path, capsys):
    # the Gauss nodes meet mu_1 to mu_3, but the kicks miss delta_10: (s, n) = (4, 2)
    outputs = []
    for symmetric in ("true", "false"):
        path = tmp_path / f"gauss_{symmetric}.txt"
        path.write_text(_gauss_text(symmetric))
        assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[3:] == [
        "  effective order (s, n) = (4, 2), eps^3 terms not checked",
        "  stable class (real a >= 0, Re(b) > 0): no, Re(b_1) = 0 <= 0",
        "gauss: INVALID (order 4 needs |delta_10| <= 1e-09)"]


def test_validate_claim_past_the_generated_words_is_invalid(monkeypatch, tmp_path, capsys):
    # a scheme that met every generated condition would still not certify a longer word
    monkeypatch.setattr(cli, "effective_order", lambda b, c, tol: (LONGEST, LONGEST, None))
    path = tmp_path / "sm4.txt"
    path.write_text(_sm4_text(LONGEST))
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    path.write_text(_sm4_text(LONGEST + 1))
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert out[3] == f"  effective order (s, n) = ({LONGEST}, {LONGEST}), eps^3 terms not checked"
    assert out[-1] == f"SM4: INVALID (order {LONGEST + 1} needs words past length {LONGEST})"


def test_python_dash_m_runs_the_command_line():
    # a source checkout runs the command line without installing it
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "cxsplit", *argv], capture_output=True,
                              text=True, timeout=120, env=_subprocess_env())
    done = run("validate", "SM4")
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert done.stdout.startswith("SM4: pattern=BAB stages=4 order=4\n")
    assert run("validate", "no-such-scheme").returncode == cli.EXIT_VALIDATION


def test_validate_unknown_scheme_exits_one(capsys):
    assert cli.main(["validate", "nope"]) == cli.EXIT_VALIDATION


def test_validate_directory_is_invalid(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert "INVALID (cannot read" in capsys.readouterr().out


def test_design_fixed_a1_writes_loadable_scheme(tmp_path, capsys):
    out = tmp_path / "scheme.txt"
    code = cli.main(["design", "--stages", "4", "--a1", "0.13505265889288437",
                     "--name", "re-derived", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert "residual_norm" in capsys.readouterr().out
    scheme = load_scheme(out.read_text())
    assert scheme.name == "re-derived"
    assert scheme.stages == 4
    from cxsplit.schemes import builtin_scheme
    assert np.allclose(scheme.expanded_b(), builtin_scheme("SM4").expanded_b(),
                       atol=1e-9)


def test_design_six_stage_defaults_to_sixths(capsys):
    code = cli.main(["design", "--stages", "6"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "pattern=BAB" in out
    assert "|Re(p_abaaa)|" in out


def test_design_eight_stage_validates_as_sm84(tmp_path, capsys):
    out = tmp_path / "sm84.txt"
    assert cli.main(["design", "--stages", "8", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["validate", str(out)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "designed: pattern=BAB stages=8 order=4"
    assert lines[2].endswith("min_re_b = 0.0392903")
    assert lines[3:] == ["  effective order (s, n) = (8, 4), eps^3 terms not checked", STABLE]
    assert np.max(np.abs(np.asarray(load_scheme(out.read_text()).b) - SM84_B)) < 1e-6


def test_design_fraction_parsing(capsys):
    code = cli.main(["design", "--stages", "6", "--a", "1/6,1/6,1/6"])
    assert code == cli.EXIT_OK


def test_design_without_a_exits_runtime(capsys):
    assert cli.main(["design", "--stages", "4"]) == cli.EXIT_RUNTIME


@pytest.mark.parametrize("flags", [
    ["--scan", "--a1", "0.3"], ["--a1", "0.3", "--a", "0.1,0.4"],
    ["--scan", "--a", "0.1,0.4"]],
    ids=["scan-a1", "a1-a", "scan-a"])
def test_design_conflicting_flags_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", "--stages", "4", *flags, "--grid-points", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("cxsplit design: error: argument --")
    assert "not allowed with argument" in last


@pytest.mark.parametrize("flags", [["--a1", "0.6"], ["--stages", "6", "--a", "1/6,1/6"]],
                         ids=["a1-out-of-range", "six-stage-two-a"])
def test_design_bad_flow_coefficients_exit_runtime(flags, capsys):
    assert cli.main(["design", *flags]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a 4-, 6- or 8-stage design needs")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flags,arg", [
    (["--stages", "6", "--a", "1/0,1/6,1/6"], "--a"), (["--a", "x"], "--a"),
    (["--scan", "--grid-points", "x"], "--grid-points"),
    (["--stages", "6", "--scan"], "--scan"),
    (["--a1", "0.2", "--grid-points", "5"], "--grid-points")],
    ids=["a-zero-denominator", "a-not-a-number", "grid-points-not-an-integer",
         "scan-six-stages", "grid-points-without-scan"])
def test_design_bad_arguments_are_usage_errors(flags, arg, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("usage: cxsplit design")
    assert err.strip().splitlines()[-1].startswith(f"cxsplit design: error: argument {arg}: ")


@pytest.mark.parametrize("points", ["-1", "1"], ids=["grid-points-negative", "grid-points-one"])
def test_design_scan_below_two_grid_points_is_one_error_line(points, capsys):
    # the rule is scan_a1's: a bracket needs two grid points
    assert cli.main(["design", "--scan", "--grid-points", points]) == cli.EXIT_RUNTIME
    assert capsys.readouterr() == (
        "", f"error: a scan needs at least 2 grid points, got {points}\n")


def test_design_scan_prints_sm4(capsys):
    # a1 within perfbench's 1e-6; the kicks move with a1, about 1e-7 off SM4's at 50 points
    sm4 = builtin_scheme("SM4")
    assert cli.main(["design", "--stages", "4", "--scan", "--grid-points", "50"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert abs(float(out.split("a1_opt = ")[1].split()[0]) - sm4.a[0]) < 1e-6
    scheme = load_scheme(out[out.index("name="):])
    assert max(abs(x - y) for x, y in zip(scheme.b, sm4.b, strict=True)) < 1e-6


def test_design_scan_grid_points_default_is_the_designers(monkeypatch):
    seen = []

    def scan_a1(**kwargs):
        seen.append(kwargs)
        raise DesignScanUnreliable("stop after the call")

    monkeypatch.setattr(designer, "scan_a1", scan_a1)
    assert cli.main(["design", "--scan"]) == cli.EXIT_RUNTIME
    assert cli.main(["design", "--scan", "--grid-points", "7"]) == cli.EXIT_RUNTIME
    assert seen == [{}, {"grid_points": 7}]


@pytest.mark.parametrize("cmd", [
    ["design", "--a1", "0.13505265889288437"], ["design", "--scan"],
    ["sweep", "--problem", "osc", "--methods", "strang", "--nsteps", "8"]],
    ids=["design", "design-scan", "sweep"])
def test_out_in_a_missing_directory_is_one_error_line(cmd, tmp_path, osc_ref, capsys,
                                                     monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("the sweep or the solve ran before --out was checked")

    for module, name in ((bench, "sweep"), (designer, "solve_b"), (designer, "scan_a1")):
        monkeypatch.setattr(module, name, work)
    out = tmp_path / "missing" / "out.txt"
    assert cli.main([*cmd, "--out", str(out)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("cmd", [
    ["design", "--a1", "0.13505265889288437"], ["design", "--scan"],
    ["sweep", "--problem", "parabolic", "--methods", "sm4", "--nsteps", "8"]],
    ids=["design", "design-scan", "sweep"])
def test_out_that_is_a_directory_fails_before_the_work(cmd, tmp_path, capsys):
    # the sweep would build its reference into the cache; the design would
    # print its results: neither runs
    cache, out = tmp_path / "cache", tmp_path / "out"
    cache.mkdir()
    out.mkdir()
    extra = ["--cache-dir", str(cache)] if cmd[0] == "sweep" else []
    assert cli.main([*cmd, *extra, "--out", str(out)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{out}'\n"
    assert list(cache.iterdir()) == [] and list(out.iterdir()) == []


def test_failed_sweep_leaves_existing_out_unchanged(tmp_path, monkeypatch, capsys):
    def sweep(spec):
        raise CxsplitError("a sweep that fails")

    monkeypatch.setattr(bench, "sweep", sweep)
    out = tmp_path / "out.csv"
    out.write_text("earlier rows\n")
    assert cli.main(["sweep", "--problem", "osc", "--methods", "strang", "--nsteps", "8",
                     "--out", str(out)]) == cli.EXIT_RUNTIME
    assert out.read_text() == "earlier rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_sweep_writes_csv(tmp_path, osc_ref, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--problem", "osc", "--methods", "strang,sm4",
                     "--nsteps", "8,16", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("method,h,n_steps")
    assert len(lines) == 5


def test_sweep_stdout_and_eps(osc_ref_eps01, capsys):
    code = cli.main(["sweep", "--problem", "osc", "--eps", "0.1",
                     "--methods", "s62", "--nsteps", "8,16"])
    assert code == cli.EXIT_OK
    assert "s62" in capsys.readouterr().out


def test_sweep_eps_zero_is_not_the_default(osc_ref, osc_ref_eps0, capsys):
    def error_l2(argv):
        assert cli.main(["sweep", "--problem", "osc", "--methods", "strang",
                         "--nsteps", "8", *argv]) == cli.EXIT_OK
        return capsys.readouterr().out.splitlines()[1].split(",")[5]

    spec = bench.SweepSpec("osc", ["strang"], [8], params={"epsilon": 0.0})
    [record] = bench.sweep(spec)
    assert error_l2(["--eps", "0"]) == repr(record.error_l2)
    assert error_l2(["--eps", "0"]) != error_l2([])


@pytest.mark.parametrize("cmd", [["sweep", "--methods", "sm4"],
                                 ["converge", "--method", "sm4"]])
def test_eps_on_a_pde_problem_is_a_usage_error(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd[0], "--problem", "parabolic", "--eps", "0.1", *cmd[1:],
                  "--nsteps", "8,16,32,64"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith(f"cxsplit {cmd[0]}: error: argument --eps:")


def test_failed_reference_build_names_the_problem_and_the_oracle(tmp_path, capsys):
    # the split oracle overflows on its first step: the error says which
    # reference was being built, and no cache entry is written
    cache = tmp_path / "cache"
    code = cli.main(["sweep", "--problem", "osc", "--eps", "1e308", "--methods", "sm4",
                     "--nsteps", "4", "--cache-dir", str(cache)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    params = problems.make_problem("osc", epsilon=1e308).params()
    assert captured.out == ""
    assert captured.err == (f"error: osc: reference {params} not built: the splitting "
                            "oracle failed: stage 4: math range error\n")
    assert list(cache.iterdir()) == []
    assert_no_child_left()


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd", [["sweep", "--methods", "sm4"],
                                 ["converge", "--method", "sm4"]])
def test_non_finite_eps_fails_before_any_work(tmp_path, monkeypatch, capsys, cmd, eps):
    forks = []
    for module in (problems, bench):
        monkeypatch.setattr(module, "run_forked", lambda *fns: forks.append(fns))
    cache = tmp_path / "cache"
    code = cli.main([cmd[0], "--problem", "osc", f"--eps={eps}", *cmd[1:],
                     "--nsteps", "8,16,32,64", "--cache-dir", str(cache)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: osc: epsilon must be finite, got {float(eps)!r}\n"
    assert forks == [] and not cache.exists()


def test_sweep_binary_scheme_file_exits_runtime(tmp_path, osc_ref, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    code = cli.main(["sweep", "--problem", "osc", "--methods", str(binary),
                     "--nsteps", "8"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


@pytest.mark.parametrize("grid,reason", [
    ("8,4", "strictly increasing"), ("0,8", "must be >= 1"),
    ("8,x", "comma list of integers")])
def test_sweep_bad_nsteps_is_a_usage_error(grid, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--problem", "osc", "--methods", "sm4",
                  "--nsteps", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("cxsplit sweep: error: argument --nsteps:")
    assert reason in last


@pytest.mark.parametrize("methods", ["sm4,", ",sm4", "strang,,sm4"])
def test_sweep_empty_method_name_is_a_usage_error(methods, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--problem", "osc", "--methods", methods, "--nsteps", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last == f"cxsplit sweep: error: argument --methods: empty method name in {methods!r}"


@pytest.mark.parametrize("methods,name", [
    ("sm4,sm4", "sm4"), ("sm4,SM4", "SM4"), ("strang,Strang_BAB,s62,STRANG_bab", "STRANG_bab"),
    ("strang,STRANG", "STRANG"), ("s62,62", "62"), ("(6,2),S62", "S62"),
    ("sm64,SM(6,4)", "SM(6,4)")])
def test_sweep_repeated_method_is_a_usage_error(methods, name, capsys):
    # a name repeats when it runs what an earlier one runs: the same METHODS
    # row, or the same catalog scheme under an alias
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--problem", "osc", "--methods", methods, "--nsteps", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last == (f"cxsplit sweep: error: argument --methods: repeated method {name!r} "
                    f"in {methods!r}")


def test_sweep_aliases_with_commas_are_one_method(osc_ref, capsys):
    # --methods splits on commas outside parentheses; the CSV quotes the names
    assert cli.main(["sweep", "--problem", "osc", "--methods", "SM(6,4),(6,2),strang_bab",
                     "--nsteps", "8"]) == cli.EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[0] for row in rows[1:]] == ["(6,2)", "SM(6,4)", "strang_bab"]
    assert all(len(row) == len(rows[0]) for row in rows)
    same = bench.sweep(bench.SweepSpec("osc", ["s62", "sm64", "strang_bab"], [8]))
    assert [row[5] for row in rows[1:]] == [repr(r.error_l2) for r in same]


def test_sweep_scheme_files_repeat_when_they_hold_the_same_scheme(tmp_path, osc_ref, capsys):
    # a scheme file follows the one repeat rule: it repeats an earlier name
    # that runs the same method, whatever the paths
    lower, upper, copy = tmp_path / "scheme.txt", tmp_path / "SCHEME.txt", tmp_path / "copy.txt"
    lower.write_text(serialize_scheme(builtin_scheme("SM64")))
    upper.write_text(serialize_scheme(builtin_scheme("SM4")))
    copy.write_text(serialize_scheme(builtin_scheme("SM64")))
    assert cli.main(["sweep", "--problem", "osc", "--methods", f"{lower},{upper}",
                     "--nsteps", "8"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sorted(row.split(",")[0] for row in rows) == sorted((str(lower), str(upper)))
    for methods, name in ((f"{lower},{lower}", lower), (f"{lower},{upper},{copy}", copy)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--problem", "osc", "--methods", methods, "--nsteps", "8"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == (f"cxsplit sweep: error: argument --methods: repeated method "
                        f"{str(name)!r} in {methods!r}")


@pytest.mark.parametrize("name", ["my#scheme", "two\nlines", " padded ", "bad\udcffbyte"],
                         ids=["hash", "line-break", "padded", "unencodable"])
def test_design_name_a_scheme_file_cannot_hold_is_one_error_line(name, tmp_path, capsys):
    out = tmp_path / "scheme.txt"
    code = cli.main(["design", "--stages", "6", "--name", name, "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: scheme name {name!r} does not survive a scheme file")
    with pytest.raises(ValidationError):
        serialize_scheme(replace(builtin_scheme("SM4"), name=name))


def test_design_name_round_trips_through_a_file(tmp_path, capsys):
    name = "SM(6,4) re-derived: a=1/6, v2 (\u00e9)"
    out = tmp_path / "scheme.txt"
    assert cli.main(["design", "--stages", "6", "--name", name, "--out", str(out)]) == 0
    assert load_scheme(out.read_text(encoding="utf-8")).name == name
    capsys.readouterr()
    assert cli.main(["validate", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(f"{name}: pattern=BAB stages=6 order=4\n")


def test_sweep_out_writes_an_undecodable_method_name_back_as_its_bytes(tmp_path, osc_ref):
    # In the C locale, argv's UTF-8 bytes reach Python as lone surrogates; stdout
    # prints them back as the bytes given, and so must the --out file.
    name = "sm4-\u0394.txt".encode("utf-8")
    with open(os.path.join(os.fsencode(tmp_path), name), "w", encoding="utf-8") as fh:
        fh.write(serialize_scheme(builtin_scheme("SM4")))
    env = _subprocess_env(LC_ALL="C", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    argv = [sys.executable, "-m", "cxsplit", "sweep", "--problem", "osc",
            "--methods", name, "--nsteps", "8,16"]

    def run(*extra):
        done = subprocess.run([*argv, *extra], cwd=tmp_path, env=env, capture_output=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (cli.EXIT_OK, b"")
        return done.stdout

    printed = run()
    assert run("--out", "x.csv") == b""
    written = (tmp_path / "x.csv").read_bytes()
    assert name in printed and name in written
    assert (_without_wall_time(written.decode("utf-8"))
            == _without_wall_time(printed.decode("utf-8")))


def test_scheme_file_with_a_byte_order_mark_reads_as_the_plain_file(tmp_path, osc_ref,
                                                                    capsys, monkeypatch):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    assert cli.main(["design", "--stages", "6", "--out", str(plain / "s.txt")]) == cli.EXIT_OK
    (marked / "s.txt").write_bytes(b"\xef\xbb\xbf" + (plain / "s.txt").read_bytes())
    capsys.readouterr()

    def outputs(directory):
        # the same relative name in both directories, so the sweep rows name one method
        monkeypatch.chdir(directory)
        assert cli.main(["validate", "s.txt"]) == cli.EXIT_OK
        validated = capsys.readouterr().out
        assert cli.main(["sweep", "--problem", "osc", "--methods", "s.txt,sm4",
                         "--nsteps", "8,16"]) == cli.EXIT_OK
        return validated, _without_wall_time(capsys.readouterr().out)

    assert outputs(marked) == outputs(plain)


@pytest.mark.parametrize("cmd", [["sweep", "--methods", "strang,sm4"],
                                 ["converge", "--method", "sm4"]])
def test_exact_aflow_on_osc_exits_runtime(cmd, osc_ref, capsys):
    code = cli.main([cmd[0], "--problem", "osc", "--aflow", "exact", *cmd[1:],
                     "--nsteps", "8,16,32,64"])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: OscillatorProblem has no exact A-flow "
                            "(use cf2 or cf4)\n")


def test_exact_aflow_on_osc_runs_strang(osc_ref, capsys):
    # strang and ext4 pin their CF2 flow, so --aflow exact never reaches the oscillator
    code = cli.main(["sweep", "--problem", "osc", "--aflow", "exact",
                     "--methods", "strang,ext4", "--nsteps", "8"])
    assert code == cli.EXIT_OK
    exact = _without_wall_time(capsys.readouterr().out)
    cli.main(["sweep", "--problem", "osc", "--methods", "strang,ext4", "--nsteps", "8"])
    assert _without_wall_time(capsys.readouterr().out) == exact


@pytest.mark.parametrize("cmd,err", [
    (["sweep", "--methods", "sm5"], "error: unknown scheme 'sm5'; builtins: "),
    (["converge", "--method", "nope.txt"], "error: unknown scheme 'nope.txt'; builtins: "),
    (["sweep", "--methods", "{dir}"], "error: cannot read {dir}: "),
    (["converge", "--method", "{dir}"], "error: cannot read {dir}: "),
    (["sweep", "--aflow", "exact", "--methods", "strang,sm4"],
     "error: OscillatorProblem has no exact A-flow (use cf2 or cf4)\n"),
    (["converge", "--aflow", "exact", "--method", "sm4"],
     "error: OscillatorProblem has no exact A-flow (use cf2 or cf4)\n")],
    ids=["sweep-unknown", "converge-unknown", "sweep-directory", "converge-directory",
         "sweep-exact-osc", "converge-exact-osc"])
def test_bad_method_or_flow_fails_before_any_reference(cmd, err, tmp_path, capsys):
    # an osc reference takes seconds to build and is cached: a name or A-flow
    # kind that cannot run fails first, and leaves no cache entry
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = [arg.format(dir=tmp_path) for arg in cmd]
    start = time.perf_counter()
    code = cli.main([argv[0], "--problem", "osc", *argv[1:], "--nsteps", "8,16,32,64",
                     "--cache-dir", str(cache)])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(err.format(dir=tmp_path))
    assert list(cache.iterdir()) == []


def test_sweep_overflowing_scheme_fails_rows_not_the_sweep(tmp_path,
                                                          parabolic_ref, capsys):
    # the triple jump's backward flow trips the exponential overflow guard
    # on coarse parabolic steps: those rows fail, the other method's survive
    path = tmp_path / "yoshida.txt"
    path.write_text(yoshida_text())

    def rows(methods):
        code = cli.main(["sweep", "--problem", "parabolic", "--methods", methods,
                         "--nsteps", "2,4,8,16,32,64,128"])
        assert code == cli.EXIT_OK
        return _without_wall_time(capsys.readouterr().out)[1:]

    both = rows(f"sm4,{path}")
    failed = {int(r[2]) for r in both if r[0] == str(path) and r[-1] == "1"}
    assert failed >= {2, 4, 8, 16, 32, 64}
    assert [r for r in both if r[0] == "sm4"] == rows("sm4")


def test_sweep_blown_up_row_is_measured_without_warnings(tmp_path, parabolic_ref,
                                                         capsys):
    # at n = 128 the triple jump passes the overflow guard but ends near
    # 1e210: the row is not failed, and its error is measured, not NaN
    path = tmp_path / "yoshida.txt"
    path.write_text(yoshida_text())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["sweep", "--problem", "parabolic", "--methods", str(path),
                         "--nsteps", "64,128"])
    assert code == cli.EXIT_OK
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[2] == "128" and row[-1] == "0"
    assert math.isfinite(float(row[5])) and float(row[5]) > 1e100


def test_converge_prints_slope(osc_ref, capsys):
    code = cli.main(["converge", "--problem", "osc", "--method", "strang",
                     "--nsteps", "64,128,256,512"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    slope = float(out.split("slope =")[1].split()[0])
    assert slope == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("method", [["--methods", "strang"], ["--method", "strang"]],
                         ids=["sweep", "converge"])
def test_reference_inconsistency_exits_3(method, monkeypatch, capsys):
    def reference_solution(problem, cache_dir=None):
        raise ReferenceInconsistent("the oracles disagree")

    monkeypatch.setattr(bench, "reference_solution", reference_solution)
    cmd = "sweep" if method[0] == "--methods" else "converge"
    code = cli.main([cmd, "--problem", "osc", *method, "--nsteps", "8,16,32,64"])
    assert code == cli.EXIT_REFERENCE == 3
    assert capsys.readouterr() == ("", "reference inconsistency: the oracles disagree\n")


def test_converge_runtime_error_exit(capsys):
    code = cli.main(["converge", "--problem", "osc", "--method", "strang",
                     "--nsteps", "8,16,32"])
    assert code == cli.EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


# cli.main calls and their exits: the returned code, or the SystemExit of a
# usage error.  They hold a usage error from argparse, one raised by a command
# through args.error, and a runtime error.
REUSE_CALLS = [
    (["design", "--stages", "6"], cli.EXIT_OK),
    (["validate", "SM4", "S62", "nope"], cli.EXIT_VALIDATION),
    (["sweep", "--problem", "osc", "--methods", "strang,sm4", "--nsteps", "8,16"],
     cli.EXIT_OK),
    (["design", "--scan", "--a1", "0.3"], SystemExit(2)),
    (["sweep", "--problem", "osc", "--methods", "sm4,", "--nsteps", "8"], SystemExit(2)),
    (["design", "--a1", "0.6"], cli.EXIT_RUNTIME),
    (["design", "--a1", "0.2", "--name", "x"], cli.EXIT_OK),
]


def test_cli_main_reuses_one_parser_with_the_same_output(osc_ref, capsys):
    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = SystemExit(exc.code)
        out, err = capsys.readouterr()
        if argv[0] == "sweep" and not err:
            out = _without_wall_time(out)
        return repr(code), out, err

    cli.build_parser.cache_clear()
    order = [*REUSE_CALLS, *REUSE_CALLS[::-1], *REUSE_CALLS]
    first = {}
    for argv, code in order:
        result = run(argv)
        assert result[0] == repr(code)
        assert result == first.setdefault(tuple(argv), result), argv
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(order) - 1)


def test_importing_cli_builds_no_parser():
    script = """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting_init
        import cxsplit.cli
        print(len(built))
        cxsplit.cli.build_parser()
        first = len(built)
        cxsplit.cli.build_parser()
        print(first, len(built))
    """
    done = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    on_import, after_build = done.stdout.splitlines()
    assert on_import == "0"
    first, second = map(int, after_build.split())
    assert first > 0 and second == first


def _declared_script():
    """The `cxsplit` target declared in `[project.scripts]` of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
        import tomli as tomllib
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["cxsplit"]


def _installed():
    try:
        importlib.metadata.distribution("cxsplit")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_entry_point_installed(monkeypatch):
    entry = importlib.metadata.EntryPoint(
        name="cxsplit", value=_declared_script(), group="console_scripts")
    script_main = entry.load()
    assert script_main is cli.main
    # A generated console script calls main() with no arguments: it must read sys.argv.
    monkeypatch.setattr(sys, "argv", ["cxsplit", "validate", "SM4"])
    assert script_main() == cli.EXIT_OK


@pytest.mark.skipif(not _installed(),
                    reason="cxsplit distribution is not installed")
def test_console_script_on_path():
    installed = importlib.metadata.distribution("cxsplit").entry_points.select(
        group="console_scripts", name="cxsplit")
    assert [ep.load() for ep in installed] == [cli.main]
    script = shutil.which("cxsplit")
    assert script is not None
    done = subprocess.run([script, "validate", "SM4"], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == cli.EXIT_OK, done.stderr
