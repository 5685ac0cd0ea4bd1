import importlib.metadata
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import NON_FINITE_TEXTS, near_tolerance_sm64_text, yoshida_text
from cxsplit import bench, cli, designer, problems
from cxsplit.errors import CxsplitError, DesignScanUnreliable
from cxsplit.schemes import load_scheme

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_validate_builtins_ok(capsys):
    assert cli.main(["validate", "SM4", "SM64", "S62"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "SM4: pattern=BAB stages=4 order=4" in out
    assert "sum_a = 1" in out
    assert "min_re_b" in out
    assert "p_abaaa" in out


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
# the odd moment sum b_i c_i is 0.5137, not 1/2, so it is not symmetric.
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
    path = tmp_path / "nonsym.txt"
    path.write_text(NON_SYMMETRIC_TEXT)
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "nonsym: pattern=BAB stages=3 order=4"
    assert out.splitlines()[-1] == ("  not symmetric: p_aba, p_abb and p_abaaa are "
                                    "conditions of symmetric schemes and are not checked")
    assert "p_aba =" not in out


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
    assert captured.err.startswith("error: a 4- or 6-stage design needs")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flags,arg", [
    (["--stages", "6", "--a", "1/0,1/6,1/6"], "--a"), (["--a", "x"], "--a"),
    (["--scan", "--grid-points", "-1"], "--grid-points"),
    (["--scan", "--grid-points", "x"], "--grid-points"),
    (["--stages", "6", "--scan"], "--scan"),
    (["--a1", "0.2", "--grid-points", "5"], "--grid-points")],
    ids=["a-zero-denominator", "a-not-a-number", "grid-points-negative",
         "grid-points-not-an-integer", "scan-six-stages", "grid-points-without-scan"])
def test_design_bad_arguments_are_usage_errors(flags, arg, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("usage: cxsplit design")
    assert err.strip().splitlines()[-1].startswith(f"cxsplit design: error: argument {arg}: ")


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
    ["design", "--a1", "0.13505265889288437"],
    ["sweep", "--problem", "osc", "--methods", "strang", "--nsteps", "8"]],
    ids=["design", "sweep"])
def test_out_in_a_missing_directory_is_one_error_line(cmd, tmp_path, osc_ref, capsys,
                                                     monkeypatch):
    swept = []
    real_sweep = bench.sweep
    monkeypatch.setattr(bench, "sweep", lambda spec: swept.append(spec) or real_sweep(spec))
    out = tmp_path / "missing" / "out.txt"
    assert cli.main([*cmd, "--out", str(out)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert len(err.splitlines()) == 1
    assert swept == []                   # the sweep fails before any point runs


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
    # strang pins its CF2 flow, so --aflow exact never reaches the oscillator
    code = cli.main(["sweep", "--problem", "osc", "--aflow", "exact",
                     "--methods", "strang", "--nsteps", "8"])
    assert code == cli.EXIT_OK
    default = capsys.readouterr().out.splitlines()[1].split(",")[5]
    cli.main(["sweep", "--problem", "osc", "--methods", "strang", "--nsteps", "8"])
    assert capsys.readouterr().out.splitlines()[1].split(",")[5] == default


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
        lines = capsys.readouterr().out.splitlines()[1:]
        # drop wall_time
        return [line.split(",")[:6] + line.split(",")[7:] for line in lines]

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


def test_converge_runtime_error_exit(capsys):
    code = cli.main(["converge", "--problem", "osc", "--method", "strang",
                     "--nsteps", "8,16,32"])
    assert code == cli.EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


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
