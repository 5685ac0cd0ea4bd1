import os
import time
from pathlib import Path

import numpy as np
import pytest

from cxsplit import bench, cli, stepper
from cxsplit.errors import (CxsplitError, InsufficientData, NotInCatalog, ParseError,
                            ValidationError)
from cxsplit.problems import make_problem
from cxsplit.schemes import serialize_scheme, builtin_scheme
from cxsplit.stepper import RunRecord

from conftest import assert_no_child_left, kick, yoshida_text


@pytest.mark.parametrize("name,stages", sorted(bench.METHOD_STAGES.items()))
def test_resolve_method_stage_counts(name, stages):
    # the count does not depend on the problem or the flow kind
    problem = make_problem("parabolic")
    fn = bench.resolve_method(name, problem, a_flow_kind="cf2")
    assert callable(fn)
    record = RunRecord()
    fn(problem.u0(), 0.0, 0.01, record)
    assert record.a_flow_evals == stages


@pytest.mark.parametrize("name", sorted(bench.METHOD_STAGES))
def test_method_stages_count_one_step(name):
    problem = make_problem("osc")
    fn = bench.resolve_method(name, problem)
    record = RunRecord()
    fn(problem.u0(), 0.0, 0.1, record)
    assert record.a_flow_evals == bench.METHOD_STAGES[name]


def test_resolve_method_from_file(tmp_path):
    path = tmp_path / "s62.txt"
    path.write_text(serialize_scheme(builtin_scheme("S62")))
    problem = make_problem("osc")
    fn = bench.resolve_method(str(path), problem)
    record = RunRecord()
    fn(problem.u0(), 0.0, 0.1, record)
    assert record.a_flow_evals == 3


def test_resolve_method_unknown():
    with pytest.raises(NotInCatalog):
        bench.resolve_method("no-such-scheme", make_problem("osc"))


def test_sweep_spec_rejects_unordered_grid():
    with pytest.raises(ValueError):
        bench.SweepSpec(problem="osc", methods=["strang"], n_steps_grid=[8, 4])
    with pytest.raises(ValueError):
        bench.SweepSpec(problem="osc", methods=["strang"], n_steps_grid=[4, 4])


@pytest.mark.parametrize("grid", [[8], (8, 16, 32), [1, 2]])
def test_check_step_grid_accepts_increasing_counts(grid):
    assert bench.check_step_grid(grid) is grid


@pytest.mark.parametrize("grid,reason", [
    ([0, 8], "must be >= 1"), ([-4, 8], "must be >= 1"),
    ([8, 4], "strictly increasing"), ([4, 4], "strictly increasing")])
def test_bad_step_grid_fails_before_any_reference(monkeypatch, grid, reason):
    builds = []
    monkeypatch.setattr(bench, "reference_solution", lambda *a, **kw: builds.append(a))
    with pytest.raises(ValueError, match=reason):
        bench.sweep(bench.SweepSpec("parabolic", ["sm4"], grid))
    assert builds == []


@pytest.mark.parametrize("methods,grid,reason", [
    (["sm4"], [], "no step counts"), ([], [8], "no methods")])
def test_spec_without_rows_fails_before_any_reference(monkeypatch, methods, grid, reason):
    builds = []
    monkeypatch.setattr(bench, "reference_solution", lambda *a, **kw: builds.append(a))
    with pytest.raises(ValueError, match=reason):
        bench.sweep(bench.SweepSpec("parabolic", methods, grid))
    assert builds == []


@pytest.mark.parametrize("grid", [[0, 8, 16], [16, 8, 32]])
def test_self_converge_checks_the_grid_before_its_fine_run(monkeypatch, grid):
    runs = []
    monkeypatch.setattr(bench, "integrate_with", lambda *a: runs.append(a))
    with pytest.raises(ValueError, match="step counts must be"):
        bench.self_converge(make_problem("osc"), "strang", grid)
    assert runs == []


def test_run_point_records_error_and_cost(osc_ref):
    problem, reference = osc_ref
    record = bench.run_point(problem, "sm4", 16, reference, bench.resolve_method("sm4", problem))
    assert record.method == "sm4"
    assert record.n_steps == 16
    assert record.a_flow_evals == 64
    assert np.isfinite(record.error_l2) and record.error_l2 > 0.0
    assert not record.failed


@pytest.mark.parametrize("q0,p0", [(np.inf, 1.0), (0.0, 1e308j)],
                         ids=["inf", "huge-imag"])
@pytest.mark.parametrize("method", ["sm4", "strang", "ext4"])
def test_run_point_marks_non_finite_osc_failed(method, q0, p0):
    problem = make_problem("osc", q0=q0, p0=p0)
    record = bench.run_point(problem, method, 4, np.zeros(2),
                             bench.resolve_method(method, problem))
    assert record.failed
    assert (record.method, record.n_steps) == (method, 4)


def test_error_norm_rescales_only_when_the_plain_norm_overflows():
    x = np.array([3.0, -4.0, 1e-3])
    assert bench._norm(x) == np.linalg.norm(x)
    assert bench._norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)


def test_sweep_rows_sorted_and_csv_shape(osc_ref):
    spec = bench.SweepSpec(problem="osc", methods=["s62", "strang"],
                           n_steps_grid=[8, 16])
    records = bench.sweep(spec)
    keys = [(r.method, r.n_steps) for r in records]
    assert keys == sorted(keys)
    text = bench.records_to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == bench.CSV_HEADER
    assert len(lines) == 5
    assert all(len(line.split(",")) == 8 for line in lines)


@pytest.fixture
def cores(monkeypatch):
    """Returns use(count), which sets the usable cores to `count`.

    use() returns the list of child counts, one per `run_forked` call of a sweep.
    """
    forks = []
    real = bench.run_forked

    def spy(what, parent_fn, *child_fns):
        forks.append(len(child_fns))
        return real(what, parent_fn, *child_fns)
    monkeypatch.setattr(bench, "run_forked", spy)

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return forks
    return use


def _rows_but_wall_time(records):
    return [line.split(",")[:6] + line.split(",")[7:]
            for line in bench.records_to_csv(records).splitlines()]


@pytest.mark.parametrize("problem", ["osc", "parabolic"])
def test_sweep_rows_do_not_depend_on_the_core_count(request, tmp_path, cores, problem):
    # on parabolic the triple jump's coarse rows fail; a scheme file's
    # points are costed by its own stages when the points are split
    request.getfixturevalue(f"{problem}_ref")
    path = tmp_path / "scheme.txt"
    path.write_text(yoshida_text() if problem == "parabolic"
                    else serialize_scheme(builtin_scheme("S62")))
    spec = bench.SweepSpec(problem, ["s62", "strang", str(path), "ext4"], [2, 4, 8, 16, 32])
    forks = cores(2)
    split = bench.sweep(spec)
    cores(1)
    whole = bench.sweep(spec)
    assert forks == [1, 0]
    assert _rows_but_wall_time(split) == _rows_but_wall_time(whole)
    assert any(r.failed for r in split) == (problem == "parabolic")
    assert_no_child_left()


@pytest.fixture
def resolutions(monkeypatch):
    """Returns count(path), the reads of the file at `path` and the calls of
    `expand` (one per step built) since the fixture was set up."""
    reads, expands = [], []
    read_text, expand = Path.read_text, stepper.expand

    def spy_read(self, *args, **kwargs):
        reads.append(str(self))
        return read_text(self, *args, **kwargs)

    def spy_expand(scheme):
        expands.append(scheme)
        return expand(scheme)
    monkeypatch.setattr(Path, "read_text", spy_read)
    monkeypatch.setattr(stepper, "expand", spy_expand)
    return lambda path: (reads.count(str(path)), len(expands))


def test_a_sweep_resolves_each_method_once(tmp_path, osc_ref, cores, resolutions, capsys):
    # the CLI's repeat check and the sweep share one resolution of each name,
    # made before the reference: one read of the file, one expand per method
    # for 3 methods x 4 points, in this process
    path = tmp_path / "s62.txt"
    path.write_text(serialize_scheme(builtin_scheme("S62")))
    cores(1)
    assert cli.main(["sweep", "--problem", "osc", "--methods", f"strang,{path},ext4",
                     "--nsteps", "8,16,32,64"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 4
    assert resolutions(path) == (1, 3)


@pytest.mark.parametrize("methods", [["sm4"], ["strang", "ext4", "sm4", "cf4"]])
def test_a_sweep_compiles_one_plan_per_method(osc_ref, cores, monkeypatch, methods):
    # each step is compiled for the sweep's problem alone, before the points
    # are dealt to the shares' processes: k methods, k plans
    compiles, compile_stages = [], stepper.compile_stages

    def counting(*args):
        compiles.append(args)
        return compile_stages(*args)
    monkeypatch.setattr(stepper, "compile_stages", counting)
    cores(2)
    records = bench.sweep(bench.SweepSpec("osc", methods, [8, 16]))
    assert len(records) == 2 * len(methods)
    assert len(compiles) == len(methods)


def test_an_a_flow_the_problem_lacks_fails_at_compile_time(monkeypatch):
    # the oscillator has no exact flow: making the step raises, and no
    # kernel half of the problem has run
    problem = make_problem("osc")
    calls = []
    for name in ("a_frozen_coeffs", "b_kick_coeffs", "a_frozen_exp", "b_kick"):
        kernel = getattr(type(problem), name)

        def counted(*args, kernel=kernel):
            calls.append(kernel.__name__)
            return kernel(*args)
        monkeypatch.setattr(type(problem), name, counted)
    kick(problem, 0.0, 0.1, problem.u0())
    assert calls == ["b_kick_coeffs", "b_kick"]
    with pytest.raises(ValidationError) as info:
        bench.resolve_method("sm4", problem, "exact")
    assert str(info.value) == "OscillatorProblem has no exact A-flow (use cf2 or cf4)"
    assert calls == ["b_kick_coeffs", "b_kick"]


def test_self_converge_resolves_its_method_once(tmp_path, resolutions):
    path = tmp_path / "s62.txt"
    path.write_text(serialize_scheme(builtin_scheme("S62")))
    _, errors = bench.self_converge(make_problem("osc"), str(path), [8, 16, 32, 64], refine=2)
    assert len(errors) == 4
    assert resolutions(path) == (1, 1)


def test_single_point_sweep_starts_no_child(osc_ref, cores):
    forks = cores(2)
    [record] = bench.sweep(bench.SweepSpec("osc", ["sm4"], [8]))
    assert forks == [0] and record.n_steps == 8


def _priced(*points):
    """(method, n_steps, cost) of each (method, n_steps), as a sweep prices its points."""
    return [(name, n, n * bench.stages(bench.method(name))) for name, n in points]


def test_shares_deal_points_largest_first(tmp_path):
    # costs 1536, 600, 64 and 8 A-flow stages: the SM64 file costs its own
    # 6 stages a step, as the builtin does
    path = str(tmp_path / "scheme.txt")
    Path(path).write_text(serialize_scheme(builtin_scheme("SM64")))
    points = _priced(("strang", 8), ("SM4", 16), ("sm64", 256), (path, 100))
    assert [p[2] for p in points] == [8, 64, 1536, 600]
    assert bench._shares(points, 2) == [[("sm64", 256, 1536)],
                                        [(path, 100, 600), ("SM4", 16, 64), ("strang", 8, 8)]]
    assert bench._shares(points, 1) == [[("sm64", 256, 1536), (path, 100, 600),
                                         ("SM4", 16, 64), ("strang", 8, 8)]]


def test_shares_price_a_catalog_alias_by_what_it_runs():
    # SM(6,4) runs SM64: 6 stages a step, 6144 in all, against 3072 + 1024
    points = _priced(("SM(6,4)", 1024), ("strang", 1024), ("s62", 1024))
    assert bench._shares(points, 2) == [[("SM(6,4)", 1024, 6144)],
                                        [("s62", 1024, 3072), ("strang", 1024, 1024)]]


@pytest.mark.parametrize("name", sorted(bench.METHODS))
def test_method_stages_are_the_stages_of_the_resolved_row(name):
    assert bench.method(name) is bench.METHODS[name]
    assert bench.method(name.upper()) is bench.METHODS[name]
    assert bench.METHOD_STAGES[name] == bench.stages(bench.method(name))


@pytest.fixture
def fake_points(monkeypatch, cores):
    """Returns install(fake), which replaces `run_point` by a call of
    fake(method, n_steps, in_child) that returns an empty record.

    The reference is all zeros and 2 cores are usable.
    """
    monkeypatch.setattr(bench, "reference_solution", lambda problem, cache_dir=None:
                        np.zeros(problem.dim))
    cores(2)
    parent = os.getpid()

    def install(fake):
        def run_point(problem, method, n_steps, *args):
            fake(method, n_steps, os.getpid() != parent)
            return RunRecord(method=method, n_steps=n_steps)
        monkeypatch.setattr(bench, "run_point", run_point)
    return install


SHARED_SPEC = bench.SweepSpec("osc", ["strang", "sm4"], [8, 16, 32])


def test_error_in_a_child_share_reaches_the_caller(fake_points, cores):
    # the first child's error is raised, and the second child, still
    # running, is killed
    cores(3)
    _, first_child, second_child = bench._shares(
        _priced(*((m, n) for m in SHARED_SPEC.methods for n in SHARED_SPEC.n_steps_grid)), 3)

    def fake(method, n_steps, in_child):
        if (method, n_steps) == first_child[-1][:2]:
            assert in_child
            raise ParseError("bad row", line_no=7)
        if (method, n_steps) in [point[:2] for point in second_child]:
            time.sleep(60)
    fake_points(fake)
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        bench.sweep(SHARED_SPEC)
    assert time.perf_counter() - start < 30
    assert type(info.value) is ParseError
    assert str(info.value) == "line 7: bad row" and info.value.line_no == 7
    assert_no_child_left()


def test_interrupt_in_the_parent_share_kills_the_child(fake_points):
    def fake(method, n_steps, in_child):
        if not in_child:
            raise KeyboardInterrupt
        time.sleep(60)
    fake_points(fake)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        bench.sweep(SHARED_SPEC)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_child_share_process_dying_is_a_cxsplit_error(fake_points, capsys):
    def fake(method, n_steps, in_child):
        if in_child:
            os._exit(1)
    fake_points(fake)
    with pytest.raises(CxsplitError, match=r"without a result \(exit code 1\)") as info:
        bench.sweep(SHARED_SPEC)
    assert type(info.value) is CxsplitError
    assert str(info.value) == ("osc: a sweep share's process ended without a result "
                               "(exit code 1)")
    code = cli.main(["sweep", "--problem", "osc", "--methods", "strang,sm4",
                     "--nsteps", "8,16,32"])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"
    assert_no_child_left()


def test_write_csv(tmp_path, osc_ref):
    problem, reference = osc_ref
    records = [bench.run_point(problem, "strang", 8, reference,
                               bench.resolve_method("strang", problem))]
    out = tmp_path / "sweep.csv"
    bench.write_csv(records, out)
    assert out.read_text().startswith(bench.CSV_HEADER)


def test_fit_order_recovers_known_slope():
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    errors = 3.0 * h ** 4
    slope, resid = bench.fit_order(h, errors)
    assert slope == pytest.approx(4.0, abs=1e-12)
    assert resid < 1e-12


def test_fit_order_excludes_noise_floor():
    h = [0.1, 0.05, 0.025, 0.0125]
    errors = [1e-3, 1e-5, 5e-9, 4e-9]       # last two under the 1e-8 floor
    with pytest.raises(InsufficientData):
        bench.fit_order(h, errors)


def test_fit_order_skips_nan():
    h = [0.1, 0.05, 0.025, 0.0125]
    errors = [1e-2, 1e-3, float("nan"), 1e-5]
    slope, _ = bench.fit_order(h, errors)
    assert np.isfinite(slope)


def test_converge_needs_four_points():
    with pytest.raises(InsufficientData):
        bench.converge(bench.SweepSpec("osc", ["strang"], [8, 16, 32]))


def test_converge_needs_one_method():
    with pytest.raises(ValueError, match="exactly one method"):
        bench.converge(bench.SweepSpec("osc", ["strang", "sm4"], [8, 16, 32, 64]))


def test_converge_strang_on_oscillator(osc_ref):
    spec = bench.SweepSpec("osc", ["strang"], [64, 128, 256, 512])
    slope, resid, records = bench.converge(spec)
    assert slope == pytest.approx(2.0, abs=0.2)
    assert len(records) == 4
    # the fit is over the sweep's own records
    assert [r.error_l2 for r in records] == [r.error_l2 for r in bench.sweep(spec)]
    assert (slope, resid) == bench.fit_order([r.h for r in records],
                                             [r.error_l2 for r in records])


def test_self_converge_needs_three_points(osc_ref):
    problem, _ = osc_ref
    with pytest.raises(InsufficientData):
        bench.self_converge(problem, "strang", [8, 16])


def test_self_converge_skips_failed_points(tmp_path):
    # the triple jump's backward flow blows up the coarse parabolic steps;
    # those points fail with a NaN error and the fit runs on the rest
    path = tmp_path / "yoshida.txt"
    path.write_text(yoshida_text())
    problem = make_problem("parabolic")
    slope, errors = bench.self_converge(problem, str(path),
                                        [16, 32, 256, 512, 1024], refine=2)
    assert np.isnan(errors[:2]).all() and np.isfinite(errors[2:]).all()
    assert slope == pytest.approx(4.0, abs=0.3)
    assert slope == bench.fit_order([1.0 / n for n in (256, 512, 1024)],
                                    errors[2:], floor=0.0)[0]
