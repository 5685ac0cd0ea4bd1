import numpy as np
import pytest

from cxsplit import bench
from cxsplit.errors import InsufficientData, NotInCatalog
from cxsplit.problems import make_problem
from cxsplit.schemes import serialize_scheme, builtin_scheme
from cxsplit.stepper import RunRecord, State

from conftest import yoshida_text


@pytest.mark.parametrize("name,stages", sorted(bench.METHOD_STAGES.items()))
def test_resolve_method_stage_counts(name, stages):
    # the count does not depend on the problem or the flow kind
    problem = make_problem("parabolic")
    fn = bench.resolve_method(name, a_flow_kind="cf2")
    assert callable(fn)
    record = RunRecord()
    fn(problem, State(problem.u0(), 0.0), 0.01, record)
    assert record.a_flow_evals == stages


@pytest.mark.parametrize("name", sorted(bench.METHOD_STAGES))
def test_method_stages_count_one_step(name):
    problem = make_problem("osc")
    fn = bench.resolve_method(name)
    record = RunRecord()
    fn(problem, State(problem.u0(), 0.0), 0.1, record)
    assert record.a_flow_evals == bench.METHOD_STAGES[name]


def test_resolve_method_from_file(tmp_path):
    path = tmp_path / "s62.txt"
    path.write_text(serialize_scheme(builtin_scheme("S62")))
    fn = bench.resolve_method(str(path))
    problem = make_problem("osc")
    record = RunRecord()
    fn(problem, State(problem.u0(), 0.0), 0.1, record)
    assert record.a_flow_evals == 3


def test_resolve_method_unknown():
    with pytest.raises(NotInCatalog):
        bench.resolve_method("no-such-scheme")


def test_sweep_spec_rejects_unordered_grid():
    with pytest.raises(ValueError):
        bench.SweepSpec(problem="osc", methods=["strang"], n_steps_grid=[8, 4])
    with pytest.raises(ValueError):
        bench.SweepSpec(problem="osc", methods=["strang"], n_steps_grid=[4, 4])


def test_run_point_records_error_and_cost(osc_ref):
    problem, reference = osc_ref
    record = bench.run_point(problem, "sm4", 16, reference)
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
    record = bench.run_point(problem, method, 4, np.zeros(2))
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


def test_write_csv(tmp_path, osc_ref):
    problem, reference = osc_ref
    records = [bench.run_point(problem, "strang", 8, reference)]
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
