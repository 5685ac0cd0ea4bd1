import math
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from cxsplit import cli
from cxsplit.errors import (CxsplitError, DesignScanUnreliable, InsufficientData,
                            InvalidSequence, NoSolutionFound, NoStableSolution,
                            NotInCatalog, ParseError, RealTimeViolation,
                            ReferenceInconsistent, StepFailed, StepTooLarge,
                            ValidationError)
from cxsplit.problems import (KICK_FACTORS_KEPT, REF_AGREE_TOL, REF_HEADER,
                              REF_MAGIC, REF_OSC_RK4_STEPS, REF_PDE_RK4_MIN_STEPS,
                              REF_VERSION, TWO_PI, FisherProblem,
                              OscillatorProblem, ParabolicProblem, _cache_path,
                              _classical_oracle, _read_cache, _rk4_osc, _write_cache,
                              default_cache_dir, make_problem, reference_solution,
                              rk4_integrate)
from cxsplit.propagators import (CF4_ALPHA, CF4_BETA, exact_step, exp_2x2,
                                 exp_circulant)

from conftest import assert_no_child_left, dense_expm


def test_make_problem_dispatch():
    assert isinstance(make_problem("osc"), OscillatorProblem)
    assert isinstance(make_problem("parabolic"), ParabolicProblem)
    assert isinstance(make_problem("fisher"), FisherProblem)
    with pytest.raises(ValueError):
        make_problem("heat")


def test_oscillator_rhs_splits_into_parts():
    problem = make_problem("osc")
    u = np.array([0.7, -0.4])
    t = 1.3
    rhs = problem.rhs(t, u)
    assert rhs[0] == pytest.approx(u[1])
    kick_only = problem.b_kick(t, 1.0, u.astype(complex))
    frozen_force = (kick_only[1] - u[1]).real        # -eps * sum sin(...)
    assert rhs[1] == pytest.approx(
        -problem.big_omega(t) ** 2 * u[0] + frozen_force)


def test_oscillator_frozen_exp_is_exact_for_constant_omega():
    problem = make_problem("osc")
    w = problem.big_omega(0.7)
    u = problem.a_frozen_exp((0.7,), (1.0,), 0.2, np.array([1.0, 0.0 + 0j]))
    assert u[0].real == pytest.approx(math.cos(0.2 * w))
    assert u[1].real == pytest.approx(-w * math.sin(0.2 * w))


def _dense_a(problem, t):
    """A(t) as a dense matrix: the generator that a_frozen_exp exponentiates."""
    if isinstance(problem, OscillatorProblem):
        return np.array([[0.0, 1.0], [-problem.big_omega(t) ** 2, 0.0]])
    return problem.alpha(t) ** 2 * problem.lap.dense()


@pytest.mark.parametrize("name", ["osc", "parabolic", "fisher"])
def test_a_frozen_exp_exponentiates_the_weighted_generator(name):
    # the protocol: exp(duration * sum_i w_i A(t_i)), whatever sum_i w_i is
    problem = make_problem(name) if name == "osc" else make_problem(name, n_grid=16)
    rng = np.random.default_rng(11)
    for weights in ((1.0, 1.0), (0.3, 0.9, -0.4), (2.5,), (1.0, -1.0)):
        times = tuple(rng.uniform(0.0, TWO_PI, len(weights)))
        u = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        generator = sum(w * _dense_a(problem, t) for t, w in zip(times, weights))
        expect = dense_expm(0.05 * generator) @ u
        got = np.asarray(problem.a_frozen_exp(times, weights, 0.05, u), dtype=complex)
        assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


def _numpy_a_frozen_exp(problem, times, weights, duration, state):
    """The osc A-kernel on numpy complex scalars: the reference for a_frozen_exp."""
    omega_sq = sum(w * problem.big_omega(t) ** 2 for t, w in zip(times, weights))
    q, p = exp_2x2(omega_sq, duration, (state[0], state[1]))
    return np.array([q, p], dtype=complex)


def _numpy_b_kick(problem, t_frozen, tau, state):
    """The osc B-kick on numpy complex scalars and np.sin: the reference for b_kick."""
    q, p = state[0], state[1]
    kick = sum(np.sin(q - w * t_frozen) for w in problem.omega_j)
    return np.array([q, p - tau * problem.epsilon * kick], dtype=complex)


def test_osc_kernels_match_numpy_formulas():
    # Bitwise equal on x86-64 with glibc (200k random calls checked); the
    # bound leaves room for a last-bit difference between cmath.sin and
    # np.sin, or CPython's and numpy's complex arithmetic, elsewhere.
    problem = make_problem("osc")
    rng = np.random.default_rng(20)
    rules = ((1.0,), (CF4_BETA, CF4_ALPHA), (CF4_ALPHA, CF4_BETA), (0.5, 0.5))
    worst = 0.0
    for _ in range(300):
        state = rng.uniform(-12.0, 12.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        t = rng.uniform(0.0, TWO_PI)
        weights = rules[rng.integers(len(rules))]
        times = tuple(t + 0.2 * rng.uniform(size=len(weights)))
        duration = rng.uniform(-0.2, 0.2)
        tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        expect_a = _numpy_a_frozen_exp(problem, times, weights, duration, state)
        expect_b = _numpy_b_kick(problem, t, tau, state)
        for given in (state, tuple(map(complex, state))):
            got_a = problem.a_frozen_exp(times, weights, duration, given)
            got_b = problem.b_kick(t, tau, given)
            for got, expect in ((got_a, expect_a), (got_b, expect_b)):
                assert type(got) is tuple and len(got) == 2
                assert all(type(x) is complex for x in got)
                err = np.max(np.abs(np.array(got) - expect))
                worst = max(worst, err / max(1.0, np.max(np.abs(expect))))
    assert worst <= 1e-15


def test_parabolic_kick_is_pointwise_exponential():
    problem = make_problem("parabolic")
    u = problem.u0()
    tau = 0.02 - 0.01j
    kicked = problem.b_kick(0.4, tau, u)
    assert np.allclose(kicked, u * np.exp(tau * problem.potential(0.4)))


@pytest.mark.parametrize("tau", [0.013, -0.004, 0.02 - 0.01j, 0.005 + 0.003j])
def test_parabolic_factored_kick_matches_the_pointwise_exponential(tau):
    # exp(tau V) as exp(0.3 tau (1 - e^-t)) * exp(0.1 tau sin(2 pi x)), the
    # second factor kept per tau: within 1e-14 of the one-exponential kick
    problem = make_problem("parabolic")
    rng = np.random.default_rng(4)
    for t in (0.0, 0.37, 1.0, 0.37):
        u = rng.standard_normal(problem.n_grid) + 1j * rng.standard_normal(problem.n_grid)
        expect = u * np.exp(tau * problem.potential(t))
        got = problem.b_kick(t, tau, u)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-14


def test_parabolic_kick_factors_are_per_problem():
    # sin(2 pi x) depends on n_grid: a factor kept by one grid must not serve another
    coarse, fine = make_problem("parabolic", n_grid=8), make_problem("parabolic", n_grid=12)
    for problem in (coarse, fine, coarse):
        u = problem.u0()
        expect = u * np.exp(0.25 * problem.potential(0.5))
        assert np.allclose(problem.b_kick(0.5, 0.25, u), expect, rtol=1e-14, atol=0.0)


def test_parabolic_kick_factors_stay_bounded():
    # a run whose h changes every step must not keep one factor per kick
    problem = make_problem("parabolic", n_grid=8)
    u = problem.u0()
    for k in range(5 * KICK_FACTORS_KEPT):
        problem.b_kick(0.5, 1e-3 * (k + 1), u)
        assert len(problem._kick_factors) <= KICK_FACTORS_KEPT


def test_parabolic_potential_matches_closed_form_bitwise():
    problem = make_problem("parabolic")
    for t in (0.0, 0.4, 1.0):
        direct = 0.1 * (3.0 * (1.0 - math.exp(-t)) + np.sin(TWO_PI * problem.x))
        assert np.array_equal(problem.potential(t), direct)


def test_parabolic_apply_laplacian_matches_dense():
    problem = make_problem("parabolic", n_grid=12)
    u = np.cos(2.0 * np.pi * problem.x)
    assert np.allclose(problem.apply_laplacian(u), problem.lap.dense() @ u)


def test_parabolic_exact_flow_matches_quadrature_limit():
    problem = make_problem("parabolic", n_grid=16)
    u = problem.u0()
    out = exact_step(0.1, 0.2, u, problem.a_frozen_exp, commuting=True, node=0.5)
    # brute-force Riemann integral of alpha^2
    s = np.linspace(0.1, 0.3, 20001)
    integral = np.trapezoid([problem.alpha(t) ** 2 for t in s], s)
    ref = exp_circulant(problem.lap, integral, u)
    assert np.max(np.abs(out - ref)) < 1e-10


def _quadrature_exact_flow(problem, t0, h, state):
    """exp(int_t0^{t0+h} alpha(s)^2 ds * Lap) by 20-point Gauss-Legendre.

    The closed formula of the exact flow: the reference for exact_step.
    """
    nodes, wts = np.polynomial.legendre.leggauss(20)
    s = t0 + 0.5 * h * (nodes + 1.0)
    integral = 0.5 * h * sum(w * problem.alpha(t) ** 2 for t, w in zip(s, wts))
    return exp_circulant(problem.lap, integral, state)


@pytest.mark.parametrize("name", ["parabolic", "fisher"])
def test_exact_step_equals_the_quadrature_formula_bitwise(name):
    problem = make_problem(name)
    rng = np.random.default_rng(9)
    for _ in range(200):
        t0, h = rng.uniform(0.0, 1.0), rng.uniform(-0.05, 0.25)
        u = rng.standard_normal(problem.n_grid) + 1j * rng.standard_normal(problem.n_grid)
        got = exact_step(t0, h, u, problem.a_frozen_exp, commuting=True, node=0.5)
        assert got.tobytes() == _quadrature_exact_flow(problem, t0, h, u).tobytes()


def test_fisher_kick_logistic_properties():
    problem = make_problem("fisher")
    ones = np.ones(problem.n_grid, dtype=complex)
    # u = 0 and u = 1 are fixed points of the logistic reaction
    assert np.allclose(problem.b_kick(0.5, 0.3, 0.0 * ones), 0.0)
    assert np.allclose(problem.b_kick(0.5, 0.3, ones), 1.0)
    # gamma > 0 grows states below the carrying capacity
    half = 0.5 * ones
    assert np.all(problem.b_kick(0.5, 1.0, half).real > 0.5)


def test_fisher_kick_singular_denominator_raises():
    problem = make_problem("fisher")
    grow = math.exp(problem.gamma(0.0) * 1.0)
    bad = np.full(problem.n_grid, -1.0 / (grow - 1.0), dtype=complex)
    with pytest.raises(StepFailed):
        problem.b_kick(0.0, 1.0, bad)


@pytest.mark.parametrize("gap,fails", [(0.9e-12, True), (1.1e-12, False)])
def test_fisher_kick_guard_threshold(gap, fails):
    # one entry puts |1 + u (grow - 1)| at `gap`: the step fails at or below 1e-12
    problem = make_problem("fisher")
    tau = 0.7
    grow = math.exp(problem.gamma(0.2) * tau)
    u = np.full(problem.n_grid, 0.5, dtype=complex)
    u[3] = (gap - 1.0) / (grow - 1.0)
    assert abs(1.0 + u[3] * (grow - 1.0)) == pytest.approx(gap, rel=1e-3)
    if fails:
        with pytest.raises(StepFailed, match="singular logistic denominator"):
            problem.b_kick(0.2, tau, u)
    else:
        assert np.all(np.isfinite(problem.b_kick(0.2, tau, u)))
    # a NaN entry neither masks a singular entry nor counts as one itself
    u[7] = complex(math.nan, 0.0)
    if fails:
        with pytest.raises(StepFailed, match="singular logistic denominator"):
            problem.b_kick(0.2, tau, u)
    else:
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(problem.b_kick(0.2, tau, u)))


def test_fisher_zero_reaction_reduces_to_diffusion():
    problem = make_problem("fisher")
    problem.gamma = lambda t: 0.0
    u = problem.u0()
    assert np.allclose(problem.b_kick(0.3, 0.7, u), u)


def test_rk4_is_fourth_order_on_scalar():
    rhs = lambda t, u: np.atleast_1d(-2.0 * t * u)
    exact = math.exp(-1.0)
    errs = [abs(rk4_integrate(rhs, np.array([1.0]), 0.0, 1.0, n)[0] - exact)
            for n in (10, 20)]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.2)


@pytest.mark.parametrize("epsilon", [0.25, 0.1, 0.0])
def test_rk4_float_pair_matches_array_loop(epsilon):
    # the (q, p) float loop with the rhs written out is the osc classical
    # oracle; the array loop on the numpy rhs is its reference, bitwise
    # where math.sin and np.sin agree (as on x86-64 with glibc and numpy 2.4)
    problem = make_problem("osc", epsilon=epsilon)
    u0 = problem.u0().real.astype(float)
    args = (problem.t0, problem.tf, 2 ** 12)
    pair = _rk4_osc(epsilon, *map(float, u0), *args)
    array = rk4_integrate(problem.rhs, u0, *args)
    assert isinstance(pair, tuple) and all(type(x) is float for x in pair)
    assert np.array(pair).tobytes() == array.tobytes()


@pytest.mark.parametrize("name,params", [("osc", {}), ("parabolic", {"n_grid": 8}),
                                         ("fisher", {"n_grid": 8})])
def test_classical_oracle_picks_the_loop(monkeypatch, name, params):
    # the osc oracle runs the float loop, the PDE oracles the array loop on
    # their rhs; either way the value is the array loop's, bit for bit
    import cxsplit.problems as mod
    problem = make_problem(name, **params)
    problem.rk4_steps = 2 ** 12 if name == "osc" else 64
    array = rk4_integrate(problem.rhs, problem.u0().real, problem.t0, problem.tf,
                          problem.rk4_steps)
    calls = []
    monkeypatch.setattr(mod, "rk4_integrate",
                        lambda *args: calls.append(args) or rk4_integrate(*args))
    value = _classical_oracle(problem)
    assert value.dtype == np.float64 and value.shape == (problem.dim,)
    assert value.tobytes() == array.tobytes()
    assert len(calls) == (name != "osc")


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_osc_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValidationError, match="osc: epsilon must be finite"):
        make_problem("osc", epsilon=epsilon)


def test_stiff_rk4_steps_scales_with_grid():
    coarse = make_problem("parabolic", n_grid=100)
    fine = make_problem("parabolic", n_grid=200)
    assert fine.rk4_steps == pytest.approx(4 * coarse.rk4_steps, rel=0.05)
    # coarse grids hit the accuracy floor instead of the stability bound
    assert make_problem("parabolic", n_grid=8).rk4_steps == REF_PDE_RK4_MIN_STEPS


@pytest.mark.parametrize("name,params,cache_file", [
    ("osc", {}, "osc_8fd223ae5041c9c6.ref"),
    ("osc", {"epsilon": 0.1}, "osc_5e2de432060c1063.ref"),
    ("osc", {"epsilon": 0.0}, "osc_67c2f18f1aac0d2f.ref"),
    ("parabolic", {}, "parabolic_c32372d88c413cf3.ref"),
    ("parabolic", {"n_grid": 8}, "parabolic_4cda38c28a085d6f.ref"),
    ("fisher", {}, "fisher_65a8cea540c67f5b.ref"),
])
def test_cache_file_names_are_pinned(tmp_path, name, params, cache_file):
    # a new cache key orphans every cached reference: change these pins on purpose
    assert _cache_path(make_problem(name, **params), tmp_path)[0].name == cache_file


def test_cache_round_trip(tmp_path):
    problem = make_problem("parabolic", n_grid=8)
    path, digest = _cache_path(problem, tmp_path)
    values = np.linspace(0.0, 1.0, 8)
    _write_cache(path, digest, values, 3.25e-12, 14.5)
    cached, gap, build_s = _read_cache(path, digest, problem.dim)
    assert cached.tobytes() == values.tobytes()
    assert (gap, build_s) == (3.25e-12, 14.5)
    blob = path.read_bytes()
    assert len(blob) == REF_HEADER.size + 8 * problem.dim
    # a truncated or overlong payload is a miss, not a short reference
    path.write_bytes(blob[:-8])
    assert _read_cache(path, digest, problem.dim) is None
    path.write_bytes(blob + blob[-8:])
    assert _read_cache(path, digest, problem.dim) is None
    # corrupted magic is rejected, not trusted
    path.write_bytes(b"XXXXXXXX" + blob[8:])
    assert _read_cache(path, digest, problem.dim) is None


@pytest.fixture
def stub_oracles(monkeypatch, tmp_path_factory):
    """Installs cheap stand-ins for both reference oracles; returns their call count.

    The split stand-in is linspace(0, 1, dim).  The classical one differs from
    it by `gap` in the first entry, where the split value is 0.0, so the oracle
    gap is exactly `gap`.  `split` or `classical`, if given, runs first in its
    stand-in.  The classical oracle runs in a forked child, so each call
    appends a line to a log file outside the cache directory: a list in
    memory would lose the child's calls.
    """
    import cxsplit.problems as mod

    def install(gap=0.0, split=None, classical=None):
        log = tmp_path_factory.mktemp("oracle-calls") / "calls.log"
        log.touch()

        def stub(name, hook, first):
            def oracle(p):
                with log.open("a") as fh:
                    fh.write(f"{name}\n")
                if hook is not None:
                    hook()
                u = np.linspace(0.0, 1.0, p.dim)
                u[0] = first
                return u
            return oracle
        monkeypatch.setattr(mod, "_splitting_oracle", stub("split", split, 0.0))
        monkeypatch.setattr(mod, "_classical_oracle", stub("classical", classical, gap))
        return lambda: len(log.read_text().splitlines())
    return install


def test_truncated_cache_entry_is_rebuilt(tmp_path, stub_oracles):
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles()
    ref = reference_solution(problem, cache_dir=tmp_path)
    path, _ = _cache_path(problem, tmp_path)
    path.write_bytes(path.read_bytes()[:-16])
    assert np.array_equal(reference_solution(problem, cache_dir=tmp_path), ref)
    assert builds() == 4                         # built, then rebuilt
    assert len(path.read_bytes()) == REF_HEADER.size + 8 * problem.dim


def test_cache_entry_of_an_older_version_is_rebuilt(tmp_path, stub_oracles):
    # the version-1 layout: magic, key digest, payload; never read as valid
    problem = make_problem("parabolic", n_grid=8)
    path, digest = _cache_path(problem, tmp_path)
    stale = np.full(problem.dim, 7.0)
    path.write_bytes(REF_MAGIC + digest.encode() + stale.astype("<f8").tobytes())
    assert _read_cache(path, digest, problem.dim) is None
    builds = stub_oracles()
    ref = reference_solution(problem, cache_dir=tmp_path)
    assert builds() == 2
    assert np.array_equal(ref, np.linspace(0.0, 1.0, problem.dim))
    assert REF_HEADER.unpack_from(path.read_bytes())[1] == REF_VERSION
    # an entry of any other version is a miss too
    blob = bytearray(path.read_bytes())
    blob[8:16] = (REF_VERSION + 1).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    assert _read_cache(path, digest, problem.dim) is None


def test_cache_header_keeps_the_oracle_gap_and_build_seconds(tmp_path, stub_oracles):
    problem = make_problem("parabolic", n_grid=8)
    stub_oracles(gap=4.5e-11, split=lambda: time.sleep(0.05))
    start = time.perf_counter()
    reference_solution(problem, cache_dir=tmp_path)
    elapsed = time.perf_counter() - start
    path, digest = _cache_path(problem, tmp_path)
    _, gap, build_s = _read_cache(path, digest, problem.dim)
    assert gap == 4.5e-11
    assert 0.05 <= build_s <= elapsed


def test_session_reference_cache_is_repo_local(repo_local_reference_cache):
    # tests/conftest.py keeps every reference of the suite out of ~/.cache
    assert default_cache_dir() == repo_local_reference_cache
    assert Path(__file__).resolve().parent.parent in repo_local_reference_cache.parents


def test_reference_solution_caches(tmp_path, stub_oracles):
    # the real oracles are covered by the session fixtures and by
    # test_acceptance.py::test_criterion_7_reference_integrity
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles()
    ref1 = reference_solution(problem, cache_dir=tmp_path)
    path, _ = _cache_path(problem, tmp_path)
    assert path.exists()
    assert path.read_bytes()[:8] == REF_MAGIC
    before = path.stat().st_mtime_ns
    ref2 = reference_solution(problem, cache_dir=tmp_path)
    assert path.stat().st_mtime_ns == before       # served from cache
    assert builds() == 2                           # both oracles ran once
    assert np.array_equal(ref1, ref2)


def test_unwritable_cache_fails_before_the_oracles(tmp_path, stub_oracles):
    # the tests run as root, so an unwritable mode cannot be tested; a cache
    # directory under a regular file cannot be created by anyone
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles()
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        reference_solution(problem, cache_dir=tmp_path / "file" / "cache")
    assert builds() == 0


def test_reference_inconsistency_is_fatal(tmp_path, stub_oracles):
    problem = make_problem("parabolic", n_grid=8)
    # The classical values cross from the child bit for bit: a gap one ulp
    # above the tolerance fails, and the tolerance itself passes, which it
    # would not if any other entry had moved.
    for gap in (1.01 * REF_AGREE_TOL, math.nextafter(REF_AGREE_TOL, math.inf)):
        stub_oracles(gap=gap)
        with pytest.raises(ReferenceInconsistent):
            reference_solution(problem, cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())        # nothing cached
    for gap, cache_dir in ((0.99 * REF_AGREE_TOL, tmp_path / "below"),
                           (REF_AGREE_TOL, tmp_path / "at")):
        stub_oracles(gap=gap)
        ref = reference_solution(problem, cache_dir=cache_dir)
        assert np.array_equal(ref, np.linspace(0.0, 1.0, problem.dim))
        assert _cache_path(problem, cache_dir)[0].exists()


def test_nan_oracle_gap_is_fatal(tmp_path, stub_oracles):
    # NaN compares false with everything: the check must not read it as agreement
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles(gap=math.nan)
    with pytest.raises(ReferenceInconsistent, match="nan"):
        reference_solution(problem, cache_dir=tmp_path)
    assert builds() == 2                          # both oracles ran
    assert not any(tmp_path.iterdir())            # nothing cached


def test_default_params_match_benchmarks():
    osc = make_problem("osc")
    assert osc.epsilon == 0.25 and osc.p0 == 11.2075
    assert osc.omega_j == (7.0, 14.0, 21.0)
    assert (osc.t0, osc.tf) == (0.0, TWO_PI)
    assert osc.rk4_steps == REF_OSC_RK4_STEPS == 2 ** 20
    par = make_problem("parabolic")
    assert par.n_grid == 100 and par.alpha(0.0) == pytest.approx(0.25 + 1 / 6)
    assert (par.mu, par.w, par.t0, par.tf) == (1.0 / 6.0, 2.0, 0.0, 1.0)
    assert par.rk4_steps == 6945
    assert make_problem("parabolic", n_grid=8).rk4_steps == 4096
    fisher = make_problem("fisher")
    assert fisher.gamma(0.0) == pytest.approx(0.01)
    assert (fisher.mu, fisher.w, fisher.beta) == (1.0 / 6.0, 2.0, 1.0)
    assert (fisher.t0, fisher.tf) == (0.0, 1.0)


def test_classical_oracle_error_is_raised_in_the_parent(tmp_path, stub_oracles):
    def fail():
        raise StepFailed("x", stage=3)
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles(classical=fail)
    with pytest.raises(StepFailed) as info:
        reference_solution(problem, cache_dir=tmp_path)
    assert type(info.value) is StepFailed
    assert str(info.value) == "stage 3: x" and info.value.stage == 3
    assert builds() == 2
    assert not any(tmp_path.iterdir())            # nothing cached
    assert_no_child_left()


def test_classical_oracle_process_dying_is_a_cxsplit_error(tmp_path, stub_oracles,
                                                           capsys):
    problem = make_problem("parabolic", n_grid=8)
    stub_oracles(classical=lambda: os._exit(1))
    with pytest.raises(CxsplitError, match=r"without a result \(exit code 1\)") as info:
        reference_solution(problem, cache_dir=tmp_path)
    assert type(info.value) is CxsplitError
    assert not any(tmp_path.iterdir())
    code = cli.main(["sweep", "--problem", "parabolic", "--methods", "strang",
                     "--nsteps", "4",
                     "--cache-dir", str(tmp_path)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: parabolic: the classical oracle's process")
    assert_no_child_left()


@pytest.mark.parametrize("exc", [StepFailed("x", stage=1), KeyboardInterrupt()],
                         ids=["StepFailed", "KeyboardInterrupt"])
def test_splitting_oracle_failure_leaves_no_child(tmp_path, stub_oracles, exc):
    def fail():
        raise exc
    problem = make_problem("parabolic", n_grid=8)
    # the child would outlive the parent's failure without the kill
    stub_oracles(split=fail, classical=lambda: time.sleep(60))
    start = time.perf_counter()
    with pytest.raises(type(exc)):
        reference_solution(problem, cache_dir=tmp_path)
    assert time.perf_counter() - start < 30
    assert_no_child_left()
    assert not any(tmp_path.iterdir())


# one instance of every typed error, with the attributes it carries
TYPED_ERRORS = [
    (StepFailed("x", stage=3), {"stage": 3}),
    (StepTooLarge("overflow", stage=2), {"stage": 2}),
    (ParseError("bad row", line_no=7), {"line_no": 7}),
    (NoStableSolution("unstable", solutions=[[1 + 2j, 0.5]]),
     {"solutions": [[1 + 2j, 0.5]]}),
] + [(cls("msg"), {}) for cls in (CxsplitError, NotInCatalog, ValidationError,
                                   InvalidSequence, NoSolutionFound,
                                   DesignScanUnreliable, ReferenceInconsistent,
                                   InsufficientData, RealTimeViolation)]


@pytest.mark.parametrize("error, attrs", TYPED_ERRORS,
                         ids=[type(error).__name__ for error, _ in TYPED_ERRORS])
def test_typed_errors_survive_pickle(error, attrs):
    # the classical oracle's process sends its exception back by pickle
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name, value in attrs.items():
        assert getattr(copy, name) == value


def test_every_typed_error_is_pickle_tested():
    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))
    assert subclasses(CxsplitError) == {type(error) for error, _ in TYPED_ERRORS}
