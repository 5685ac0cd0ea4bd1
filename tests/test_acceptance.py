"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v`` (criterion status appears per test) or ``pytest -s``
(explicit CRITERION lines).
"""

import time

import numpy as np
import pytest

from cxsplit import bench
from cxsplit.designer import DesignProblem, scan_a1, solve_b
from cxsplit.order_conditions import residuals
from cxsplit.problems import (REF_AGREE_TOL, _classical_oracle,
                              _splitting_oracle, make_problem)
from cxsplit.propagators import exp_circulant
from cxsplit.schemes import builtin_scheme, expand, validate_scheme
from cxsplit.stepper import StepperConfig, _run_stages, compile_plan

from conftest import dense_expm, dense_laplacian

SM4_A = (0.13505265889288437, 0.36494734110711563)
SM4_B = (0.018329102861074364 - 0.10677008344599524j,
         0.2784394345454581 + 0.20041452008768607j,
         0.40646292518693505 - 0.18728887328338165j)
SM64_B = (0.05753968253968254 - 0.007886748775536424j,
          0.20476190476190473 + 0.04732049265321855j,
          0.16309523809523818 - 0.11830123163304637j,
          0.14920634920634912 + 0.15773497551072851j)


def test_criterion_1_coefficient_fidelity():
    start = time.perf_counter()
    sm4 = builtin_scheme("SM4")
    sm64 = builtin_scheme("SM64")
    assert sm4.a == SM4_A
    assert sm4.b == SM4_B
    assert sm64.a == (1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0)
    assert sm64.b == SM64_B
    for scheme in (sm4, sm64):
        report = validate_scheme(scheme)
        assert abs(report.sum_a - 1.0) < 1e-12
        assert abs(report.sum_b - 1.0) < 1e-12
        assert abs(report.sum_b.imag) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: SM4/SM64 coefficients digit-exact, "
          f"sums within 1e-12 ({elapsed:.2f}s)")


def test_criterion_2_order_condition_zeros():
    start = time.perf_counter()
    for name in ("SM4", "SM64"):
        res = residuals(expand(builtin_scheme(name)))
        assert abs(res.p_aba) < 1e-10, name
        assert abs(res.p_abb) < 1e-10, name
    res62 = residuals(expand(builtin_scheme("S62")))
    assert abs(res62.p_aba) < 1e-12
    assert abs(res62.p_abaaa) < 1e-12
    res64 = residuals(expand(builtin_scheme("SM64")))
    assert abs(res64.p_abaaa) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 2 PASS: order-condition residual zeros at stated "
          f"tolerances ({elapsed:.2f}s)")


def test_criterion_3_designer_reproduction():
    start = time.perf_counter()
    a1_opt, _ = scan_a1(seed=0)
    assert abs(a1_opt - SM4_A[0]) < 1e-6

    sol4 = solve_b(DesignProblem(4, (SM4_A[0],)), seed=0)
    assert np.max(np.abs(np.asarray(sol4.b) - np.asarray(SM4_B))) < 1e-8

    sol6 = solve_b(DesignProblem(6, (1 / 6, 1 / 6, 1 / 6)), seed=0)
    assert np.max(np.abs(np.asarray(sol6.b) - np.asarray(SM64_B))) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"CRITERION 3 PASS: scan a1 within 1e-6, b-vectors within 1e-8 "
          f"({elapsed:.1f}s)")


def test_criterion_4_convergence_orders(osc_ref, osc_ref_eps0, parabolic_ref):
    start = time.perf_counter()
    osc, _ = osc_ref
    osc0, _ = osc_ref_eps0
    par, _ = parabolic_ref

    # (method, problem, dyadic grid, refine, expected slope, half-width)
    cases = [
        ("strang", osc, (64, 128, 256, 512), 16, 2.0, 0.2),
        ("s62", osc, (64, 128, 256, 512), 16, 2.0, 0.2),
        ("sm4", osc, (64, 128, 256, 512), 16, 4.0, 0.3),
        ("sm64", osc, (128, 256, 512), 16, 4.0, 0.3),
        ("strang", par, (32, 64, 128, 256), 16, 2.0, 0.2),
        ("s62", par, (8, 16, 32, 64), 16, 2.0, 0.2),
        ("sm4", par, (8, 16, 32, 64), 16, 4.0, 0.3),
        ("sm64", par, (12, 24, 48), 32, 4.0, 0.3),
        ("cf4", osc0, (64, 128, 256, 512), 16, 4.0, 0.2),
        ("ext4", osc, (64, 128, 256, 512), 16, 4.0, 0.3),
    ]
    lines = []
    for method, problem, grid, refine, target, width in cases:
        slope, _ = bench.self_converge(problem, method, grid, refine=refine)
        lines.append(f"{method}@{problem.key()}={slope:.2f}")
        assert abs(slope - target) < width, (method, problem.key(), slope)

    # LiteralLeft freezing: slope recorded, no threshold
    literal_slope, _ = bench.self_converge(osc, "ext4", (64, 128, 256, 512),
                                           freeze_convention="literal")
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(f"CRITERION 4 PASS: slopes {' '.join(lines)}; ext4-literal slope "
          f"{literal_slope:.2f} (recorded) ({elapsed:.1f}s)")


def test_criterion_5_efficiency_reproduction(osc_ref, osc_ref_eps01,
                                             parabolic_ref, fisher_ref):
    start = time.perf_counter()
    # equal-cost points: n_steps chosen so a_flow_evals match per problem
    plans = {
        "osc": (("strang", 1536), ("s62", 512), ("ext4", 512),
                ("sm4", 384), ("sm64", 256)),
        "pde": (("strang", 192), ("s62", 64), ("ext4", 64),
                ("sm4", 48), ("sm64", 32)),
    }
    fixtures = [(osc_ref, "osc"), (parabolic_ref, "pde"), (fisher_ref, "pde")]
    for (problem, reference), plan_key in fixtures:
        errors, costs = {}, {}
        for method, n_steps in plans[plan_key]:
            record = bench.run_point(problem, method, n_steps, reference,
                                     bench.resolve_method(method, problem))
            errors[method] = record.error_l2
            costs[method] = record.a_flow_evals
        assert len(set(costs.values())) == 1, costs
        for complex_method in ("sm4", "sm64"):
            for real_method in ("strang", "s62", "ext4"):
                assert errors[complex_method] < errors[real_method], \
                    (problem.key(), complex_method, real_method, errors)

    # effective-order effect: (6,2) gains on SM4 at coarse h as eps shrinks
    ratios = {}
    for (problem, reference) in (osc_ref, osc_ref_eps01):
        e62, e4 = (bench.run_point(problem, name, 64, reference,
                                   bench.resolve_method(name, problem)).error_l2
                   for name in ("s62", "sm4"))
        ratios[problem.epsilon] = e62 / e4
    assert ratios[0.1] < ratios[0.25]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"CRITERION 5 PASS: SM4/SM64 strictly best at equal cost on all "
          f"examples; s62/sm4 coarse-h ratio {ratios[0.25]:.3f} -> "
          f"{ratios[0.1]:.3f} as eps 1/4 -> 1/10 ({elapsed:.1f}s)")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    problem = make_problem("parabolic", n_grid=8)
    scheme = builtin_scheme("SM4")
    h = 0.1
    cfg = StepperConfig(scheme=scheme, a_flow_kind="cf4")
    stepped = _run_stages(compile_plan(cfg, problem), problem, 0.0, problem.u0(), h, None)

    lap = dense_laplacian(problem.lap)
    u = problem.u0().copy()
    offsets = (0.5 - np.sqrt(3) / 6.0, 0.5 + np.sqrt(3) / 6.0)
    for stage in expand(scheme):
        if stage.role == "B":
            u = problem.b_kick(stage.c0.real * h, stage.coeff * h, u)
        else:
            t0, dur = stage.c0.real * h, stage.coeff.real * h
            coeff = 0.5 * sum(problem.alpha(t0 + off * dur) ** 2
                              for off in offsets)
            u = dense_expm(dur * coeff * lap) @ u
    assert np.max(np.abs(stepped - u)) < 1e-12

    rng = np.random.default_rng(7)
    state = rng.standard_normal(8)
    tau = 0.01 + 0.004j
    spectral = exp_circulant(problem.lap, tau, state)
    dense = dense_expm(tau * lap) @ state
    assert np.max(np.abs(spectral - dense)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 6 PASS: SM4 step and exp_circulant match dense "
          f"brute force to 1e-12 at N=8 ({elapsed:.2f}s)")


def test_criterion_7_reference_integrity():
    gaps = {}
    for name in ("osc", "parabolic", "fisher"):
        problem = make_problem(name)
        gap = float(np.linalg.norm(_splitting_oracle(problem)
                                   - _classical_oracle(problem)))
        gaps[name] = gap
        assert gap <= REF_AGREE_TOL, (name, gap)
    print("CRITERION 7 PASS: oracle agreement "
          + " ".join(f"{k}={v:.2e}" for k, v in gaps.items()))


def test_criterion_8_stability_realness(parabolic_ref):
    for name in ("SM4", "SM64"):
        report = validate_scheme(builtin_scheme(name))
        assert report.min_re_b > 0.0, name

    # full parabolic sweep, coarse through fine h: any realness violation
    # raises, and every error must be a finite number
    spec = bench.SweepSpec(problem="parabolic",
                           methods=["strang", "s62", "ext4", "sm4", "sm64"],
                           n_steps_grid=[2, 4, 8, 16, 32, 64, 128])
    records = bench.sweep(spec)
    assert all(not r.failed for r in records)
    assert all(np.isfinite(r.error_l2) for r in records)
    print("CRITERION 8 PASS: min Re(b) > 0 for complex builtins; "
          f"{len(records)} parabolic sweep points NaN-free, no realness "
          "violation raised")
