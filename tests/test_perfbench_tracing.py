"""Smoke test of the benchmark's per-layer tracer (perfbench/tracing.py).

The tracer wraps cxsplit functions and problem methods by name, so a rename
in the package silently empties its metrics; this runs it for a few steps.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from cxsplit import problems, schemes, stepper

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every attribute of the cxsplit modules and problem classes, by identity."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "cxsplit" or name.startswith("cxsplit.")]
    owners += [cls for p in tracing.PROBLEMS
               for cls in type(problems.make_problem(p)).__mro__ if cls is not object]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_counts_sm4_steps_and_restores_every_patch():
    tracing = _load_tracing()
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        cfg = stepper.StepperConfig(scheme=schemes.builtin_scheme("SM4"))
        for name in ("osc", "parabolic"):
            problem = problems.make_problem(name)
            stepper.integrate(cfg, problem, problem.u0(), 0.0, 0.1, 4)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert patched
    for name in ("stepper.steps", "stepper.a_flow_evals", "stepper.kernel_evals",
                 "propagators.exp_2x2.calls", "propagators.exp_circulant.calls",
                 "problems.osc.a_frozen_exp.calls", "problems.parabolic.b_kick.calls"):
        assert metrics[name][0] > 0, name
    assert metrics["stepper.steps"][0] == 8
    assert np.isfinite(metrics["stepper.us_per_step"][0])
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
