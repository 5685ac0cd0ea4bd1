"""Per-layer tracing from outside the package.

Wraps the public functions of each cxsplit module (cli, bench, stepper,
propagators, problems, schemes, order_conditions, designer) for one traced
pass and turns the aggregates into the per-layer metrics.  Kernels are
imported by name across modules (``problems.exp_circulant``,
``designer.order_polys``, ``stepper.expand``), so every module attribute
bound to a wrapped function is replaced, not only the defining one.

Spans are aggregated in memory, per name: calls, inclusive seconds, seconds
inside traced callees, and seconds inside the problem kernels below the
span.  Self times include the timer cost of the child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from cxsplit import (bench, cli, designer, order_conditions, problems,
                     propagators, schemes, stepper)

PROBLEMS = ("osc", "parabolic", "fisher")
# The problem methods that stepper time is measured against: the A-flow
# kernels and the B-kick.  Their time is not stage-loop overhead.
KERNEL_METHODS = ("a_frozen_exp", "b_kick", "a_exact_flow")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)    # inclusive seconds
        self.child = defaultdict(float)    # seconds inside traced callees
        self.kernel = defaultdict(float)   # seconds inside problem kernels
        self.counts = defaultdict(float)   # read from arguments and results
        self.oracles = {}                  # last split and RK4 oracle states
        self._stack = []                   # [name, child s, kernel s] per open span
        self._undo = []

    def wrap(self, fn, name_of, is_kernel=False, observe=None):
        stack, perf_counter = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name_of(args) if callable(name_of) else name_of, 0.0, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:   # recorded for the observer, re-raised
                exc = err
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                name = frame[0]
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[1]
                self.kernel[name] += frame[2]
                if stack:
                    stack[-1][1] += elapsed
                    stack[-1][2] += elapsed if is_kernel else frame[2]
                if observe is not None:
                    observe(args, kwargs, result, exc, elapsed)
        return traced

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def patch_function(self, module, attr, name, observe=None):
        """Replace every cxsplit module attribute bound to module.attr."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, observe=observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cxsplit" and not mod_name.startswith("cxsplit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, owner, attr, name_of, is_kernel):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name_of, is_kernel=is_kernel))
        self._undo.append((owner, attr, original))

    def install(self):
        self._solve_b_signature = inspect.signature(designer.solve_b)
        self.patch_function(cli, "main", "cli.main")
        self.patch_function(bench, "run_point", "bench.run_point",
                            self._observe_run_point)
        self.patch_function(stepper, "integrate_with", "stepper.integrate_with",
                            self._observe_integrate_with)
        self.patch_function(stepper, "integrate", "stepper.integrate",
                            self._observe_integrate)
        self.patch_function(propagators, "exp_circulant", "propagators.exp_circulant")
        self.patch_function(propagators, "exp_2x2", "propagators.exp_2x2")
        self.patch_function(problems, "rk4_integrate", "problems.rk4_integrate",
                            self._observe_rk4)
        self.patch_function(problems, "reference_solution",
                            "problems.reference_solution", self._observe_reference)
        self.patch_function(schemes, "expand", "schemes.expand")
        self.patch_function(order_conditions, "order_polys",
                            "order_conditions.order_polys")
        self.patch_function(order_conditions, "order_poly_jacobian",
                            "order_conditions.order_poly_jacobian")
        self.patch_function(designer, "solve_b", "designer.solve_b",
                            self._observe_solve_b)
        self._patch_problem_classes()

    def _patch_problem_classes(self):
        key_of = {type(problems.make_problem(p)): p for p in PROBLEMS}
        done = set()
        for cls in key_of:
            for attr in KERNEL_METHODS + ("rhs",):
                owner = next((c for c in cls.__mro__ if attr in c.__dict__), None)
                if owner is None or (owner, attr) in done:
                    continue
                done.add((owner, attr))
                if attr == "rhs":
                    self.patch_method(owner, attr, "problems.rhs", False)
                else:
                    self.patch_method(
                        owner, attr,
                        lambda args, attr=attr: f"problems.{key_of[type(args[0])]}.{attr}",
                        True)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- observers: counts read from arguments and return values ----------

    def _observe_run_point(self, args, kwargs, record, exc, elapsed):
        if exc is not None or record.failed:
            self.counts["bench.run_point.failed"] += 1

    def _observe_integrate_with(self, args, kwargs, result, exc, elapsed):
        if result is not None:
            record = result[1]
            self.counts["stepper.steps"] += record.n_steps
            self.counts["stepper.a_flow_evals"] += record.a_flow_evals
            self.counts["stepper.kernel_evals"] += record.kernel_evals

    def _observe_integrate(self, args, kwargs, result, exc, elapsed):
        if result is not None and self.inside("problems.reference_solution"):
            self.oracles["split"] = np.asarray(result[0].values).real
            self.counts["problems.split_oracle.s"] += elapsed

    def _observe_rk4(self, args, kwargs, result, exc, elapsed):
        if result is not None and self.inside("problems.reference_solution"):
            self.oracles["rk4"] = np.asarray(result, dtype=float)

    def _observe_reference(self, args, kwargs, result, exc, elapsed):
        # a reference call that ran no oracle was served from the cache
        if self.oracles:
            self.counts["problems.reference_solution.cache_misses"] += 1
            if len(self.oracles) == 2:
                gap = float(np.linalg.norm(self.oracles["split"] - self.oracles["rk4"]))
                self.counts["problems.oracle_gap"] = gap
            self.oracles.clear()
        else:
            self.counts["problems.reference_solution.cache_hits"] += 1

    def _observe_solve_b(self, args, kwargs, result, exc, elapsed):
        call = self._solve_b_signature.bind(*args, **kwargs)
        call.apply_defaults()
        self.counts["designer.newton_starts"] += call.arguments["starts"]
        roots = result.all_solutions if result is not None else getattr(exc, "solutions", ())
        self.counts["designer.roots"] += len(roots)

    # -- per-layer metrics --------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the traced pass: name -> (value, unit)."""
        out = {}

        def per_call(name, scale, suffix, unit, total=None):
            calls = self.calls[name]
            secs = self.total[name] if total is None else total
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.{suffix}"] = (secs / calls * scale if calls else 0.0, unit)

        per_call("cli.main", 1.0, "s_per_call", "s")
        out["bench.run_point.calls"] = (self.calls["bench.run_point"], "count")
        out["bench.run_point.failed"] = (int(self.counts["bench.run_point.failed"]), "count")

        steps = int(self.counts["stepper.steps"])
        step_s = self.total["stepper.integrate_with"]
        overhead_s = step_s - self.kernel["stepper.integrate_with"]
        out["stepper.steps"] = (steps, "count")
        out["stepper.a_flow_evals"] = (int(self.counts["stepper.a_flow_evals"]), "count")
        out["stepper.kernel_evals"] = (int(self.counts["stepper.kernel_evals"]), "count")
        out["stepper.us_per_step"] = (step_s / steps * 1e6 if steps else 0.0, "us")
        out["stepper.overhead_us_per_step"] = (
            overhead_s / steps * 1e6 if steps else 0.0, "us")
        out["stepper.overhead_frac"] = (overhead_s / step_s if step_s else 0.0, "ratio")

        per_call("propagators.exp_circulant", 1e6, "us_per_call", "us")
        per_call("propagators.exp_2x2", 1e6, "us_per_call", "us")
        for p in PROBLEMS:
            name = f"problems.{p}.a_frozen_exp"
            per_call(name, 1e6, "self_us_per_call", "us",
                     self.total[name] - self.child[name])
            per_call(f"problems.{p}.b_kick", 1e6, "us_per_call", "us")
        per_call("problems.rhs", 1e6, "us_per_call", "us")
        out["problems.rk4_integrate.s"] = (self.total["problems.rk4_integrate"], "s")
        out["problems.split_oracle.s"] = (self.counts["problems.split_oracle.s"], "s")
        out["problems.reference_solution.s"] = (
            self.total["problems.reference_solution"], "s")
        for kind in ("cache_hits", "cache_misses"):
            key = f"problems.reference_solution.{kind}"
            out[key] = (int(self.counts[key]), "count")
        gap = self.counts["problems.oracle_gap"]
        out["problems.oracle_gap"] = (gap, "norm")
        out["problems.oracle_gap_margin"] = (
            problems.REF_AGREE_TOL / gap if gap else 0.0, "ratio")

        per_call("schemes.expand", 1e6, "us_per_call", "us")
        per_call("order_conditions.order_polys", 1e6, "us_per_call", "us")
        per_call("order_conditions.order_poly_jacobian", 1e6, "us_per_call", "us")
        per_call("designer.solve_b", 1e3, "ms_per_call", "ms")
        solves = self.calls["designer.solve_b"]
        starts = self.counts["designer.newton_starts"]
        out["designer.newton_evals_per_solve"] = (
            self.calls["order_conditions.order_polys"] / solves if solves else 0.0,
            "count")
        out["designer.roots_per_start"] = (
            self.counts["designer.roots"] / starts if starts else 0.0, "ratio")
        return out
