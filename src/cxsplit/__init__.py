"""Complex-coefficient splitting integrators for non-autonomous separable
evolution equations, with the order-condition algebra to re-derive the
fourth-order schemes and a benchmark harness."""

from .designer import DesignProblem, DesignSolution, scan_a1, solve_b
from .order_conditions import Residuals, residuals
from .problems import (FisherProblem, OscillatorProblem, ParabolicProblem,
                       make_problem, reference_solution)
from .propagators import (CirculantLaplacian, cf2_step, cf4_step, exp_2x2,
                          exp_circulant)
from .schemes import (Scheme, builtin_names, builtin_scheme, expand,
                      load_scheme, resolve_scheme, serialize_scheme,
                      validate_scheme)
from .stepper import (RunRecord, State, StepperConfig, extrapolate, integrate,
                      plan_step)

__version__ = "0.1.0"
