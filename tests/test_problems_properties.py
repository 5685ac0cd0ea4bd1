"""Property test: the oscillator's kernels on a float pair are the real parts
of the same call on the complex pair, bit for bit."""

import math

import numpy as np
import pytest

from cxsplit.problems import OscillatorProblem
from cxsplit.propagators import CF4_ALPHA, CF4_BETA, exp_2x2

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

settings = hypothesis.settings(database=None, derandomize=True, deadline=None,
                               max_examples=300)
real = st.floats(allow_nan=False, allow_infinity=False)
#: the kernel weights of a CF2 flow, the two CF4 calls and the fused CF4 call
WEIGHTS = ((1.0,), (CF4_BETA, CF4_ALPHA), (CF4_ALPHA, CF4_BETA), (0.5, 0.5))


def outcome(kernel, *args):
    """kernel(*args), or the type of the error it raises."""
    try:
        out = kernel(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return out


def assert_real_part(kernel, args, q, p):
    """kernel on (q, p) hands back floats equal to the real parts of it on the complex pair."""
    got, ref = outcome(kernel, *args, (q, p)), outcome(kernel, *args, (complex(q), complex(p)))
    if isinstance(ref, type):
        assert got is ref       # both raise the same error
        return
    assert all(type(x) is float for x in got)
    assert all(z.imag == 0.0 or not math.isfinite(z.real) for z in ref)
    assert np.array(got).tobytes() == np.array([z.real for z in ref]).tobytes()


@settings
@hypothesis.given(q=real, p=real, omega_sq=real, tau=real)
def test_exp_2x2_on_floats_is_the_real_part(q, p, omega_sq, tau):
    assert_real_part(exp_2x2, (omega_sq, tau), q, p)


@settings
@hypothesis.given(q=real, p=real, t=real, dt=real, duration=real,
                  weights=st.sampled_from(WEIGHTS))
def test_a_frozen_exp_on_floats_is_the_real_part(q, p, t, dt, duration, weights):
    times = (t, t + dt)[:len(weights)]
    assert_real_part(OscillatorProblem().a_frozen_exp, (times, weights, duration), q, p)


@settings
@hypothesis.given(q=real, p=real, t=real, tau=real, epsilon=real)
def test_b_kick_on_floats_is_the_real_part(q, p, t, tau, epsilon):
    assert_real_part(OscillatorProblem(epsilon=epsilon).b_kick, (t, tau), q, p)
