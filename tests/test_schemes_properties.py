"""Property test of the stage count and symmetry expansion over random BAB and ABA schemes."""

import pytest

from cxsplit.schemes import Scheme, builtin_names, builtin_scheme, expand

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def schemes(draw):
    pattern = draw(st.sampled_from(("BAB", "ABA")))
    stages = draw(st.integers(min_value=0, max_value=12))
    symmetric = draw(st.booleans())
    n_a, n_b = (stages, stages + 1) if pattern == "BAB" else (stages + 1, stages)

    def reduced(n):
        size = (n + 1) // 2 if symmetric else n
        return tuple(draw(st.lists(coeff, min_size=size, max_size=size)))

    return stages, Scheme("random", pattern, reduced(n_a), reduced(n_b), 2, symmetric)


def reference_expansion(reduced, n, symmetric):
    """Index by index: position i of a symmetric sequence holds reduced[min(i, n-1-i)]."""
    if not symmetric:
        return tuple(reduced)
    return tuple(reduced[min(i, n - 1 - i)] for i in range(n))


def check_expansion(scheme):
    a, b = scheme.expanded_a(), scheme.expanded_b()
    assert a == reference_expansion(scheme.a, scheme.n_a, scheme.symmetric)
    assert b == reference_expansion(scheme.b, scheme.n_b, scheme.symmetric)
    if scheme.symmetric:
        assert a == a[::-1] and b == b[::-1]

    stages = expand(scheme)
    roles = "BA" if scheme.pattern == "BAB" else "AB"
    assert [s.role for s in stages] == [roles[i % 2] for i in range(len(a) + len(b))]
    assert [s.coeff for s in stages if s.role == "A"] == [complex(x) for x in a]
    assert [s.coeff for s in stages if s.role == "B"] == [complex(x) for x in b]
    # each stage starts at the sum of the flows before it, summed from 0 in order
    node = 0.0 + 0.0j
    for s in stages:
        assert s.c0 == node
        if s.role == "A":
            node += s.coeff


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(schemes())
def test_expand_matches_the_index_formula(drawn):
    stages, scheme = drawn
    assert scheme.stages == stages
    check_expansion(scheme)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_expansion_matches_the_index_formula(name):
    check_expansion(builtin_scheme(name))
