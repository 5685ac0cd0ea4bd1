"""Property tests of the count rule and symmetry expansion over random BAB and ABA schemes."""

import pytest

from cxsplit.errors import ValidationError
from cxsplit.schemes import Scheme, builtin_names, builtin_scheme, expand

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
BUILTIN_STAGES = {"STRANG_BAB": 1, "STRANG_ABA": 1, "S62": 3, "SM4": 4, "SM64": 6}


def expanded_counts(pattern, stages):
    """(a, b) lengths of m stages: m A-flows of BAB or m B-kicks of ABA, 2m + 1 in all."""
    return (stages, stages + 1) if pattern == "BAB" else (stages + 1, stages)


def stored_counts(pattern, symmetric, stages):
    """(a, b) values a Scheme of m stages stores: all, or each kind's first half if symmetric."""
    n_a, n_b = expanded_counts(pattern, stages)
    return ((n_a + 1) // 2, (n_b + 1) // 2) if symmetric else (n_a, n_b)


@st.composite
def schemes(draw):
    pattern = draw(st.sampled_from(("BAB", "ABA")))
    stages = draw(st.integers(min_value=0, max_value=12))
    symmetric = draw(st.booleans())
    a, b = (tuple(draw(st.lists(coeff, min_size=size, max_size=size)))
            for size in stored_counts(pattern, symmetric, stages))
    return stages, Scheme("random", pattern, a, b, 2, symmetric)


def reference_expansion(reduced, n, symmetric):
    """Index by index: position i of a symmetric sequence holds reduced[min(i, n-1-i)]."""
    if not symmetric:
        return tuple(reduced)
    return tuple(reduced[min(i, n - 1 - i)] for i in range(n))


def check_expansion(scheme, stages):
    """Check scheme's expansion against the lengths that its stage count gives."""
    n_a, n_b = expanded_counts(scheme.pattern, stages)
    a, b = scheme.expanded_a(), scheme.expanded_b()
    assert a == reference_expansion(scheme.a, n_a, scheme.symmetric)
    assert b == reference_expansion(scheme.b, n_b, scheme.symmetric)
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
    check_expansion(scheme, stages)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_expansion_matches_the_index_formula(name):
    assert builtin_scheme(name).stages == BUILTIN_STAGES[name]
    check_expansion(builtin_scheme(name), BUILTIN_STAGES[name])


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("pattern", ["BAB", "ABA"])
def test_scheme_accepts_exactly_the_counts_of_a_stage_count(pattern, symmetric):
    # 0 to 12 values of each kind fit m stages for at most one m <= 24
    fits = {stored_counts(pattern, symmetric, m): m for m in range(25)}
    assert len(fits) == 25
    for n_a in range(13):
        for n_b in range(13):
            a, b = (0.5,) * n_a, (0.25 - 0.5j,) * n_b
            if (n_a, n_b) in fits:
                scheme = Scheme("counted", pattern, a, b, 2, symmetric)
                assert scheme.stages == fits[n_a, n_b]
                assert len(expand(scheme)) == 2 * scheme.stages + 1
                continue
            kind = "symmetric " if symmetric else ""
            with pytest.raises(ValidationError, match=f"^counted: {n_a} a and {n_b} b values "
                                                      f"fit no {kind}{pattern} scheme$"):
                Scheme("counted", pattern, a, b, 2, symmetric)
