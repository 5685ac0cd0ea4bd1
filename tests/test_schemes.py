import math

import pytest

from conftest import NON_FINITE_TEXTS, conjugate, near_tolerance_sm64_text
from cxsplit.designer import DesignProblem, solve_b
from cxsplit.errors import NotInCatalog, ParseError, ValidationError
from cxsplit.schemes import (BUILTIN_TOL, FILE_TOL, Scheme, builtin_names,
                             builtin_scheme, expand, load_scheme,
                             resolve_scheme, serialize_scheme, validate_scheme)


def test_builtin_names_and_aliases():
    names = builtin_names()
    assert {"SM4", "SM64", "S62", "STRANG_BAB", "STRANG_ABA"} <= set(names)
    assert builtin_scheme("sm(6,4)") is builtin_scheme("SM64")
    assert builtin_scheme("(6,2)") is builtin_scheme("S62")
    assert builtin_scheme("strang") is builtin_scheme("Strang_BAB")


def test_unknown_scheme_raises():
    with pytest.raises(NotInCatalog):
        builtin_scheme("nope")


def test_resolve_scheme_builtin_first_then_file(tmp_path, monkeypatch):
    # a file named like a builtin does not shadow the builtin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "SM4").write_text(serialize_scheme(builtin_scheme("S62")))
    assert resolve_scheme("SM4") == (builtin_scheme("SM4"), BUILTIN_TOL)
    scheme, tol = resolve_scheme(str(tmp_path / "SM4"))
    assert scheme.name == "S62" and tol == FILE_TOL
    with pytest.raises(NotInCatalog):
        resolve_scheme(str(tmp_path / "missing.txt"))


def test_resolve_scheme_unreadable_file_is_a_parse_error(tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    for spec in (tmp_path, binary):
        with pytest.raises(ParseError, match="cannot read"):
            resolve_scheme(str(spec))


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_are_consistent_and_symmetric(name):
    scheme = builtin_scheme(name)
    report = validate_scheme(scheme, tol=BUILTIN_TOL)
    assert abs(report.sum_a - 1.0) < BUILTIN_TOL
    assert abs(report.sum_b - 1.0) < BUILTIN_TOL


def test_validate_scheme_raises_on_a_consistency_defect():
    scheme = Scheme("t", "BAB", (1.0,), (0.4, 0.5), 2, False)
    with pytest.raises(ValidationError, match="consistency-b"):
        validate_scheme(scheme)
    # within a looser tolerance the same sums pass and are reported
    report = validate_scheme(scheme, tol=0.2)
    assert report.sum_b == pytest.approx(0.9)


@pytest.mark.parametrize("name", builtin_names())
def test_expansion_palindrome_and_nodes(name):
    scheme = builtin_scheme(name)
    a = scheme.expanded_a()
    b = scheme.expanded_b()
    assert a == tuple(reversed(a))
    assert b == tuple(reversed(b))
    seq = expand(scheme)
    roles = "".join(st.role for st in seq)
    if scheme.pattern == "BAB":
        assert roles == "BA" * scheme.stages + "B"
    else:
        assert roles == "AB" * scheme.stages + "A"
    # nodes are cumulative sums of the a's; last node is 1
    node = 0.0 + 0.0j
    for st in seq:
        if st.role == "A":
            assert abs(st.c0 - node) < 1e-15
            node += st.coeff
        else:
            assert abs(st.c0 - node) < 1e-15
    assert abs(node - 1.0) < 1e-14


def test_strang_bab_sequence_explicit():
    seq = expand(builtin_scheme("Strang_BAB"))
    assert [(st.role, st.coeff, st.c0) for st in seq] == [
        ("B", 0.5 + 0j, 0j), ("A", 1.0 + 0j, 0j), ("B", 0.5 + 0j, 1.0 + 0j)]


def test_has_complex_b_and_conjugate():
    sm4 = builtin_scheme("SM4")
    assert any(complex(b).imag != 0.0 for b in sm4.expanded_b())
    assert all(complex(b).imag == 0.0 for b in builtin_scheme("S62").expanded_b())
    # the other branch expands to the conjugate stages: same flows, same nodes
    conj = conjugate(sm4)
    assert conj.a == sm4.a
    assert [(st.role, st.coeff, st.c0) for st in expand(conj)] == [
        (st.role, st.coeff.conjugate(), st.c0.conjugate()) for st in expand(sm4)]


def test_bad_pattern_and_wrong_lengths():
    with pytest.raises(ValidationError):
        Scheme("x", "BBA", (1.0,), (0.5,), 2, True)
    # coefficient counts that fit no stage count, for each pattern and symmetry
    for pattern, a, b, symmetric in (("BAB", (0.5, 0.5), (0.5,), True),
                                     ("BAB", (1.0,), (0.5,), False),
                                     ("BAB", (), (), True),
                                     ("ABA", (0.5,), (0.5, 0.5), True),
                                     ("ABA", (0.5, 0.5), (0.5, 0.5), False)):
        with pytest.raises(ValidationError, match="fit no"):
            Scheme("x", pattern, a, b, 2, symmetric)


def _designed(stages):
    """The scheme `design` prints for SM4's a1 (4 stages) or equal flows (6 stages)."""
    fixed = (builtin_scheme("SM4").a[0],) if stages == 4 else (1.0 / 6.0,) * 3
    problem = DesignProblem(stages, fixed)
    return problem.scheme(solve_b(problem).b)


@pytest.mark.parametrize("name", ["SM4", "SM64", "S62", "Strang_ABA", "Strang_BAB",
                                  "design-4", "design-6"])
def test_serialize_load_round_trip(name):
    # the file holds every bit of the scheme: the loaded one is equal, field by field
    scheme = _designed(int(name[-1])) if name.startswith("design") else builtin_scheme(name)
    assert load_scheme(serialize_scheme(scheme)) == scheme


def test_load_ignores_comments_and_blanks():
    text = ("# leading comment\nname=t\npattern=BAB\norder=2\n\n"
            "b 0.5 0.0  # half kick\na 1.0 0.0\nb 0.5 0.0\n")
    scheme = load_scheme(text)
    assert scheme.name == "t"
    assert scheme.expanded_b() == (0.5 + 0j, 0.5 + 0j)


def test_load_parse_error_carries_line_number():
    text = "name=t\npattern=BAB\norder=2\nb 0.5\n"
    with pytest.raises(ParseError) as info:
        load_scheme(text)
    assert info.value.line_no == 4


def test_load_bad_number_carries_line_number():
    text = "name=t\npattern=BAB\norder=2\nb 0.5 0.0\na 1.0 x\nb 0.5 0.0\n"
    with pytest.raises(ParseError, match="^line 5: bad number in 'a 1.0 x'$") as info:
        load_scheme(text)
    assert info.value.line_no == 5


def test_load_order_must_be_an_integer():
    text = "name=t\npattern=BAB\norder=two\nb 0.5 0.0\na 1.0 0.0\nb 0.5 0.0\n"
    with pytest.raises(ParseError, match="^order must be an integer, got 'two'$"):
        load_scheme(text)


def test_load_missing_header():
    with pytest.raises(ParseError, match="pattern"):
        load_scheme("name=t\norder=2\na 1.0 0.0\n")


def test_load_consistency_violation():
    text = "name=t\npattern=BAB\norder=2\nb 0.4 0.0\na 1.0 0.0\nb 0.5 0.0\n"
    with pytest.raises(ValidationError, match="consistency-b"):
        load_scheme(text)


def test_load_rejects_near_tolerance_mirrored_rows():
    # the rows as written pass both row checks; the scheme that runs does not
    text = near_tolerance_sm64_text()
    rows = [complex(float(re), float(im)) for _, re, im in
            (line.split() for line in text.splitlines() if line.startswith("b "))]
    assert abs(sum(rows) - 1.0) < FILE_TOL
    assert max(abs(x - y) for x, y in zip(rows, reversed(rows))) < FILE_TOL
    with pytest.raises(ValidationError, match="consistency-b"):
        load_scheme(text)


def test_load_symmetry_violation():
    text = ("name=t\npattern=BAB\norder=2\nsymmetric=true\n"
            "b 0.4 0.0\na 1.0 0.0\nb 0.6 0.0\n")
    with pytest.raises(ValidationError,
                       match="^t: b row 2 differs by 2.000e-01 from their scheme's expansion$"):
        load_scheme(text)


def _malformed_text(name, symmetric, fault=None):
    """The builtin's file with symmetric= set, then one fault: the last row dropped or
    repeated, pattern=XYZ, or the first row of the outer kind moved by 2 FILE_TOL."""
    scheme = builtin_scheme(name)
    lines = serialize_scheme(scheme).replace("symmetric=true", f"symmetric={symmetric}")
    lines = lines.splitlines()
    if fault == "row-dropped":
        lines = lines[:-1]
    elif fault == "row-added":
        lines = lines + lines[-1:]
    elif fault == "pattern-XYZ":
        lines[1] = "pattern=XYZ"
    elif fault == "row-moved":
        i = next(i for i, line in enumerate(lines) if line[0] == scheme.pattern[0].lower())
        tag, real, imag = lines[i].split()
        lines[i] = f"{tag} {float(real) + 2 * FILE_TOL!r} {imag}"
    return "\n".join(lines) + "\n"


MOVED = "differs by 2.000e-09 from their scheme's expansion"
# (builtin, symmetric=, fault): the message of the ValidationError the file raises
MALFORMED = {
    ("SM4", "true", "row-dropped"): "SM4: 4 a and 4 b rows, but their scheme expands to 3 and 4",
    ("SM4", "true", "row-added"): "SM4: 4 a and 6 b rows, but their scheme expands to 4 and 5",
    ("SM4", "true", "pattern-XYZ"): "unknown pattern 'XYZ'",
    ("SM4", "true", "row-moved"): f"SM4: b row 5 {MOVED}",
    ("SM4", "false", "row-dropped"): "SM4: 4 a and 4 b values fit no BAB scheme",
    ("SM4", "false", "row-added"): "SM4: 4 a and 6 b values fit no BAB scheme",
    ("SM4", "false", "pattern-XYZ"): "unknown pattern 'XYZ'",
    ("Strang_ABA", "true", "row-dropped"):
        "Strang_ABA: 2 a and 0 b rows, but their scheme expands to 1 and 0",
    ("Strang_ABA", "true", "row-added"):
        "Strang_ABA: 2 a and 2 b rows, but their scheme expands to 2 and 1",
    ("Strang_ABA", "true", "pattern-XYZ"): "unknown pattern 'XYZ'",
    ("Strang_ABA", "true", "row-moved"): f"Strang_ABA: a row 2 {MOVED}",
    ("Strang_ABA", "false", "row-dropped"): "Strang_ABA: 2 a and 0 b values fit no ABA scheme",
    ("Strang_ABA", "false", "row-added"): "Strang_ABA: 2 a and 2 b values fit no ABA scheme",
    ("Strang_ABA", "false", "pattern-XYZ"): "unknown pattern 'XYZ'",
}


@pytest.mark.parametrize("case", sorted(MALFORMED), ids="-".join)
def test_load_rejects_rows_that_are_not_the_expansion(case):
    # the file loads unbroken; each fault fails Scheme's checks or the row check
    name, symmetric, _ = case
    scheme, loaded = builtin_scheme(name), load_scheme(_malformed_text(name, symmetric))
    assert loaded.expanded_a() == scheme.expanded_a()
    assert loaded.expanded_b() == scheme.expanded_b()
    with pytest.raises(ValidationError) as info:
        load_scheme(_malformed_text(*case))
    assert str(info.value) == MALFORMED[case]


@pytest.mark.parametrize("name", sorted(NON_FINITE_TEXTS))
def test_load_rejects_non_finite_coefficients(name):
    with pytest.raises(ValidationError, match="consistency-"):
        load_scheme(NON_FINITE_TEXTS[name])


def test_load_symmetric_is_true_or_false():
    text = "name=t\npattern=BAB\norder=2\nsymmetric={}\nb 0.4 0.0\na 1.0 0.0\nb 0.6 0.0\n"
    assert not load_scheme(text.format("FALSE")).symmetric
    with pytest.raises(ParseError, match="'yes'"):
        load_scheme(text.format("yes"))


def test_load_rejects_an_unknown_header_field():
    text = "name=t\npattern=BAB\norder=2\nsymetric=true\nb 0.5 0.0\na 1.0 0.0\nb 0.5 0.0\n"
    with pytest.raises(ParseError, match="unknown header field 'symetric'") as info:
        load_scheme(text)
    assert info.value.line_no == 4


def test_load_rejects_a_repeated_header_field():
    text = "name=t\npattern=BAB\norder=2\norder=4\nb 0.5 0.0\na 1.0 0.0\nb 0.5 0.0\n"
    with pytest.raises(ParseError, match="repeated header field 'order'") as info:
        load_scheme(text)
    assert info.value.line_no == 4


def test_load_interleave_mismatch():
    text = "name=t\npattern=BAB\norder=2\na 1.0 0.0\nb 1.0 0.0\n"
    with pytest.raises(ValidationError, match="BAB"):
        load_scheme(text)


def test_s62_closed_forms():
    s62 = builtin_scheme("S62")
    assert s62.a == ((5.0 - math.sqrt(5.0)) / 10.0, 1.0 / math.sqrt(5.0))
    assert s62.b == (1.0 / 12.0, 5.0 / 12.0)
