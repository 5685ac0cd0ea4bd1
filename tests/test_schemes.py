import math

import numpy as np
import pytest

from conftest import near_tolerance_sm64_text
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
    scheme = Scheme("t", "BAB", 1, (1.0,), (0.4, 0.5), 2, False)
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
    conj = sm4.conjugate()
    assert conj.b == tuple(complex(x).conjugate() for x in sm4.b)
    assert conj.a == sm4.a


def test_bad_pattern_and_wrong_lengths():
    with pytest.raises(ValidationError):
        Scheme("x", "BBA", 1, (1.0,), (0.5,), 2, True)
    with pytest.raises(ValidationError):
        Scheme("x", "BAB", 4, (0.1,), (0.1, 0.2, 0.3), 4, True)


@pytest.mark.parametrize("name", ["SM4", "SM64", "S62", "Strang_ABA"])
def test_serialize_load_round_trip(name):
    scheme = builtin_scheme(name)
    loaded = load_scheme(serialize_scheme(scheme))
    assert loaded.pattern == scheme.pattern
    assert loaded.stages == scheme.stages
    assert loaded.claimed_order == scheme.claimed_order
    assert np.allclose(loaded.expanded_a(), scheme.expanded_a(), atol=1e-15)
    assert np.allclose(loaded.expanded_b(), scheme.expanded_b(), atol=1e-15)


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
    with pytest.raises(ValidationError, match="symmetry-b"):
        load_scheme(text)


def test_load_interleave_mismatch():
    text = "name=t\npattern=BAB\norder=2\na 1.0 0.0\nb 1.0 0.0\n"
    with pytest.raises(ValidationError, match="BAB"):
        load_scheme(text)


def test_s62_closed_forms():
    s62 = builtin_scheme("S62")
    assert s62.a == ((5.0 - math.sqrt(5.0)) / 10.0, 1.0 / math.sqrt(5.0))
    assert s62.b == (1.0 / 12.0, 5.0 / 12.0)
    assert s62.effective_order == (6, 2)
