"""Catalog of splitting schemes, coefficient-file IO, and structural validation.

A scheme is an interleaved composition of A-flows (coefficients a_i) and
B-kicks (coefficients b_i).  BAB compositions start and end with a kick,
ABA compositions with a flow.  Symmetric schemes are stored with their
unique (symmetry-reduced) coefficient values and expanded on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import NotInCatalog, ParseError, ValidationError

BUILTIN_TOL = 1e-12
FILE_TOL = 1e-9


@dataclass(frozen=True)
class Scheme:
    name: str
    pattern: str                 # "BAB" or "ABA"
    stages: int                  # m = number of A-flow stages for BAB, B-kicks for ABA
    a: tuple                     # symmetry-reduced a coefficients (complex)
    b: tuple                     # symmetry-reduced b coefficients (complex)
    claimed_order: int
    symmetric: bool
    effective_order: tuple | None = None

    def __post_init__(self):
        if self.pattern not in ("BAB", "ABA"):
            raise ValidationError(f"unknown pattern {self.pattern!r}")
        na, nb = self.n_a, self.n_b
        need_a = _reduced_len(na) if self.symmetric else na
        need_b = _reduced_len(nb) if self.symmetric else nb
        if len(self.a) != need_a or len(self.b) != need_b:
            raise ValidationError(
                f"{self.name}: expected {need_a} a and {need_b} b values, "
                f"got {len(self.a)} and {len(self.b)}")

    @property
    def n_a(self):
        """Length of the fully expanded a sequence."""
        return self.stages if self.pattern == "BAB" else self.stages + 1

    @property
    def n_b(self):
        return self.stages + 1 if self.pattern == "BAB" else self.stages

    def expanded_a(self):
        return _expand_coeffs(self.a, self.n_a, self.symmetric)

    def expanded_b(self):
        return _expand_coeffs(self.b, self.n_b, self.symmetric)

    def conjugate(self):
        return Scheme(self.name, self.pattern, self.stages,
                      tuple(complex(x).conjugate() for x in self.a),
                      tuple(complex(x).conjugate() for x in self.b),
                      self.claimed_order, self.symmetric, self.effective_order)


def _reduced_len(n):
    return (n + 1) // 2


def _expand_coeffs(reduced, n, symmetric):
    if not symmetric:
        return tuple(reduced)
    return tuple(reduced[min(i, n - 1 - i)] for i in range(n))


class Stage(NamedTuple):
    role: str      # "A" or "B"
    coeff: complex
    c0: complex    # node at the start of the stage


def expand(scheme):
    """Symmetry-expand a scheme into its interleaved stage sequence.

    Nodes follow c_i = sum_{j<=i} a_j with c_0 = 0; B-kicks sit at the node
    reached by the preceding flows, A-flows span [c_{i-1}, c_i].
    """
    a = [complex(x) for x in scheme.expanded_a()]
    b = [complex(x) for x in scheme.expanded_b()]
    nodes = [0.0 + 0.0j]
    for ai in a:
        nodes.append(nodes[-1] + ai)
    stages = []
    if scheme.pattern == "BAB":
        for i, ai in enumerate(a):
            stages.append(Stage("B", b[i], nodes[i]))
            stages.append(Stage("A", ai, nodes[i]))
        stages.append(Stage("B", b[-1], nodes[-1]))
    else:
        for i, bi in enumerate(b):
            stages.append(Stage("A", a[i], nodes[i]))
            stages.append(Stage("B", bi, nodes[i + 1]))
        stages.append(Stage("A", a[-1], nodes[-2]))
    return tuple(stages)


@dataclass
class SchemeReport:
    sum_a: complex
    sum_b: complex
    min_re_a: float
    min_re_b: float


def validate_scheme(scheme, tol=BUILTIN_TOL):
    """Consistency sums and coefficient sign margins of the expanded scheme.

    Raises ValidationError if a sum misses 1 by tol or more in its real or
    imaginary part.  A symmetric scheme expands to an exact palindrome, so
    there is no symmetry to check here; load_scheme checks the file rows.
    """
    a = [complex(x) for x in scheme.expanded_a()]
    b = [complex(x) for x in scheme.expanded_b()]
    report = SchemeReport(
        sum_a=sum(a, 0.0 + 0.0j),
        sum_b=sum(b, 0.0 + 0.0j),
        min_re_a=min((x.real for x in a), default=math.inf),
        min_re_b=min((x.real for x in b), default=math.inf),
    )
    for tag, total in (("a", report.sum_a), ("b", report.sum_b)):
        d = total - 1.0
        if max(abs(d.real), abs(d.imag)) >= tol:
            raise ValidationError(f"{scheme.name}: consistency-{tag} defect {abs(d):.3e}")
    return report


# ---------------------------------------------------------------------------
# Builtin catalog.  SM4 and SM64 carry 16-digit decimal coefficients; the
# stored conjugate branch is the one with Im(b1) <= 0.  S62 is the
# effective-order-(6,2) real scheme; its closed forms are 1/12, (5-sqrt5)/10,
# 5/12, 1/sqrt5.
# ---------------------------------------------------------------------------

_SQRT5 = math.sqrt(5.0)

_CATALOG = {
    "STRANG_BAB": Scheme("Strang_BAB", "BAB", 1, (1.0,), (0.5,), 2, True),
    "STRANG_ABA": Scheme("Strang_ABA", "ABA", 1, (0.5,), (1.0,), 2, True),
    "S62": Scheme("S62", "BAB", 3,
                  ((5.0 - _SQRT5) / 10.0, 1.0 / _SQRT5),
                  (1.0 / 12.0, 5.0 / 12.0),
                  2, True, effective_order=(6, 2)),
    "SM4": Scheme("SM4", "BAB", 4,
                  (0.13505265889288437, 0.36494734110711563),
                  (0.018329102861074364 - 0.10677008344599524j,
                   0.2784394345454581 + 0.20041452008768607j,
                   0.40646292518693505 - 0.18728887328338165j),
                  4, True),
    "SM64": Scheme("SM64", "BAB", 6,
                   (1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0),
                   (0.05753968253968254 - 0.007886748775536424j,
                    0.20476190476190473 + 0.04732049265321855j,
                    0.16309523809523818 - 0.11830123163304637j,
                    0.14920634920634912 + 0.15773497551072851j),
                   4, True),
}

_ALIASES = {"SM(6,4)": "SM64", "(6,2)": "S62", "62": "S62", "STRANG": "STRANG_BAB"}


def builtin_names():
    return sorted(_CATALOG)


def builtin_scheme(name):
    key = name.upper()
    key = _ALIASES.get(key, key)
    try:
        return _CATALOG[key]
    except KeyError:
        raise NotInCatalog(f"unknown scheme {name!r}; builtins: {builtin_names()}") from None


def resolve_scheme(spec):
    """(scheme, validation tolerance) of a builtin name, else of a scheme file."""
    try:
        return builtin_scheme(spec), BUILTIN_TOL
    except NotInCatalog:
        path = Path(spec)
        if not path.exists():
            raise
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {spec}: {exc}") from None
    return load_scheme(text), FILE_TOL


# ---------------------------------------------------------------------------
# Coefficient file format: header lines name=/pattern=/order=/symmetric=,
# then `a <re> <im>` / `b <re> <im>` rows for the full interleaved sequence.
# ---------------------------------------------------------------------------

def serialize_scheme(scheme):
    lines = [
        f"name={scheme.name}",
        f"pattern={scheme.pattern}",
        f"order={scheme.claimed_order}",
        f"symmetric={'true' if scheme.symmetric else 'false'}",
    ]
    for tag, seq in (("a", scheme.expanded_a()), ("b", scheme.expanded_b())):
        for x in seq:
            z = complex(x)
            lines.append(f"{tag} {z.real!r} {z.imag!r}")
    return "\n".join(lines) + "\n"


def load_scheme(text, tol=FILE_TOL):
    header = {}
    a_full, b_full = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and line.split()[0] not in ("a", "b"):
            key, _, val = line.partition("=")
            header[key.strip()] = val.strip()
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("a", "b"):
            raise ParseError(f"expected 'a <re> <im>' or 'b <re> <im>', got {raw!r}", line_no)
        try:
            z = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"bad number in {raw!r}", line_no) from None
        (a_full if parts[0] == "a" else b_full).append(z)

    for key in ("name", "pattern", "order"):
        if key not in header:
            raise ParseError(f"missing header field {key!r}")
    pattern = header["pattern"].upper()
    if pattern not in ("BAB", "ABA"):
        raise ParseError(f"pattern must be BAB or ABA, got {header['pattern']!r}")
    symmetric = header.get("symmetric", "false").lower() == "true"
    try:
        order = int(header["order"])
    except ValueError:
        raise ParseError(f"order must be an integer, got {header['order']!r}") from None

    stages = len(a_full) if pattern == "BAB" else len(b_full)
    if pattern == "BAB" and len(b_full) != len(a_full) + 1:
        raise ValidationError(f"BAB needs len(b) == len(a)+1, got {len(b_full)}, {len(a_full)}")
    if pattern == "ABA" and len(a_full) != len(b_full) + 1:
        raise ValidationError(f"ABA needs len(a) == len(b)+1, got {len(a_full)}, {len(b_full)}")

    if symmetric:
        for tag, seq in (("a", a_full), ("b", b_full)):
            for x, y in zip(seq, reversed(seq)):
                if abs(x - y) >= tol:
                    raise ValidationError(f"symmetry-{tag}: defect {abs(x - y):.3e}")
        a_red = tuple(a_full[:_reduced_len(len(a_full))])
        b_red = tuple(b_full[:_reduced_len(len(b_full))])
    else:
        a_red, b_red = tuple(a_full), tuple(b_full)

    scheme = Scheme(header["name"], pattern, stages, a_red, b_red, order, symmetric)
    validate_scheme(scheme, tol)
    return scheme
