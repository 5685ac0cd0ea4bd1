"""Catalog of splitting schemes, coefficient-file IO, and structural validation.

A scheme is one alternating composition of A-flows (coefficients a_i) and
B-kicks (coefficients b_i).  BAB compositions start and end with a kick,
ABA compositions with a flow.  A symmetric scheme stores the first half of
its sequence, centre included; ``expand`` mirrors it.
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
    a: tuple                     # symmetry-reduced a coefficients (complex)
    b: tuple                     # symmetry-reduced b coefficients (complex)
    claimed_order: int
    symmetric: bool

    def __post_init__(self):
        if self.pattern not in ("BAB", "ABA"):
            raise ValidationError(f"unknown pattern {self.pattern!r}")
        outer, inner = (self.b, self.a) if self.pattern == "BAB" else (self.a, self.b)
        if not outer or len(outer) - len(inner) not in ((0, 1) if self.symmetric else (1,)):
            raise ValidationError(
                f"{self.name}: {len(self.a)} a and {len(self.b)} b values fit no "
                f"{'symmetric ' if self.symmetric else ''}{self.pattern} scheme")

    @property
    def stages(self):
        """m, the A-flows of BAB or B-kicks of ABA: 2m + 1 coefficients, m + 1 if symmetric."""
        return (len(self.a) + len(self.b) - 1) // (1 if self.symmetric else 2)

    @property
    def n_a(self):
        """Length of the fully expanded a sequence."""
        return self.stages if self.pattern == "BAB" else self.stages + 1

    # from a list: tuple() of a generator builds a fresh tuple by resizing, and
    # on release CPython's free list keeps up to 2000 tuples of each length
    def expanded_a(self):
        return tuple([s.coeff for s in expand(self) if s.role == "A"])

    def expanded_b(self):
        return tuple([s.coeff for s in expand(self) if s.role == "B"])


class Stage(NamedTuple):
    role: str      # "A" or "B"
    coeff: complex
    c0: complex    # node at the start of the stage


def expand(scheme):
    """The stage sequence: the outer role's values (b of BAB, a of ABA) interleaved
    with the inner role's, then, if symmetric, mirrored about the last of them.

    Nodes follow c_i = sum_{j<=i} a_j with c_0 = 0; B-kicks sit at the node
    reached by the preceding flows, A-flows span [c_{i-1}, c_i].
    """
    outer, inner = (scheme.b, scheme.a) if scheme.pattern == "BAB" else (scheme.a, scheme.b)
    stored = [None] * (len(outer) + len(inner))
    stored[::2] = [(scheme.pattern[0], complex(x)) for x in outer]
    stored[1::2] = [(scheme.pattern[1], complex(x)) for x in inner]
    if scheme.symmetric:
        stored += stored[-2::-1]
    stages, node = [], 0.0 + 0.0j
    for role, coeff in stored:
        stages.append(Stage(role, coeff, node))
        if role == "A":
            node += coeff
    return tuple(stages)


@dataclass
class SchemeReport:
    sum_a: complex
    sum_b: complex
    min_re_a: float
    min_re_b: float


def validate_scheme(scheme, tol=BUILTIN_TOL):
    """Consistency sums and coefficient sign margins of the expanded scheme.

    Raises ValidationError unless both parts of each sum lie within tol of
    1, so a non-finite coefficient (its sum is inf or nan) fails too.  A
    symmetric scheme expands to an exact palindrome, so there is no symmetry
    to check here; load_scheme checks the file rows.
    """
    a, b = scheme.expanded_a(), scheme.expanded_b()
    report = SchemeReport(
        sum_a=sum(a, 0.0 + 0.0j),
        sum_b=sum(b, 0.0 + 0.0j),
        min_re_a=min((x.real for x in a), default=math.inf),
        min_re_b=min((x.real for x in b), default=math.inf),
    )
    for tag, total in (("a", report.sum_a), ("b", report.sum_b)):
        d = total - 1.0
        if not (abs(d.real) < tol and abs(d.imag) < tol):
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
    "STRANG_BAB": Scheme("Strang_BAB", "BAB", (1.0,), (0.5,), 2, True),
    "STRANG_ABA": Scheme("Strang_ABA", "ABA", (0.5,), (1.0,), 2, True),
    "S62": Scheme("S62", "BAB", ((5.0 - _SQRT5) / 10.0, 1.0 / _SQRT5),
                  (1.0 / 12.0, 5.0 / 12.0), 2, True),
    "SM4": Scheme("SM4", "BAB", (0.13505265889288437, 0.36494734110711563),
                  (0.018329102861074364 - 0.10677008344599524j,
                   0.2784394345454581 + 0.20041452008768607j,
                   0.40646292518693505 - 0.18728887328338165j),
                  4, True),
    "SM64": Scheme("SM64", "BAB", (1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0),
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
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {spec}: {exc}") from None
    return load_scheme(text), FILE_TOL


# ---------------------------------------------------------------------------
# Coefficient file format: header lines name=/pattern=/order=/symmetric=,
# then `a <re> <im>` / `b <re> <im>` rows for the full interleaved sequence.
# ---------------------------------------------------------------------------

def check_scheme_name(name):
    """ValidationError unless a scheme file can hold ``name`` and load_scheme reads it back."""
    if ("#" in name or name.splitlines() not in ([name], []) or name != name.strip()
            or name.encode("utf-8", "ignore").decode("utf-8") != name):
        raise ValidationError(f"scheme name {name!r} does not survive a scheme file: it may "
                              "hold no '#', line break, outer whitespace or unencodable character")


def serialize_scheme(scheme):
    check_scheme_name(scheme.name)
    lines = [
        f"name={scheme.name}",
        f"pattern={scheme.pattern}",
        f"order={scheme.claimed_order}",
        f"symmetric={'true' if scheme.symmetric else 'false'}",
    ]
    for tag, seq in (("a", scheme.expanded_a()), ("b", scheme.expanded_b())):
        lines.extend(f"{tag} {z.real!r} {z.imag!r}" for z in seq)
    return "\n".join(lines) + "\n"


def load_scheme(text):
    """The Scheme a file's rows build (a symmetric file's first halves); they must expand it."""
    header = {}
    rows = {"a": [], "b": []}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and line.split()[0] not in ("a", "b"):
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in ("name", "pattern", "order", "symmetric"):
                raise ParseError(f"unknown header field {key!r}", line_no)
            if key in header:
                raise ParseError(f"repeated header field {key!r}", line_no)
            header[key] = val.strip()
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("a", "b"):
            raise ParseError(f"expected 'a <re> <im>' or 'b <re> <im>', got {raw!r}", line_no)
        try:
            z = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"bad number in {raw!r}", line_no) from None
        rows[parts[0]].append(z)

    for key in ("name", "pattern", "order"):
        if key not in header:
            raise ParseError(f"missing header field {key!r}")
    try:
        symmetric = {"true": True, "false": False}[header.get("symmetric", "false").lower()]
    except KeyError:
        raise ParseError(f"symmetric must be true or false, got {header['symmetric']!r}") from None
    try:
        order = int(header["order"])
    except ValueError:
        raise ParseError(f"order must be an integer, got {header['order']!r}") from None
    if order < 1:
        raise ParseError(f"order must be at least 1, got {order}")

    a, b = (tuple(got[:(len(got) + 1) // 2] if symmetric else got) for got in rows.values())
    scheme = Scheme(header["name"], header["pattern"].upper(), a, b, order, symmetric)
    want = scheme.expanded_a(), scheme.expanded_b()
    if [len(x) for x in rows.values()] != [len(x) for x in want]:
        raise ValidationError(f"{scheme.name}: {len(rows['a'])} a and {len(rows['b'])} b rows, "
                              f"but their scheme expands to {len(want[0])} and {len(want[1])}")
    for (tag, got), expanded in zip(rows.items(), want):
        for i, (x, y) in enumerate(zip(got, expanded), start=1):
            if abs(x - y) >= FILE_TOL:
                raise ValidationError(f"{scheme.name}: {tag} row {i} differs by "
                                      f"{abs(x - y):.3e} from their scheme's expansion")
    validate_scheme(scheme, FILE_TOL)
    return scheme
