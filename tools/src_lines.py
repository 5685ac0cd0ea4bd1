"""Count the lines of a Python source tree by kind.

    python tools/src_lines.py [DIR]      # DIR defaults to src/

Prints, for each ``*.py`` file under DIR and for all of them together, the
total line count and its split into five kinds; every line has exactly one:

- docstring: a line of a docstring, the string literal that is the first
  statement of a module, class or function body (``ast.get_docstring``'s
  string), from its first to its last line, blank lines inside it included;
- code: any other line that holds a token other than a comment, such as a
  statement, an expression or a line of another multi-line string;
- comment: a line that holds a comment and nothing else;
- blank: a line that holds nothing but whitespace.

The kinds come from ``ast`` (docstrings) and ``tokenize`` (the rest), so a
line break inside brackets or a string never splits a line's kind.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
#: tokens that make no line a code line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of a module's ast."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """{kind: line count} of one file's source text, plus its "total"."""
    total = len(text.splitlines())
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= docs | code
    counts = {"code": len(code), "docstring": len(docs), "comment": len(comments)}
    counts["blank"] = total - sum(counts.values())
    counts["total"] = total
    return counts


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no *.py files under {root}", file=sys.stderr)
        return 2
    rows = [(str(path.relative_to(root)), count(path.read_text(encoding="utf-8")))
            for path in files]
    rows.append(("all", {key: sum(c[key] for _, c in rows) for key in ("total",) + KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}  {'total':>6}" + "".join(f"  {k:>9}" for k in KINDS))
    for name, c in rows:
        print(f"{name:<{width}}  {c['total']:>6}" + "".join(f"  {c[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
