"""The private numpy modules that cxsplit imports.

A numpy release may move or drop a private module, and then ``import
cxsplit`` fails outright.  So each one is listed here, and importing
another takes a deliberate edit of this list.
"""

import ast
from pathlib import Path

import cxsplit

PRIVATE_NUMPY_MODULES = {"numpy.fft._pocketfft_umath"}


def _imported_names(tree):
    """Every dotted name an import statement binds or reads from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_the_listed_private_numpy_modules_are_imported():
    sources = sorted(Path(cxsplit.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    private = {name for source in sources
               for name in _imported_names(ast.parse(source.read_text(), str(source)))
               if name.split(".")[0] == "numpy"
               and any(part.startswith("_") for part in name.split("."))}
    assert private == PRIVATE_NUMPY_MODULES
