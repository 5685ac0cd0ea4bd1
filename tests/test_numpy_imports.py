"""The private numpy modules that cxsplit imports.

A numpy release may move or drop a private module, and then ``import
cxsplit`` fails outright.  So each one is listed here, and importing
another takes a deliberate edit of this list.
"""

import ast
import os
import subprocess
import sys
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


# A numpy that moved the private module: numpy.fft keeps its own reference
# to it, but an import of it by name fails.
_BLOCK = """
import sys
import numpy.fft
del numpy.fft._pocketfft_umath
sys.modules["numpy.fft._pocketfft_umath"] = None
try:
    from numpy.fft import _pocketfft_umath
except ImportError:
    pass
else:
    raise SystemExit("the private module is still importable")
"""

# One flow of each path of exp_circulant, real and complex, on an even and an
# odd grid: the FFT functions' type, then each flow's dtype and bits.
_FLOWS = """
import numpy as np
from cxsplit import propagators
from cxsplit.propagators import CirculantLaplacian, exp_circulant
print(type(propagators._pocketfft).__name__)
for n in (16, 17):
    lap = CirculantLaplacian(n, 1.0 / n)
    u = np.sin(np.arange(n) + 0.5)
    for flow in (exp_circulant(lap, 0.003, u), exp_circulant(lap, 0.003 - 0.001j, u + 0.5j * u)):
        print(flow.dtype, flow.tobytes().hex())
"""


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(Path(cxsplit.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_cxsplit_falls_back_to_the_public_fft_bit_for_bit():
    fallback, direct = _run(_BLOCK + _FLOWS), _run(_FLOWS)
    assert (fallback[0], direct[0]) == ("SimpleNamespace", "module")
    assert [line.split()[0] for line in direct[1:]] == ["float64", "complex128"] * 2
    assert fallback[1:] == direct[1:]
