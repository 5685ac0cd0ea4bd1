"""``python -m cxsplit``: the ``cxsplit`` command line, run from a source checkout."""
from .cli import main
raise SystemExit(main())
