"""``python -m repro``: see :mod:`repro.cli` (``python -m repro --help``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
