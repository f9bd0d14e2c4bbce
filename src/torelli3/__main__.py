"""``python -m torelli3``: the ``torelli3`` command from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
