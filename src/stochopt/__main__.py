"""``python -m stochopt``: the command-line interface (harness.main)."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
