"""Run the command-line interface as ``python -m alertfp``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
