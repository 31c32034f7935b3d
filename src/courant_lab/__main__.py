"""`python -m courant_lab`: the same command line as `courant-lab`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
