"""python -m drinfeld: the same command line as the drinfeld script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
