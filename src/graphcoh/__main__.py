"""``python -m graphcoh``: the same command line as the ``graphcoh`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
