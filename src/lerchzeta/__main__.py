"""``python -m lerchzeta``: the command-line front end (see lerchzeta.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
