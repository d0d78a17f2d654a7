"""``python -m exacteig``: the command-line interface of ``cli``, exiting
with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
