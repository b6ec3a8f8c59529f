"""``python -m hopfcyclic``: the same command line as the ``hopfcyclic``
script (see ``hopfcyclic.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
