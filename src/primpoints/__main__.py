"""``python -m primpoints ARGS``: the primpoints command-line tool, as the
``primpoints`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
