"""``python -m aeblow``: the ``aeblow`` command line."""

import sys

from .cli import main

if __name__ == "__main__":      # module scans (pkgutil) import it too
    sys.exit(main())
