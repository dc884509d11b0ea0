"""``python -m braidfact``: the same command line as the ``braidfact`` script."""

import sys

from .cli import main

sys.exit(main())
