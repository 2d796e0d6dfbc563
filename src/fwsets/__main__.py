"""``python -m fwsets``: the ``fwsets`` command line."""

import sys

from .cli import main

sys.exit(main())
