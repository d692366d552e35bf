"""``python -m tnncells``: the command line, from a checkout or an install."""

import sys

from .cli import main

sys.exit(main())
