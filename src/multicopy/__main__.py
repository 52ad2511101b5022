"""`python -m multicopy`: the same command line as the `multicopy` script."""

import sys

from .cli import main

sys.exit(main())
