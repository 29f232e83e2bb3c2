"""`python -m normality_lab check ...`: the same command line as the
`normality-lab` script."""

import sys

from .cli import main

sys.exit(main())
