"""``python -m benchmarks.e2e`` (from the repo root) is ``run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
