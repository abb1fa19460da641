"""Script entry point: ``python3 benchmarks/e2e/run.py ...``.

The same command line as ``python -m benchmarks.e2e`` (see ``cli.py``),
runnable from the root of a checkout with no ``PYTHONPATH``: the repo
root goes on ``sys.path`` here, ``src/`` in ``env.prepare()``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.cli import main

    sys.exit(main())
