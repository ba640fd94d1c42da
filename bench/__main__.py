"""``python -m bench``: put this checkout's ``src/`` first on the path (so
the suite measures the tree it sits in, not an installed ``repro``), then
hand over to :mod:`bench.cli`."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC}/repro not found; the suite measures the checkout it sits in")
    sys.path.insert(0, str(SRC))
    from bench.cli import main

    sys.exit(main())
