"""Locate the checkout this benchmark belongs to and import the library from its source tree."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "badderlocks" / "__init__.py"


class LibraryMissing(RuntimeError):
    """The checkout has no src/badderlocks to benchmark."""


def import_library():
    """Import badderlocks from this checkout's src/, never from an installed copy."""
    if not PACKAGE.is_file():
        raise LibraryMissing(f"no library source at {PACKAGE.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import badderlocks

    if Path(badderlocks.__file__).resolve() != PACKAGE:
        raise LibraryMissing(f"badderlocks was imported from {badderlocks.__file__}, not {PACKAGE}")
    return badderlocks
