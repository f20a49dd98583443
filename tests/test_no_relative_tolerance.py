"""No source module compares numbers with numpy's relative-tolerance helpers.

``np.allclose`` and ``np.isclose`` add a relative slack (1e-5 by default) on
top of the absolute one.  The toolkit's tolerances are absolute, and every
closeness check goes through ``qkernel._require_close``.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uqres"
PATTERN = re.compile(r"\b(allclose|isclose)\(")


def test_src_has_no_allclose_or_isclose():
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if PATTERN.search(line)]
    assert hits == []
