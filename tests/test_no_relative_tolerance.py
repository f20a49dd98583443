"""Source scans of ``src/uqres`` for patterns the toolkit keeps out.

``np.allclose`` and ``np.isclose`` add a relative slack (1e-5 by default) on
top of the absolute one.  The toolkit's tolerances are absolute, and every
closeness check goes through ``qkernel._require_close``.

``functools.lru_cache`` (and ``cache``) keep every result for the life of the
process.  The discrete Wigner function once cached d^4 entries of phase-point
operators that way; every table now comes from a closed form, so no module
needs a process-wide cache.

The dimension cap is the one size rule: ``qkernel.DEFAULT_DIM_CAP``, or the
``--cap`` flag, bounds every register.  A second module-level ``*_CAP``
constant, or an error saying a register is "limited to" or "supports up to"
some size, would be a hand-set limit beside it.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uqres"


def source_hits(pattern: re.Pattern) -> list[str]:
    return [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]


def test_src_has_no_allclose_or_isclose():
    assert source_hits(re.compile(r"\b(allclose|isclose)\(")) == []


def test_src_has_no_process_wide_cache():
    assert source_hits(re.compile(r"\blru_cache\b|\bfunctools\.cache\b|@cache\b")) == []


def test_src_has_one_size_rule():
    # EXIT_CAP is the exit code of a cap violation, not a size.
    caps = re.compile(r"^(?!DEFAULT_DIM_CAP\b|EXIT_CAP\b)\w*_CAP\s*[:=]")
    assert source_hits(caps) == []
    assert source_hits(re.compile(r"limited to|supports up to")) == []
