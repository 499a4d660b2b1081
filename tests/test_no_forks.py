"""No hand-kept copies of a decision under ``src/repro``.

A comment telling the reader to keep two code bodies in step marks a
fork: the same decision written twice, one copy bound to drift.  The
query procedure, the send path and the send-counting rule each have one
body now; this test stops such forks from quietly growing back.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FORK_MARKERS = re.compile(r"keep in sync|must be mirrored", re.IGNORECASE)


def test_no_fork_markers_under_src() -> None:
    hits = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if FORK_MARKERS.search(line)
    ]
    assert hits == []


def test_marker_pattern_catches_both_phrasings() -> None:
    assert FORK_MARKERS.search("# (keep in sync with Engine.post1_at)")
    assert FORK_MARKERS.search("Any change here MUST be mirrored in ...")
    assert not FORK_MARKERS.search("one body per decision")
