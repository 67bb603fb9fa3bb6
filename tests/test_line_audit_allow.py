"""Every entry of tests/line_audit_allow.txt still names a statement line
of src/widecnn, as often as it is listed, so a renamed or deleted line
leaves no stale entry behind. Whether the lines run is the audit's
question (``python3 tests/line_audit.py``, about 90 s); this is its fast
half."""

from collections import Counter

from line_audit import ALLOW, PACKAGE, read_allowed, statement_keys


def test_every_entry_names_a_statement_line():
    present = Counter(key for path in sorted(PACKAGE.glob("*.py"))
                      for key in statement_keys(path).values())
    stale = read_allowed(ALLOW) - present
    assert not stale, "entries naming no statement line: " + "; ".join(
        f"{' :: '.join(key)} ({count}x)" for key, count in stale.items())
