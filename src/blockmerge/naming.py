"""Anchored name patterns for selecting tensors.

A pattern is either a glob (``*`` matches any run of characters, ``?`` a
single character) optionally containing ``{name}`` capture groups that match
one dot-free name segment, or a raw regular expression prefixed with ``re:``.
Patterns always match the full tensor name.
"""

from __future__ import annotations

import re

_CAPTURE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def compile_name_pattern(pattern: str) -> re.Pattern:
    """The anchored regex of ``pattern``; ValueError naming it when it does
    not compile (an unbalanced ``re:`` pattern, a capture named twice)."""
    try:
        return re.compile(pattern[3:] if pattern.startswith("re:") else _glob_regex(pattern))
    except re.error as exc:
        raise ValueError(f"bad name pattern {pattern!r}: {exc}") from None


def _glob_regex(pattern: str) -> str:
    out = []
    i = 0
    while i < len(pattern):
        m = _CAPTURE.match(pattern, i)
        if m:
            out.append(f"(?P<{m.group(1)}>[^.]+)")
            i = m.end()
            continue
        ch = pattern[i]
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out)
