"""Line reading, integer literals and input quoting shared by the parsers."""

from __future__ import annotations

from collections.abc import Iterator

MAX_LITERAL_DIGITS = 1000  # below Python's own 4300-digit int-parsing limit


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line that is not blank once its `#`
    comment and surrounding whitespace are stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_int(text: str) -> int:
    """int(text) of ASCII digits after at most one sign, of at most
    MAX_LITERAL_DIGITS: no `_` separators (1_0), no other script's digits."""
    body = text.strip()
    digits = len(body.lstrip("+-"))
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal of {digits} digits exceeds {MAX_LITERAL_DIGITS}")
    if body.isascii() and "_" not in body:
        try:
            return int(body)
        except ValueError:
            pass
    raise ValueError(f"not an integer: {echo(text)}")


def echo(value) -> str:
    """repr(value) as an error message quotes it: its first 40 characters,
    then "...".  A str, list or tuple is cut to 41 items before the repr."""
    shown = repr(value[:41] if type(value) in (str, list, tuple) else value)
    return shown if len(shown) <= 40 else shown[:40] + "..."
