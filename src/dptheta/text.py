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
    """int(text) of ASCII digits after at most one sign, then of at most
    MAX_LITERAL_DIGITS: no `_` separators (1_0), no other script's digits."""
    body = text.strip()
    digits = body.lstrip("+-")
    if len(body) - len(digits) > 1 or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {echo(text)}")
    value = int_of_digits(digits)
    return -value if body.startswith("-") else value


def int_of_digits(digits: str) -> int:
    """int(digits) of a run of ASCII digits the caller has checked, refused
    past MAX_LITERAL_DIGITS."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal of {len(digits)} digits exceeds {MAX_LITERAL_DIGITS}")
    return int(digits)


def echo(value) -> str:
    """repr(value) as an error message quotes it: its first 40 characters,
    then "...".  A str, list or tuple is cut to 41 items before the repr.
    A value whose repr raises, as an int past the interpreter's int-to-str
    digit limit does, alone or in a list, is named by type and size."""
    sized = type(value) in (str, list, tuple)
    try:
        shown = repr(value[:41] if sized else value)
    except Exception:
        size = f" of length {len(value)}" if sized else \
            f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        shown = f"<{type(value).__name__}{size}>"
    return shown if len(shown) <= 40 else shown[:40] + "..."
