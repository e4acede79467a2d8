"""JSON encoding of results: the one place non-finite floats become strings.

Reports are written as json.dumps(sanitize(value), sort_keys=True, indent=2).
``dumps`` writes that text with some values rendered by the caller from
columns; ``float_texts`` and ``string_text`` give such renderers the exact
text json.dumps writes for a sanitized float and for a string.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as string_text

import numpy as np


def _non_finite(f: float) -> str:
    return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")


def sanitize(value):
    """Make a value JSON-safe: non-finite floats become "nan", "inf" or
    "-inf", numpy scalars become Python numbers, tuples become lists."""
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if math.isfinite(f) else _non_finite(f)
    if isinstance(value, np.integer):
        return int(value)
    return value


def float_texts(values: np.ndarray) -> list[str]:
    """The text json.dumps writes for each sanitized float of a 1-d array."""
    texts = list(map(float.__repr__, values.tolist()))
    for at in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[at] = string_text(_non_finite(values[at]))
    return texts


class _Slot:
    def __init__(self, key: int):
        self.key = key


def dumps(value, verbatim: dict) -> str:
    """json.dumps(sanitize(value), sort_keys=True, indent=2) + "\\n", except
    that a value whose type is a key of ``verbatim`` is written as
    verbatim[type](value, depth): the text json.dumps would write for it at
    that nesting depth, where its closing bracket is indented 2 * depth.
    """
    texts: list[str] = []
    longest = 0

    def walk(v, depth):
        nonlocal longest
        write = verbatim.get(type(v))
        if write is not None:
            texts.append(write(v, depth))
            return _Slot(len(texts) - 1)
        if isinstance(v, dict):
            longest = max([longest, *map(len, v)])
            return {k: walk(x, depth + 1) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x, depth + 1) for x in v]
        if isinstance(v, str):
            longest = max(longest, len(v))
        return sanitize(v)

    tree = walk(value, 0)
    # Each slot is first written as a string holding more NUL characters than
    # any other string in the document: its JSON text cannot occur elsewhere.
    pad = "\0" * (longest + 1)

    def placeholder(slot):
        if not isinstance(slot, _Slot):
            raise TypeError(f"Object of type {type(slot).__name__} is not JSON serializable")
        return f"{pad}{slot.key}"

    text = json.dumps(tree, sort_keys=True, indent=2, default=placeholder)
    head, *tails = text.split(string_text(pad)[:-1])
    parts = [head]
    for tail in tails:
        key, rest = tail.split('"', 1)
        parts += [texts[int(key)], rest]
    return "".join(parts) + "\n"
