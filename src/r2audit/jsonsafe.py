"""JSON encoding of results: the one module that knows the output encoding.

Non-finite floats become the strings "nan", "inf" and "-inf", numpy scalars
Python numbers, and keys are sorted. ``report_text`` writes the audit report,
``json_line`` one JSON-lines record. ``float_texts`` and ``string_text`` give
the certificate stream's columnar renderer the exact text ``json_line``
writes for a sanitized float and for a string.
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


def report_text(value) -> str:
    """A report as indented JSON text with a final newline."""
    return json.dumps(sanitize(value), sort_keys=True, indent=2) + "\n"


def json_line(value) -> str:
    """A record as one line of JSON, without the newline."""
    return json.dumps(sanitize(value), sort_keys=True)


def float_texts(values: np.ndarray) -> list[str]:
    """The text json_line writes for each float of a 1-d array."""
    texts = list(map(float.__repr__, values.tolist()))
    for at in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[at] = string_text(_non_finite(values[at]))
    return texts
