"""JSON encoding of results: the one place non-finite floats become strings."""

from __future__ import annotations

import math

import numpy as np


def sanitize(value):
    """Make a value JSON-safe: non-finite floats become "nan", "inf" or
    "-inf", numpy scalars become Python numbers, tuples become lists."""
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(value, np.integer):
        return int(value)
    return value
