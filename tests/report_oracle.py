"""Reference encoder of the audit report, and certificate lists as columns.

The CLI renders certificates straight from their columns, as stream lines and,
parsed back, as the report's top lists. The reference turns every certificate
into a dict and the whole report into text with json.dumps; the two must agree
byte for byte.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from r2audit.jsonsafe import sanitize
from r2audit.setfun import Certificates
from setfun_oracle import ViolationCertificate, mask_of, rows


def certificate_jsonable(cert: ViolationCertificate, names) -> dict:
    rendered: dict[str, object] = {}
    for key, idx in cert.sets:
        if key in ("i", "j"):
            rendered[key] = names[idx[0]]
        else:
            rendered[key] = [names[f] for f in idx]
    return {
        "form": cert.form,
        "sets": rendered,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "deficit": cert.deficit,
    }


def _jsonable(value, names):
    if isinstance(value, ViolationCertificate):
        return certificate_jsonable(value, names)
    if isinstance(value, Certificates):
        return [certificate_jsonable(c, names) for c in rows(value)]
    if isinstance(value, dict):
        return {k: _jsonable(v, names) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, names) for v in value]
    return value


def reference_text(report: dict, names) -> str:
    """json.dumps(sanitize(report), sort_keys=True, indent=2) + "\\n", with
    every certificate, alone or in a Certificates, written as a dict."""
    return json.dumps(sanitize(_jsonable(report, names)), sort_keys=True, indent=2) + "\n"


def as_certificates(form: str, roles, certs) -> Certificates:
    """A Certificates holding the given ViolationCertificate list in order."""
    certs = list(certs)
    columns = []
    for role in roles:
        idx = [dict(c.sets)[role] for c in certs]
        values = [v[0] for v in idx] if role in ("i", "j") else [mask_of(v) for v in idx]
        columns.append(np.array(values, dtype=np.int64))
    floats = [np.array([getattr(c, f) for c in certs], dtype=float) for f in ("lhs", "rhs", "deficit")]
    return Certificates(form, roles, columns, *floats)


def sliced(certs: Certificates, part: slice) -> Certificates:
    """A Certificates holding the rows of a slice of the list, in order."""
    columns = [values[part] for values in certs.columns]
    return Certificates(certs.form, certs.roles, columns, certs.lhs[part], certs.rhs[part], certs.deficit[part])


def row_counts(certs, m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The count of an (A or S, i, j) certificate list, its counts by set
    size (m - 1 entries) and by_pair[i, j], one certificate at a time."""
    sizes = Counter(len(c.sets[0][1]) for c in certs)
    pairs = Counter((c.sets[1][1][0], c.sets[2][1][0]) for c in certs)
    by_pair = np.array([[pairs[i, j] for j in range(m)] for i in range(m)], dtype=np.intp)
    return len(certs), np.array([sizes[size] for size in range(m - 1)], dtype=np.intp), by_pair
