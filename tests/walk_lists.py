"""A design's whole violation lists, as the certificate stream holds them.

setfun's pair walk keeps only the head of each list, and hands every
violating row to a sink, one pair and orientation at a time, in walk order.
``whole_lists`` collects those chunks and sorts them into the order of the
scalar oracle's lists (setfun_oracle): by deficit, largest first, then by the
index sets as tuples, second-order rows by A, the unordered pair, then i, so
that mirror rows sit together. This is the one place a whole list is sorted.
The lists stay columns, as the package keeps them; ``setfun_oracle.rows``
reads them as the oracle's rows.
"""

from __future__ import annotations

import numpy as np

from r2audit import setfun
from r2audit.regress import DEFAULT_MAX_FEATURES, fit_table
from r2audit.setfun import VIOLATION_TOL, Certificates


def _joined(chunks: list[Certificates], form: str, roles, m: int) -> Certificates:
    """The chunks' rows as one list of this form, sorted."""
    empty = [np.zeros(0, setfun._role_dtype(role, m)) for role in roles] + [np.zeros(0)] * 3
    rows = [(*chunk.columns, chunk.lhs, chunk.rhs, chunk.deficit) for chunk in chunks]
    columns = [np.concatenate([values, *(row[k] for row in rows)]) for k, values in enumerate(empty)]
    sets, i, j, *_, deficit = columns
    ties = [setfun._lex_rank(sets, m), i, j]
    if form == "second_order":
        ties[1:] = [np.minimum(i, j), np.maximum(i, j), i]
    order = np.lexsort([*ties[::-1], -deficit])
    *sets, lhs, rhs, deficit = (values[order] for values in columns)
    return Certificates(form, roles, sets, lhs, rhs, deficit)


def whole_lists(design, tolerance=VIOLATION_TOL, table=None, max_features=DEFAULT_MAX_FEATURES):
    """(second_order, suppression): both whole lists of the design's
    violations at ``tolerance``, as sorted Certificates."""
    table = fit_table(design, max_features) if table is None else table
    chunks = []
    setfun._second_order_summary(table, tolerance, lambda *pair: chunks.append(pair))
    return (
        _joined([second for second, _ in chunks], "second_order", ("A", "i", "j"), table.m),
        _joined([suppression for _, suppression in chunks], "suppression", ("S", "i", "j"), table.m),
    )
