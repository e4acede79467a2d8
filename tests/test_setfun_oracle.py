"""Differential tests: the dense-table kernels against the scalar walks.

Every comparison is ``==``, so values, witnesses, skip counts and the order
of certificate lists must agree bit for bit.
"""

import json
from itertools import groupby

import numpy as np
import pytest

import setfun_oracle as oracle
from conftest import make_noisy_design, make_noisy_rows, make_orthogonal_design, make_orthogonal_rows, make_pair_design
from reader_oracle import fit_entry
from report_oracle import as_certificates, row_counts
from test_fit_kernel import DESIGNS as FIT_KERNEL_DESIGNS, _table_walk
from r2audit import fit_table, gram_factory, standardize, suppressor_population
from r2audit import cli, regress, setfun
from r2audit.bitsets import indices_of
from r2audit.datasets import write_csv
from r2audit.regress import gram_rows
from walk_lists import whole_lists


def _duplicated_column_design():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 4))
    X = np.column_stack([X, X[:, 1]])
    y = X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(20)
    return standardize(X, y)


def _hadamard_design(columns, response):
    # Sums of 8-row Sylvester-Hadamard columns. Exactly orthogonal sums give
    # exact zero gains, so minimal ratios tie bit for bit across comparisons.
    H = np.array([[1.0]])
    for _ in range(3):
        H = np.block([[H, H], [H, -H]])
    h = H[:, 1:]
    X = np.column_stack([h[:, list(c)].sum(axis=1) for c in columns])
    return standardize(X, h[:, list(response)].sum(axis=1))


def _ties_at_the_head_cut(design):
    # the last row of each violation list's head ties with the first row past it
    top = setfun.TOP_CERTIFICATES
    lists = (oracle.check_submodular(design), oracle.find_suppressors(design))
    return all(len(certs) > top and certs[top - 1].deficit == certs[top].deficit for certs in lists)


def _hadamard_tie_design():
    # Three Hadamard sums, a response of two of their columns, and two lone
    # Hadamard columns orthogonal to all of them. A lone column added to a
    # conditioning set leaves every gain as it was, so each violation comes
    # as eight rows with one deficit (four sets, both orders), and rows 10
    # and 11 share one once there are two violations. The first seed whose
    # design ties there is used: 7 of seeds 0-19 have two or more violations,
    # and each of them does.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        order = rng.permutation(7)
        lone, rest = order[:2].tolist(), order[2:]
        sums = [rng.choice(rest, size=int(rng.integers(1, 4)), replace=False).tolist() for _ in range(3)]
        design = _hadamard_design([*sums, lone[:1], lone[1:]], rng.choice(rest, size=2, replace=False).tolist())
        if _ties_at_the_head_cut(design):
            return design
    raise AssertionError("no design of seeds 0-19 ties at the head cut")


DESIGNS = {
    "orthogonal": lambda: make_orthogonal_design([0.6, 0.4, 0.2], n=8),
    "pair": lambda: make_pair_design(0.5, 0.5, 0.5, n=8),
    "suppressor6": lambda: gram_factory(suppressor_population(6, 1.0, 3.0), 10),
    "duplicated_column": _duplicated_column_design,
    "hadamard_pairs": lambda: _hadamard_design([(1,), (0, 1), (5,), (4, 5)], (0, 4)),
    "hadamard_mix": lambda: _hadamard_design([(0, 2, 5, 6), (0, 1, 3, 5), (1, 6), (1, 3, 5)], (2, 5)),
    # both violation lists tie between their 10th and 11th rows
    "hadamard_tie": _hadamard_tie_design,
    "n_is_m_plus_2": lambda: make_noisy_design(9, n=7, m=5),
    "single_feature": lambda: make_noisy_design(3, n=10, m=1),
}
for _m in range(4, 8):
    DESIGNS[f"noisy_m{_m}"] = lambda m=_m: make_noisy_design(300 + m, n=24, m=m)
# The fit kernel's degenerate designs: fit_table fits their untrusted subsets
# by fit_block, and their gains there are table differences.
for _name in ("near_collinear_pair", "n_below_m_plus_1", "interpolating"):
    DESIGNS[_name] = FIT_KERNEL_DESIGNS[_name]


@pytest.fixture(params=["miller", *DESIGNS])
def design(request, miller_design):
    if request.param == "miller":
        return miller_design
    return DESIGNS[request.param]()


@pytest.mark.parametrize("mode", oracle.MODES)
def test_check_submodular_matches_oracle(design, mode):
    # The second-order list must equal the oracle's. The definition and
    # first-order forms are equivalent inequalities the package does not
    # check: on every design the oracle finds them violated iff the
    # package's second-order list is nonempty.
    got = oracle.rows(whole_lists(design)[0])
    expected = oracle.check_submodular(design, mode)
    if mode == "second_order":
        assert got == expected
    else:
        assert bool(got) is bool(expected)


def test_find_suppressors_matches_oracle(design):
    assert oracle.rows(whole_lists(design)[1]) == oracle.find_suppressors(design)


def test_gamma_s2_matches_oracle(design):
    table = fit_table(design)
    assert setfun.empirical_gamma_s2(table) == oracle.empirical_gamma_s2(table)


def test_gamma_s_matches_oracle(design):
    table = fit_table(design)
    assert setfun.empirical_gamma_s(table) == oracle.empirical_gamma_s(table)


def test_any_violation_matches_certificate_list(design):
    expected = bool(oracle.check_submodular(design, "second_order"))
    assert bool(whole_lists(design)[0]) is expected


def test_tolerance_edge_matches_oracle(design):
    # A tolerance equal to an observed deficit must exclude exactly that
    # comparison in both implementations.
    certs = oracle.check_submodular(design, "second_order", tolerance=0.0)
    edge = certs[len(certs) // 2].deficit if certs else setfun.VIOLATION_TOL
    assert oracle.rows(whole_lists(design, tolerance=edge)[0]) == oracle.check_submodular(
        design, tolerance=edge
    )


def _assert_summary_matches_oracle(d, tolerance):
    # One walk gives gamma_s2, the row counts and both heads: they must equal
    # what the oracle's whole lists give, ties at the head's cut included.
    summary = setfun._second_order_summary(fit_table(d), tolerance)
    assert summary.gamma == oracle.empirical_gamma_s2(fit_table(d))
    second = oracle.check_submodular(d, tolerance=tolerance)
    suppression = oracle.find_suppressors(d, tolerance=tolerance)
    for certs in (second, suppression):
        count, by_size, by_pair = row_counts(certs, d.m)
        assert summary.count == count
        assert summary.by_size.tolist() == by_size.tolist() and summary.by_pair.tolist() == by_pair.tolist()
    top = setfun.TOP_CERTIFICATES
    assert list(map(repr, oracle.rows(summary.second_order))) == list(map(repr, second[:top]))
    assert list(map(repr, oracle.rows(summary.suppression))) == list(map(repr, suppression[:top]))


def test_second_order_summary_matches_oracle(design):
    certs = oracle.check_submodular(design, "second_order", tolerance=0.0)
    edge = certs[len(certs) // 2].deficit if certs else setfun.VIOLATION_TOL
    for tolerance in (setfun.VIOLATION_TOL, edge):
        _assert_summary_matches_oracle(design, tolerance)


def test_second_order_summary_matches_oracle_at_the_mirror_edges():
    # the design and tolerances of test_setfun.py's mirror-row edge test
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 6))
    d = standardize(X, X[:, 0] + rng.standard_normal(40))
    own = {}
    for c in oracle.check_submodular(d, tolerance=0.0):
        sets = c.set_dict()
        own[sets["A"], sets["i"][0], sets["j"][0]] = c.rhs - c.lhs
    edges = [6.18786654161e-05]
    edges += [min(gap, own[a, j, i]) for (a, i, j), gap in own.items() if i < j and gap != own[a, j, i]][:5]
    for tolerance in edges:
        _assert_summary_matches_oracle(d, tolerance)


def test_hadamard_tie_ties_at_the_head_cut():
    # the summary's heads keep every row tied with the running cut, so the
    # other tests run a design whose heads end in such a tie
    assert _ties_at_the_head_cut(DESIGNS["hadamard_tie"]())


def test_kernels_match_oracle_without_a_gain_table(design, monkeypatch):
    # Above regress.GAIN_TABLE_BYTES the fill keeps no gain table and every
    # gain is a table difference; a zero budget sends each design that way.
    monkeypatch.setattr(regress, "GAIN_TABLE_BYTES", 0)
    table = fit_table(design)
    assert table.gains is None
    masks = np.arange(1 << design.m)
    for i in range(design.m):
        assert np.array_equal(table.gain(i), table.r2[masks | (1 << i)] - table.r2)
    second, suppression = whole_lists(design, table=table)
    assert oracle.rows(second) == oracle.check_submodular(design, table=table)
    assert oracle.rows(suppression) == oracle.find_suppressors(design, table=table)
    assert setfun.empirical_gamma_s2(table) == oracle.empirical_gamma_s2(table)
    assert setfun.empirical_gamma_s(table) == oracle.empirical_gamma_s(table)


def test_one_table_serves_every_kernel():
    d = make_noisy_design(61, n=20, m=5)
    table = fit_table(d)
    r2, gains = table.r2.copy(), table.gains.copy()
    assert r2.size == 1 << d.m and table.m == d.m
    assert not table.r2.flags.writeable and not table.gains.flags.writeable
    first = setfun.empirical_gamma_s2(table)
    assert first == setfun.empirical_gamma_s2(fit_table(d))
    whole_lists(d, table=table)
    setfun.empirical_gamma_s(table)
    assert np.array_equal(table.r2, r2) and np.array_equal(table.gains, gains)
    assert setfun.empirical_gamma_s2(table) == first
    # The table is the sweep walk's, held to the fit kernel's contract: R^2
    # within 1e-12 of a direct fit, and every subset it takes from the walk
    # of full rank |S|.
    trusted = _table_walk(d)
    for mask in range(1 << d.m):
        direct = fit_entry(d, indices_of(mask))
        assert abs(table.r2[mask] - direct.r_squared) <= 1e-12
        if trusted[mask]:
            assert direct.rank == bin(mask).count("1")


def test_lex_rank_orders_index_tuples():
    m = 6
    masks = np.arange(1 << m)
    ranks = setfun._lex_rank(masks, m)
    expected = sorted(range(1 << m), key=indices_of)
    assert [int(v) for v in np.argsort(ranks)] == expected


def _walk_order(cert):
    """A certificate's place in the pair walk: its pair (lo, hi), then its
    orientation, (A, lo, hi) before (A, hi, lo), then its set's mask."""
    (_, sets), (_, (i,)), (_, (j,)) = cert.sets
    return min(i, j), max(i, j), i > j, oracle.mask_of(sets)


def _oracle_summary(d, tolerance, sink):
    """The second-order summary, read off the oracle's whole lists, whose
    rows it hands the sink as the walk does: in walk order, one pair and
    orientation at a time."""
    second = oracle.check_submodular(d, tolerance=tolerance)
    suppression = oracle.find_suppressors(d, tolerance=tolerance)
    if sink is not None:
        rows = zip(sorted(second, key=_walk_order), sorted(suppression, key=_walk_order))
        for _, chunk in groupby(rows, key=lambda pair: _walk_order(pair[0])[:3]):
            chunk = list(chunk)
            sink(
                as_certificates("second_order", ("A", "i", "j"), [row for row, _ in chunk]),
                as_certificates("suppression", ("S", "i", "j"), [row for _, row in chunk]),
            )
    top = setfun.TOP_CERTIFICATES
    return setfun.SecondOrderSummary(
        oracle.empirical_gamma_s2(fit_table(d)),
        *row_counts(second, d.m),
        as_certificates("second_order", ("A", "i", "j"), second[:top]),
        as_certificates("suppression", ("S", "i", "j"), suppression[:top]),
    )


def _assert_oracle_report_identical(rows, tmp_path, monkeypatch, has_certificates):
    # The oracle's certificate lists drive a whole report and certificate
    # stream, through the same columnar renderer, and must give the kernel's
    # report and stream byte for byte.
    path = tmp_path / "in.csv"
    write_csv(path, *rows)
    args = ["audit", str(path), "--response", "Y", "--k", "3", "--alpha", "3"]
    kernel_args = ["--out", str(tmp_path / "kernel.json"), "--certificates", str(tmp_path / "kernel.jsonl")]
    assert cli.main(args + kernel_args) == 0

    with monkeypatch.context() as patch:
        patch.setattr(cli, "empirical_gamma_s", oracle.empirical_gamma_s)
        # the design the CLI reads back from the CSV
        loaded = standardize(*regress.load_csv(path, "Y"))
        # the oracle's rows reach the stream through the sink; its gamma is the oracle's gamma_s2
        patch.setattr(
            cli, "_second_order_summary", lambda table, tolerance, sink: _oracle_summary(loaded, tolerance, sink)
        )
        oracle_args = ["--out", str(tmp_path / "oracle.json"), "--certificates", str(tmp_path / "oracle.jsonl")]
        assert cli.main(args + oracle_args) == 0
    kernel = (tmp_path / "kernel.json").read_bytes()
    assert kernel == (tmp_path / "oracle.json").read_bytes()
    assert (tmp_path / "kernel.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    assert (json.loads(kernel)["violations"]["suppression"]["count"] > 0) is has_certificates
    assert (b'"top": []' not in kernel) is has_certificates


def test_audit_report_identical_with_oracle(tmp_path, monkeypatch):
    rows = make_noisy_rows(88, n=30, m=6)
    _assert_oracle_report_identical(rows, tmp_path, monkeypatch, has_certificates=True)


# The rows of the fixture designs the report tests write out.
REPORT_ROWS = {
    "suppressor6": lambda: gram_rows(suppressor_population(6, 1.0, 3.0), 10),
    "orthogonal": lambda: make_orthogonal_rows([0.6, 0.4, 0.2], n=8),
    "single_feature": lambda: make_noisy_rows(3, n=10, m=1),
}


@pytest.mark.parametrize(
    "name, has_certificates",
    [("miller", True), ("suppressor6", True), ("orthogonal", False), ("single_feature", False)],
)
def test_audit_report_identical_with_oracle_on_fixtures(
    name, has_certificates, tmp_path, monkeypatch, miller_rows
):
    rows = miller_rows if name == "miller" else REPORT_ROWS[name]()
    _assert_oracle_report_identical(rows, tmp_path, monkeypatch, has_certificates)
