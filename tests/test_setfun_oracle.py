"""Differential tests: the dense-table kernels against the scalar walks.

Every comparison is ``==``, so values, witnesses, skip counts and the order
of certificate lists must agree bit for bit.
"""

import json

import numpy as np
import pytest

import setfun_oracle as oracle
from conftest import make_noisy_design, make_orthogonal_design, make_pair_design
from reader_oracle import fit_entry
from report_oracle import as_certificates, row_counts
from test_fit_kernel import DESIGNS as FIT_KERNEL_DESIGNS
from r2audit import FitCache, gram_factory, standardize, suppressor_population
from r2audit import cli, regress, setfun
from r2audit.bitsets import indices_of
from r2audit.datasets import write_csv


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


DESIGNS = {
    "orthogonal": lambda: make_orthogonal_design([0.6, 0.4, 0.2], n=8),
    "pair": lambda: make_pair_design(0.5, 0.5, 0.5, n=8),
    "suppressor6": lambda: gram_factory(suppressor_population(6, 1.0, 3.0), 10),
    "duplicated_column": _duplicated_column_design,
    "hadamard_pairs": lambda: _hadamard_design([(1,), (0, 1), (5,), (4, 5)], (0, 4)),
    "hadamard_mix": lambda: _hadamard_design([(0, 2, 5, 6), (0, 1, 3, 5), (1, 6), (1, 3, 5)], (2, 5)),
    # both violation lists tie between their 10th and 11th rows
    "hadamard_tie": lambda: _hadamard_design([(3, 6), (1,), (1, 4, 5), (1, 2, 4)], (2, 5)),
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


@pytest.mark.parametrize("mode", setfun.MODES)
def test_check_submodular_matches_oracle(design, mode):
    assert setfun.check_submodular(design, mode) == oracle.check_submodular(design, mode)


def test_find_suppressors_matches_oracle(design):
    assert setfun.find_suppressors(design) == oracle.find_suppressors(design)


def test_gamma_s2_matches_oracle(design):
    assert setfun.empirical_gamma_s2(design) == oracle.empirical_gamma_s2(design)


def test_gamma_s_matches_oracle(design):
    assert setfun.empirical_gamma_s(design) == oracle.empirical_gamma_s(design)


def test_any_violation_matches_certificate_list(design):
    expected = bool(oracle.check_submodular(design, "second_order"))
    assert bool(setfun.check_submodular(design)) is expected


def test_tolerance_edge_matches_oracle(design):
    # A tolerance equal to an observed deficit must exclude exactly that
    # comparison in both implementations.
    certs = oracle.check_submodular(design, "second_order", tolerance=0.0)
    edge = certs[len(certs) // 2].deficit if certs else setfun.VIOLATION_TOL
    assert setfun.check_submodular(design, tolerance=edge) == oracle.check_submodular(
        design, tolerance=edge
    )


def _assert_summary_matches_oracle(d, tolerance):
    # One walk gives gamma_s2, the row counts and both heads: they must equal
    # what the oracle's whole lists give, ties at the head's cut included.
    cache = FitCache()
    setfun._table(d, cache, regress.DEFAULT_MAX_FEATURES)
    summary = setfun._second_order_summary(cache, d.m, tolerance)
    assert summary.gamma == oracle.empirical_gamma_s2(d)
    second = oracle.check_submodular(d, tolerance=tolerance)
    suppression = oracle.find_suppressors(d, tolerance=tolerance)
    for certs in (second, suppression):
        count, by_size, by_pair = row_counts(certs, d.m)
        assert summary.count == count
        assert summary.by_size.tolist() == by_size.tolist() and summary.by_pair.tolist() == by_pair.tolist()
    top = setfun.TOP_CERTIFICATES
    assert list(map(repr, summary.second_order)) == list(map(repr, second[:top]))
    assert list(map(repr, summary.suppression)) == list(map(repr, suppression[:top]))


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
    # the summary's heads keep every row tied with the running cut; on this
    # design the last row of each head ties with the first row past it
    d = DESIGNS["hadamard_tie"]()
    top = setfun.TOP_CERTIFICATES
    for certs in (oracle.check_submodular(d), oracle.find_suppressors(d)):
        assert len(certs) > top and certs[top - 1].deficit == certs[top].deficit


def test_kernels_match_oracle_without_a_gain_table(design, monkeypatch):
    # Above regress.GAIN_TABLE_BYTES the fill keeps no gain table and every
    # gain is a table difference; a zero budget sends each design that way.
    monkeypatch.setattr(regress, "GAIN_TABLE_BYTES", 0)
    cache = FitCache()
    table = setfun._table(design, cache, regress.DEFAULT_MAX_FEATURES)
    assert cache.gains is None
    masks = np.arange(1 << design.m)
    for i in range(design.m):
        assert np.array_equal(setfun._gain_row(cache, i), table[masks | (1 << i)] - table)
    for mode in setfun.MODES:
        assert setfun.check_submodular(design, mode, cache=cache) == oracle.check_submodular(
            design, mode, cache=cache
        )
    assert setfun.find_suppressors(design, cache=cache) == oracle.find_suppressors(design, cache=cache)
    assert setfun.empirical_gamma_s2(design, cache=cache) == oracle.empirical_gamma_s2(design, cache=cache)
    assert setfun.empirical_gamma_s(design, cache=cache) == oracle.empirical_gamma_s(design, cache=cache)


def test_table_is_filled_once_per_cache():
    d = make_noisy_design(61, n=20, m=5)
    cache = FitCache()
    first = setfun.empirical_gamma_s2(d, cache=cache)
    table = cache.table
    assert table.size == 1 << d.m
    assert not table.flags.writeable
    setfun.find_suppressors(d, cache=cache)
    setfun.check_submodular(d, "definition", cache=cache)
    assert cache.table is table
    assert setfun.empirical_gamma_s2(d, cache=cache) == first
    # The table is the sweep walk's, held to the fit kernel's contract: R^2
    # within 1e-12 of a direct fit and the same rank.
    for mask in range(1 << d.m):
        direct = fit_entry(d, indices_of(mask))
        assert abs(table[mask] - direct.r_squared) <= 1e-12
        assert cache.ranks[mask] == direct.rank


def test_lex_rank_orders_index_tuples():
    m = 6
    masks = np.arange(1 << m)
    ranks = setfun._lex_rank(masks, m)
    expected = sorted(range(1 << m), key=indices_of)
    assert [int(v) for v in np.argsort(ranks)] == expected


def _oracle_summary(d, tolerance, top):
    """The second-order summary, read off the oracle's whole lists."""
    second = oracle.check_submodular(d, tolerance=tolerance)
    return setfun.SecondOrderSummary(
        oracle.empirical_gamma_s2(d),
        *row_counts(second, d.m),
        as_certificates("second_order", ("A", "i", "j"), second[:top]),
        as_certificates("suppression", ("S", "i", "j"), oracle.find_suppressors(d, tolerance=tolerance)[:top]),
    )


def _assert_oracle_report_identical(d, tmp_path, monkeypatch, has_certificates):
    # The oracle's certificate lists drive a whole report and certificate
    # stream, through the same columnar renderer, and must give the kernel's
    # report and stream byte for byte.
    path = tmp_path / "in.csv"
    write_csv(path, d.features, d.response, d.names)
    args = ["audit", str(path), "--response", "Y", "--k", "3", "--alpha", "3"]
    kernel_args = ["--out", str(tmp_path / "kernel.json"), "--certificates", str(tmp_path / "kernel.jsonl")]
    assert cli.main(args + kernel_args) == 0

    with monkeypatch.context() as patch:
        for fn in ("empirical_gamma_s2", "empirical_gamma_s"):
            patch.setattr(cli, fn, getattr(oracle, fn))
        # the design the CLI reads back from the CSV
        loaded = standardize(*regress.load_csv(path, "Y"))
        # with top=None the summary holds the stream's whole lists
        patch.setattr(
            cli, "_second_order_summary", lambda cache, m, tolerance, top: _oracle_summary(loaded, tolerance, top)
        )
        oracle_args = ["--out", str(tmp_path / "oracle.json"), "--certificates", str(tmp_path / "oracle.jsonl")]
        assert cli.main(args + oracle_args) == 0
    kernel = (tmp_path / "kernel.json").read_bytes()
    assert kernel == (tmp_path / "oracle.json").read_bytes()
    assert (tmp_path / "kernel.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    assert (json.loads(kernel)["violations"]["suppression"]["count"] > 0) is has_certificates
    assert (b'"top": []' not in kernel) is has_certificates


def test_audit_report_identical_with_oracle(tmp_path, monkeypatch):
    d = make_noisy_design(88, n=30, m=6)
    _assert_oracle_report_identical(d, tmp_path, monkeypatch, has_certificates=True)


@pytest.mark.parametrize(
    "name, has_certificates",
    [("miller", True), ("suppressor6", True), ("orthogonal", False), ("single_feature", False)],
)
def test_audit_report_identical_with_oracle_on_fixtures(
    name, has_certificates, tmp_path, monkeypatch, miller_design
):
    d = miller_design if name == "miller" else DESIGNS[name]()
    _assert_oracle_report_identical(d, tmp_path, monkeypatch, has_certificates)
