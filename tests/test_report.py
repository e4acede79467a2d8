"""The audit report text and the certificate stream: the top certificates
in the report and every stream line must match the reference encoder
(json.dumps of one dict per certificate) byte for byte, whatever the floats
or the feature names."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import setfun_oracle as oracle
from conftest import make_noisy_design, make_orthogonal_design
from report_oracle import as_certificates, certificate_jsonable, reference_text, row_counts
from test_setfun_oracle import DESIGNS as ORACLE_DESIGNS
from r2audit import (
    best_subset,
    cli,
    fit_table,
    forward_stepwise,
    gram_factory,
    nwf_verdict,
    setfun,
    suppressor_population,
)
from r2audit.bitsets import indices_of
from r2audit.cli import (
    _certificate_texts,
    _violation_summary,
    build_audit_report,
    main,
    report_text,
)
from r2audit.jsonsafe import sanitize
from r2audit.regress import load_csv, standardize
from r2audit.setfun import TOP_CERTIFICATES, VIOLATION_TOL, Certificates, ViolationCertificate
from walk_lists import whole_lists

ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -1.5, 0.0, 1e-7]
ODD_NAMES = ('a"b', "c\\d", "e\tf", "é", "NaN", "\0\0\x000", "", "x")


def _odd_certificates(form="suppression", roles=("S", "i", "j"), count=12):
    rng = np.random.default_rng(4)
    m = len(ODD_NAMES)
    columns = []
    for role in roles:
        high = m if role in ("i", "j") else 1 << m
        values = rng.integers(0, high, count)
        if role not in ("i", "j"):
            values[:2] = 0  # empty sets render as []
        columns.append(values)
    at = np.arange(count)
    lhs, rhs, deficit = (np.array(ODD_FLOATS)[(at + k) % len(ODD_FLOATS)] for k in range(3))
    return Certificates(form, roles, columns, lhs, rhs, deficit)


def _summary_and_reference(certs):
    """A report holding the list's _violation_summary, and the same report
    with its top as the list's head, which reference_text writes as dicts."""
    count, by_size, by_pair = row_counts(certs, len(ODD_NAMES))
    summary = _violation_summary(count, certs[:TOP_CERTIFICATES], by_size, by_pair, ODD_NAMES)
    reference = {**summary, "top": certs[:TOP_CERTIFICATES]}
    return {"violations": {certs.form: summary}}, {"violations": {certs.form: reference}}


def test_odd_floats_render_like_reference():
    for form, roles in [("suppression", ("S", "i", "j")), ("second_order", ("A", "i", "j"))]:
        certs = _odd_certificates(form, roles)
        report, reference = _summary_and_reference(certs)
        text = report_text(report)
        assert text == reference_text(reference, ODD_NAMES)
        assert len(json.loads(text)["violations"][form]["top"]) == TOP_CERTIFICATES < len(certs)
        for token in ('"nan"', '"inf"', '"-inf"', "-0.0", "5e-324", "1e+300", f'"{roles[0]}": []'):
            assert token in text
    values = {"v": [math.nan, -math.inf, np.float64(0.25), np.int64(3), (1, -0.0)]}
    expected = ["{", '  "v": [', '    "nan",', '    "-inf",', "    0.25,", "    3,", "    [", "      1,", "      -0.0"]
    assert report_text(values) == "\n".join(expected + ["    ]", "  ]", "}", ""])


@pytest.mark.parametrize(
    "form, roles",
    [
        ("suppression", ("S", "i", "j")),
        ("definition", ("A", "B")),
        ("second_order", ("A", "i", "j")),
        ("first_order", ("A", "B", "i")),
    ],
)
def test_stream_lines_are_json_dumps_of_each_certificate(form, roles, monkeypatch, miller_design):
    certs = _odd_certificates(form, roles)
    lists = [certs, certs[:0], certs[::-2]]
    if form in oracle.MODES:  # and the list the form's check finds on Miller
        lists.append(as_certificates(form, roles, oracle.check_submodular(miller_design, form)))
    # chunks of 5 rows with one cache of rendered sets, as the stream renders
    # them, so that lists and chunks share sets
    rendered, cache, texts = [], {}, []
    monkeypatch.setattr(cli, "indices_of", lambda mask: rendered.append(mask) or indices_of(mask))
    for part in lists:
        for lo in range(0, len(part), 5):
            texts += _certificate_texts(part[lo : lo + 5], ODD_NAMES, cache)
    expected = [
        json.dumps(sanitize(certificate_jsonable(c, ODD_NAMES)), sort_keys=True) for part in lists for c in part
    ]
    assert texts == expected
    # each set's name list is rendered once per stream, whatever its roles
    sets = [values for part in lists for role, values in zip(roles, part.columns) if role not in ("i", "j")]
    assert sorted(rendered) == sorted(set(np.concatenate(sets).tolist()))


def test_empty_certificate_lists_render_as_empty_lists():
    report, reference = _summary_and_reference(_odd_certificates()[4:4])
    text = report_text(report)
    assert text == reference_text(reference, ODD_NAMES)
    assert '"count": 0' in text and '"top": []' in text


@pytest.mark.parametrize("design", ["miller", "suppressor6", "noisy", "orthogonal"])
@pytest.mark.parametrize("max_enum", [20, 2])
def test_audit_report_text_matches_reference(design, max_enum, miller_design):
    # The reference report takes each top list from the scalar oracle.
    d = {
        "miller": lambda: miller_design,
        "suppressor6": lambda: gram_factory(suppressor_population(6, 1.0, 3.0), 10),
        "noisy": lambda: make_noisy_design(7, n=30, m=5),
        "orthogonal": lambda: make_orthogonal_design([0.6, 0.4, 0.2], n=8),
    }[design]()
    report, _ = build_audit_report(d, "in.csv", "Y", 3, max_enum, alpha=3.0)
    reference = dict(report)
    if "violations" in report:
        lists = {"second_order": oracle.check_submodular(d), "suppression": oracle.find_suppressors(d)}
        reference["violations"] = {
            key: {**block, "top": lists[key][:TOP_CERTIFICATES]} for key, block in report["violations"].items()
        }
    assert report_text(report) == reference_text(reference, d.names)


# ---------------------------------------------------------------------------
# Certificates as a sequence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suppressor_design():
    return gram_factory(suppressor_population(6, 1.0, 3.0), 10)


def test_certificates_sequence_contract(suppressor_design):
    certs = whole_lists(suppressor_design)[1]
    expected = oracle.find_suppressors(suppressor_design)
    n = len(expected)
    assert n > 10 and len(certs) == n
    assert expected == certs  # the list's comparison defers to Certificates
    assert certs != expected[:-1] and certs != expected[::-1]
    for k in (0, 3, n - 1, -1, -2, -n):
        assert isinstance(certs[k], ViolationCertificate)
        assert certs[k] == expected[k]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            certs[k]
    for part in (slice(2, 5), slice(None, None, -3), slice(-4, None), slice(5, 5), slice(n, None)):
        assert isinstance(certs[part], Certificates)
        assert certs[part] == expected[part]
        assert list(certs[part]) == expected[part]
    empty = certs[5:5]
    assert len(empty) == 0 and not empty and empty == [] and list(empty) == []
    assert certs and certs[-3:][1:] == expected[-2:]
    with pytest.raises(ValueError):
        certs.deficit[0] = 0.0


def test_yielded_certificates_replay(suppressor_design):
    certs = whole_lists(suppressor_design)[1]
    for cert in [*certs[:5], certs[-1], *certs[::-7]]:
        lhs, rhs = oracle.replay_certificate(suppressor_design, cert)
        assert abs(lhs - cert.lhs) < 1e-10
        assert abs(rhs - cert.rhs) < 1e-10


def test_empty_result_is_falsy_and_equals_empty_list(orthogonal_design):
    certs = whole_lists(orthogonal_design)[1]
    assert isinstance(certs, Certificates)
    assert not certs and len(certs) == 0
    assert certs == [] and [] == certs and certs == ()
    assert certs[:3] == [] and list(certs) == []
    with pytest.raises(IndexError):
        certs[0]


def test_as_certificates_round_trips(suppressor_design):
    expected = oracle.find_suppressors(suppressor_design)
    assert as_certificates("suppression", ("S", "i", "j"), expected) == expected


# ---------------------------------------------------------------------------
# Heads of a list against the full sort
# ---------------------------------------------------------------------------


def _texts(certs):
    # rows compare by repr, so that NaN deficits compare too
    return list(map(repr, certs))


@pytest.mark.parametrize("name", ["miller", "suppressor6", "hadamard_pairs", "hadamard_mix", "noisy_m6"])
def test_heads_match_full_sort_on_designs(name, miller_design, monkeypatch):
    d = miller_design if name == "miller" else ORACLE_DESIGNS[name]()
    table = fit_table(d)
    second, suppression = oracle.check_submodular(d), oracle.find_suppressors(d)
    # mirror images (A, i, j) and (A, j, i) share a deficit and sit together,
    # so some cut falls between the two
    mirrors = [
        a.set_dict()["A"] == b.set_dict()["A"] and a.set_dict()["i"] == b.set_dict()["j"]
        for a, b in zip(second, second[1:])
    ]
    assert any(mirrors)
    # the heads the walk keeps are the first rows of the full sort, at every
    # cut up to three default heads and at the list's end
    for top in sorted({*range(3 * TOP_CERTIFICATES), *range(len(second) - 1, len(second) + 2), len(second) + 10}):
        monkeypatch.setattr(setfun, "TOP_CERTIFICATES", top)
        summary = setfun._second_order_summary(table, VIOLATION_TOL)
        assert isinstance(summary.second_order, Certificates) and isinstance(summary.suppression, Certificates)
        assert _texts(summary.second_order) == _texts(second[:top]), top
        assert _texts(summary.suppression) == _texts(suppression[:top]), top


def _synthetic(deficits, m=5, seed=0):
    """Certificates over random (S, i, j) with the given deficits, in
    storage order, and the list a full sort gives: by deficit, largest first
    and NaN last, then by the index sets, stable in storage order."""
    rng = np.random.default_rng(seed)
    count = len(deficits)
    s, i, j = rng.integers(0, 1 << m, count), rng.integers(0, m, count), rng.integers(0, m, count)
    lhs, rhs = np.zeros(count), np.array(deficits, dtype=float)
    rows = [
        ViolationCertificate("suppression", (("S", indices_of(a)), ("i", (b,)), ("j", (c,))), 0.0, d, d)
        for a, b, c, d in zip(s.tolist(), i.tolist(), j.tolist(), rhs.tolist())
    ]
    expected = sorted(rows, key=lambda c: (math.isnan(c.deficit), -c.deficit if c.deficit == c.deficit else 0.0, c.sets))
    return Certificates("suppression", ("S", "i", "j"), [s, i, j], lhs, rhs, rhs - lhs), expected


@pytest.mark.parametrize(
    "deficits",
    [
        [0.5] * 40,  # all deficits equal
        np.random.default_rng(1).choice([0.5, 0.25, 0.125, 0.0625], 60),  # ties straddle every cut
        np.random.default_rng(2).uniform(0.0, 1.0, 50),  # no ties
        [0.25, math.nan, 0.5, 0.25, math.nan, -0.0, 0.0, 0.5, 1e-300, math.nan],  # NaN sorts last
        [],
        [0.75],
        [math.nan, 0.5, 0.25] * 6,  # NaN rows past the head, ties at 0.25 straddling its cut
    ],
)
def test_heads_match_full_sort_on_synthetic_lists(deficits, monkeypatch):
    # The row store keeps the head's rows from one offer of the whole list,
    # and from offers of 3, 1, 4, 1, 5, 9, 2 and 6 rows in turn, its cut
    # moving between them, at every cut.
    certs, expected = _synthetic(deficits)
    columns = [*certs.columns, certs.lhs, certs.rhs, certs.deficit]
    for top in [*range(len(expected) + 2), len(expected) + 10]:
        monkeypatch.setattr(setfun, "TOP_CERTIFICATES", top)
        for sizes in ([len(certs)], [3, 1, 4, 1, 5, 9, 2, 6] * 10):
            rows = setfun._Rows(certs.form, certs.roles, 5)
            bounds = np.cumsum([0, *sizes])
            for lo, hi in zip(bounds, bounds[1:]):
                if lo < len(certs):
                    rows.offer(np.ones(min(hi, len(certs)) - lo, bool), *[values[lo:hi] for values in columns])
            head = rows.head()
            assert isinstance(head, Certificates) and _texts(head) == _texts(expected[:top]), (top, sizes)


@pytest.mark.parametrize("stream", [True, False])
def test_audit_walks_the_feature_pairs_once(stream, tmp_path, monkeypatch):
    # gamma_s2, both violation summaries and the certificate stream come
    # from one walk over the feature pairs
    walks = []
    pair_gains = setfun._pair_gains

    def counted(table):
        walks.append(table.m)
        return pair_gains(table)

    monkeypatch.setattr(setfun, "_pair_gains", counted)
    path = tmp_path / "in.csv"
    assert main(["gen", "gaussian", "--n", "40", "--m", "7", "--out", str(path)]) == 0
    args = ["audit", str(path), "--response", "Y", "--k", "3", "--out", str(tmp_path / "r.json")]
    if stream:
        args += ["--certificates", str(tmp_path / "certs.jsonl")]
    assert main(args) == 0
    assert walks == [7]
    if stream:
        count = json.loads((tmp_path / "r.json").read_text())["violations"]["second_order"]["count"]
        lines = (tmp_path / "certs.jsonl").read_text().splitlines()
        assert count > 0 and len(lines) == 2 * count


@pytest.mark.parametrize("stream", [True, False])
def test_audit_asks_for_the_second_order_summary_once(stream, tmp_path, monkeypatch):
    # counted wherever it is called from: the audit or a setfun kernel
    calls = []
    summary = setfun._second_order_summary

    def counted(table, tolerance, sink=None):
        calls.append(sink is not None)
        return summary(table, tolerance, sink)

    monkeypatch.setattr(cli, "_second_order_summary", counted)
    monkeypatch.setattr(setfun, "_second_order_summary", counted)
    path = tmp_path / "in.csv"
    assert main(["gen", "gaussian", "--n", "40", "--m", "6", "--out", str(path)]) == 0
    args = ["audit", str(path), "--response", "Y", "--k", "3", "--out", str(tmp_path / "r.json")]
    if stream:
        args += ["--certificates", str(tmp_path / "certs.jsonl")]
    assert main(args) == 0
    assert calls == [stream]


# ---------------------------------------------------------------------------
# The audit's greedy guarantee check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["orthogonal", "miller", "suppressor6"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_audit_nwf_block_equals_nwf_check(design, k, miller_design):
    d = {
        "orthogonal": lambda: make_orthogonal_design([0.6, 0.4, 0.2], n=8),
        "miller": lambda: miller_design,
        "suppressor6": lambda: gram_factory(suppressor_population(6, 1.0, 3.0), 10),
    }[design]()
    report, _ = build_audit_report(d, "in.csv", "Y", k, 20)
    # the greedy and optimal fits of select's two searches
    greedy = forward_stepwise(d, k).final_r_squared()
    expected = nwf_verdict(greedy, best_subset(d, k).r_squared, not whole_lists(d)[0])
    fields = ("greedy_r2", "optimal_r2", "ratio", "threshold", "guarantee_holds", "is_submodular")
    assert report["selection"]["nwf"] == {f: getattr(expected, f) for f in fields}


# ---------------------------------------------------------------------------
# The audit's memory
# ---------------------------------------------------------------------------


def test_audit_without_certificates_peaks_near_the_table_fill(tmp_path):
    # Without a certificate stream the audit summarizes the violations as it
    # walks the pairs, so no step holds memory that grows with the number of
    # violations: its peak stays near the fill's (O(m 2^m)).
    path = tmp_path / "in.csv"
    assert main(["gen", "gaussian", "--n", "200", "--m", "14", "--out", str(path)]) == 0
    d = standardize(*load_csv(path, "Y"))
    tracemalloc.start()
    try:
        fit_table(d, 20)
        fill = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        build_audit_report(d, str(path), "Y", 3, 20)
        audit = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit <= 1.25 * fill, (audit, fill)
