"""Differential tests of the readers outside the fit table: greedy stepwise
and the submodularity ratio, at two fit_block chunk sizes.

``filled`` picks the reference. Without it, the scalar loops of reader_oracle
must agree with ``==``. With it, the reference is the design's filled
FitTable, which the audit read for both before it asked them as select does;
the values must agree with the table's to rounding.

The audit and select then give one answer per search, field for field, and
only the kernels that read every mask reach the table.
"""

import json

import numpy as np
import pytest

import reader_oracle as oracle
from conftest import make_noisy_design, make_orthogonal_design
from test_fit_kernel import DESIGNS as KERNEL_DESIGNS
from test_selection import TIE_SEEDS, _duplicated_columns_design
from r2audit import RatioQuery, fit_table, forward_stepwise, gram_factory, submodularity_ratio
from r2audit import cli, random_gaussian, regress, selection, standardize, suppressor_population
from r2audit.datasets import write_csv
from r2audit.errors import EmptyCandidateSet


def _untrusted_pick_design():
    # X2 is X1 to 1e-3 and the response follows their difference, so step 3
    # picks a model the sweep does not trust, and step 4 takes a gain after it
    rng = np.random.default_rng(11)
    x0, x2, x3 = rng.standard_normal((3, 30))
    x1 = x0 + 1e-3 * rng.standard_normal(30)
    y = (x1 - x0) / 1e-3 + 0.8 * x2 + 0.3 * x3 + 0.1 * rng.standard_normal(30)
    return standardize(np.column_stack([x0, x1, x2, x3]), y)


DESIGNS = {
    "suppressor6": lambda: gram_factory(suppressor_population(6, 1.0, 3.0), 10),
    "duplicated_column": KERNEL_DESIGNS["duplicated_column"],
    "n_is_m_plus_2": KERNEL_DESIGNS["n_is_m_plus_2"],
    "noisy_m6": lambda: make_noisy_design(91, n=30, m=6),
    **{f"ties_{seed}": lambda seed=seed: _duplicated_columns_design(seed) for seed in TIE_SEEDS},
    "gaussian_m12": lambda: standardize(*random_gaussian(200, 12, seed=7)),
    "untrusted_pick": _untrusted_pick_design,
}

# Table gains are read off the fill's swept matrices, or are differences of
# table values where the fill did not trust a subset; stepwise's differ from
# them in the last bits.
GAIN_TOL = 1e-14
# Candidates whose table gains lie this close may be picked in either order.
TIE_TOL = 1e-12


@pytest.fixture(params=["miller", *DESIGNS])
def design(request, miller_design):
    if request.param == "miller":
        return miller_design
    return DESIGNS[request.param]()


@pytest.fixture(params=[2, 256])
def chunk(request, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", request.param)
    return request.param


def _table_fit(design, filled):
    """The reference's fit of a mask: the filled table's r2, or None for
    reader_oracle's own fits."""
    return fit_table(design).r2.__getitem__ if filled else None


def _assert_near_the_table(design, trace):
    # Along the run's own path: each gain is the table's gain at the same
    # mask to GAIN_TOL, and each pick is the table's largest gain unless
    # another candidate's lies within TIE_TOL of it.
    table = fit_table(design)
    mask = 0
    for step in trace.steps:
        candidates = [j for j in range(design.m) if not mask >> j & 1]
        gains = np.array([table.gain(j)[mask] for j in candidates])
        assert abs(step.delta_r2 - float(table.gain(step.feature)[mask])) <= GAIN_TOL
        top = np.sort(gains)[-2:]
        if top.size < 2 or top[1] - top[0] > TIE_TOL:
            assert step.feature == candidates[int(np.argmax(gains))]
        mask |= 1 << step.feature


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("t_stop", [None, 2.0])
def test_stepwise_matches_the_scalar_loop(design, chunk, filled, t_stop):
    got = forward_stepwise(design, design.m, t_stop=t_stop)
    if filled:
        _assert_near_the_table(design, got)
    else:
        assert got == oracle.forward_stepwise(design, design.m, t_stop)


def test_stepwise_cases_reach_their_edges(miller_design):
    assert forward_stepwise(miller_design, 3).steps[-1].marginal_t == np.inf
    noisy = DESIGNS["noisy_m6"]()
    assert forward_stepwise(noisy, 6, t_stop=2.0).stopping_reason == "t_threshold"


def test_stepwise_reads_miller_step_two_off_the_sweep(miller_design):
    # 1.5999968000064000e-06 to 50 digits; a difference of two fits near 0.2
    # read 1.5999967998558962e-06. The third model is not trusted, so its
    # gain is that difference.
    steps = forward_stepwise(miller_design, 3).steps
    assert abs(steps[1].delta_r2 - 1.5999968000064000e-06) <= 1e-12 * 1.6e-06
    assert steps[2].delta_r2 == steps[2].cumulative_r2 - steps[1].cumulative_r2


def test_stepwise_fits_each_model_once(monkeypatch):
    d = DESIGNS["gaussian_m12"]()
    calls = []
    fit_block = regress.fit_block

    def counted(design, idx):
        calls.append(len(idx))
        return fit_block(design, idx)

    monkeypatch.setattr(selection, "fit_block", counted)
    monkeypatch.setattr(regress, "fit_block", counted)
    forward_stepwise(d, 3)
    assert calls == [1, 1, 1]


# The ratio's reference reads the table's r2: each gain is a difference of
# two fits either way, so the values part only by the table's trusted values'
# rounding, amplified by the smallest joint gain a ratio divides by.
RATIO_TOL = 1e-12


@pytest.mark.parametrize("filled", [False, True])
def test_ratio_matches_the_scalar_loop(design, chunk, filled):
    fit = _table_fit(design, filled)
    for base in ((), (0,)):
        for mode in ("at_most_k", "exactly_k"):
            query = RatioQuery(base, 2, mode)
            got, want = submodularity_ratio(design, query), oracle.submodularity_ratio(design, query, fit)
            if filled:
                assert abs(got.gamma_sr - want.gamma_sr) <= RATIO_TOL * max(1.0, want.gamma_sr), query
            else:
                assert got == want


@pytest.mark.parametrize("filled", [False, True])
def test_ratio_empty_candidate_set_matches_the_scalar_loop(chunk, filled):
    d = make_orthogonal_design([0.0, 0.0], n=6)
    query = RatioQuery((), 2, "exactly_k")
    with pytest.raises(EmptyCandidateSet):
        oracle.submodularity_ratio(d, query, _table_fit(d, filled))
    with pytest.raises(EmptyCandidateSet):
        submodularity_ratio(d, query)


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("subset", [(7,), (5,), (-1,), (3, -2)])
def test_out_of_range_subsets_raise_whether_or_not_the_table_is_filled(filled, subset):
    d = make_noisy_design(94, n=20, m=5)
    query = RatioQuery(subset, 1, "exactly_k")
    with pytest.raises(ValueError):
        oracle.submodularity_ratio(d, query, _table_fit(d, filled))
    with pytest.raises(ValueError):
        submodularity_ratio(d, query)


def _write_duplicated_column(path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 5))
    X[:, 4] = X[:, 1]
    write_csv(path, X, X[:, 0] - 0.5 * X[:, 1] + 0.4 * rng.standard_normal(30))


CROSS_COMMAND = {
    "miller": ["miller"],
    "suppressor3": ["suppressor", "--p", "3"],
    "suppressor6": ["suppressor", "--p", "6"],
    "gaussian_m12": ["gaussian", "--n", "200", "--m", "12", "--seed", "7"],
    "duplicated_column": None,
}


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", list(CROSS_COMMAND))
def test_audit_and_select_give_one_answer(name, tmp_path, monkeypatch):
    csv = tmp_path / "in.csv"
    if CROSS_COMMAND[name] is None:
        _write_duplicated_column(csv)
    else:
        assert cli.main(["gen", *CROSS_COMMAND[name], "--out", str(csv)]) == 0
    select = {}
    for algo in ("stepwise", "best"):
        out = tmp_path / f"{algo}.jsonl"
        assert cli.main(["select", str(csv), "--response", "Y", "--algo", algo, "--k", "3", "--out", str(out)]) == 0
        select[algo] = _lines(out)

    # fit_table fits the subsets its walk does not trust with fit_block;
    # gamma_s2, gamma_s and the certificates read the table it returns, so
    # none of them may reach fit_block outside the fill
    filling, kernels = [], []
    fill, fit_block = regress.fit_table, regress.fit_block

    def filled(design, max_features):
        filling.append(design)
        try:
            return fill(design, max_features)
        finally:
            filling.pop()

    def kernel(function):
        def call(*args, **kwargs):
            kernels.append(function)
            try:
                return function(*args, **kwargs)
            finally:
                kernels.pop()

        return call

    def refuse(*args):
        if kernels and not filling:
            raise AssertionError("a table kernel fitted outside the fill")
        return fit_block(*args)

    monkeypatch.setattr(cli, "fit_table", filled)
    monkeypatch.setattr(cli, "_second_order_summary", kernel(cli._second_order_summary))
    monkeypatch.setattr(cli, "empirical_gamma_s", kernel(cli.empirical_gamma_s))
    monkeypatch.setattr(regress, "fit_block", refuse)
    report = tmp_path / "report.json"
    argv = ["audit", str(csv), "--response", "Y", "--k", "3", "--out", str(report)]
    assert cli.main([*argv, "--certificates", str(tmp_path / "certs.jsonl")]) == 0
    selection = json.loads(report.read_text())["selection"]

    steps = selection["forward_stepwise"]["steps"]
    assert [{"step": rank, **step} for rank, step in enumerate(steps, start=1)] == select["stepwise"]
    best = selection["best_subset"]
    assert [{"algorithm": "best_subset", **best}] == select["best"]
    nwf = selection["nwf"]
    assert (nwf["greedy_r2"], nwf["optimal_r2"]) == (steps[-1]["cumulative_r2"], best["r_squared"])
    assert nwf["greedy_r2"] <= nwf["optimal_r2"]
