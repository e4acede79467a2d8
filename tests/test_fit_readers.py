"""Differential tests: stepwise and the submodularity ratio, which read every
fit as a table read or one batched fit_block call, against the scalar
one-subset-at-a-time loops of reader_oracle, with ``==``.

Each comparison runs with an empty cache, where both sides fit directly,
and with a filled one, where both read the kernel's tables, at two
fit_block chunk sizes. The audit's own fits never reach fit_block outside
the table fill.
"""

import numpy as np
import pytest

import reader_oracle as oracle
from conftest import make_noisy_design, make_orthogonal_design
from test_fit_kernel import DESIGNS as KERNEL_DESIGNS
from test_selection import TIE_SEEDS, _duplicated_columns_design
from r2audit import FitCache, RatioQuery, forward_stepwise, gram_factory, submodularity_ratio
from r2audit import cli, regress, setfun, suppressor_population
from r2audit.errors import EmptyCandidateSet

DESIGNS = {
    "suppressor6": lambda: gram_factory(suppressor_population(6, 1.0, 3.0), 10),
    "duplicated_column": KERNEL_DESIGNS["duplicated_column"],
    "n_is_m_plus_2": KERNEL_DESIGNS["n_is_m_plus_2"],
    "noisy_m6": lambda: make_noisy_design(91, n=30, m=6),
    **{f"ties_{seed}": lambda seed=seed: _duplicated_columns_design(seed) for seed in TIE_SEEDS},
}


@pytest.fixture(params=["miller", *DESIGNS])
def design(request, miller_design):
    if request.param == "miller":
        return miller_design
    return DESIGNS[request.param]()


@pytest.fixture(params=[2, 256])
def chunk(request, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", request.param)
    return request.param


def _cache(design, filled):
    cache = FitCache()
    if filled:
        setfun._table(design, cache, regress.DEFAULT_MAX_FEATURES)
    return cache


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("t_stop", [None, 2.0])
def test_stepwise_matches_the_scalar_loop(design, chunk, filled, t_stop):
    cache = _cache(design, filled)
    got = forward_stepwise(design, design.m, t_stop=t_stop, cache=cache)
    assert got == oracle.forward_stepwise(design, design.m, t_stop, cache)


def test_stepwise_cases_reach_their_edges(miller_design):
    assert forward_stepwise(miller_design, 3).steps[-1].marginal_t == np.inf
    noisy = DESIGNS["noisy_m6"]()
    assert forward_stepwise(noisy, 6, t_stop=2.0).stopping_reason == "t_threshold"


@pytest.mark.parametrize("filled", [False, True])
def test_ratio_matches_the_scalar_loop(design, chunk, filled):
    cache = _cache(design, filled)
    for base in ((), (0,)):
        for mode in ("at_most_k", "exactly_k"):
            query = RatioQuery(base, 2, mode)
            assert submodularity_ratio(design, query, cache) == oracle.submodularity_ratio(design, query, cache)


@pytest.mark.parametrize("filled", [False, True])
def test_ratio_empty_candidate_set_matches_the_scalar_loop(chunk, filled):
    d = make_orthogonal_design([0.0, 0.0], n=6)
    cache = _cache(d, filled)
    query = RatioQuery((), 2, "exactly_k")
    with pytest.raises(EmptyCandidateSet):
        oracle.submodularity_ratio(d, query, cache)
    with pytest.raises(EmptyCandidateSet):
        submodularity_ratio(d, query, cache)


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("subset", [(7,), (5,), (-1,), (3, -2)])
def test_out_of_range_subsets_raise_whether_or_not_the_table_is_filled(filled, subset):
    d = make_noisy_design(94, n=20, m=5)
    cache = _cache(d, filled)
    with pytest.raises(ValueError):
        submodularity_ratio(d, RatioQuery(subset, 1, "exactly_k"), cache)


def test_audit_fits_come_from_the_table(monkeypatch):
    d = make_noisy_design(95, n=40, m=7)
    expected = cli.build_audit_report(d, "x.csv", "Y", 3, 20, alpha=3.0)

    # fit_table fits the subsets its walk does not trust with fit_block; no
    # other audit fit may reach it
    filling = []
    fill, fit_block = regress.fit_table, regress.fit_block

    def fit_table(design):
        filling.append(design)
        try:
            return fill(design)
        finally:
            filling.pop()

    def refuse(*args):
        if not filling:
            raise AssertionError("an audit fit bypassed the table")
        return fit_block(*args)

    monkeypatch.setattr(regress, "fit_table", fit_table)
    monkeypatch.setattr(regress, "fit_block", refuse)
    assert cli.build_audit_report(d, "x.csv", "Y", 3, 20, alpha=3.0) == expected
