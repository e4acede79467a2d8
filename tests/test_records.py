"""The result records are NamedTuples, and the four classes with construction
logic or a cache are plain read-only classes: their fields, order, defaults,
validation, repr and immutability."""

import json
import math

import numpy as np
import pytest

from r2audit import ConeSpec, Grid, RatioQuery, StandardizedDesign, grid_evaluate, standardize
from r2audit.gamma import RatioResult
from r2audit.geometry2d import GridCell, PairDiagnostics, TrianglePoint, TRatioResult
from r2audit.regress import LeastSquaresFit
from row_oracle import standardized_rows
from r2audit.selection import (
    NWF_THRESHOLD,
    BestSubsetResult,
    IsisResult,
    IsisRound,
    NwfResult,
    ScreeningAssumption,
    SelectionStep,
    SelectionTrace,
)
from r2audit.setfun import GammaS2Result, GammaSResult, SecondOrderSummary, ViolationCertificate
from r2audit.spectral import GammaSpectralComparison, RestrictedEigenResult, SparseEigenResult

# (class, every field in order with a sample value, the defaults)
RECORDS = [
    (LeastSquaresFit, {"subset": (0, 2), "coefficients": np.array([0.5, -0.25]),
                       "standard_errors": np.array([0.1, 0.2]), "t_statistics": np.array([5.0, -1.25]),
                       "rss": 0.7, "dof": 7}, {}),
    (ViolationCertificate, {"form": "second_order", "sets": (("A", (0,)), ("i", (1,)), ("j", (2,))),
                            "lhs": 0.1, "rhs": 0.3, "deficit": 0.2}, {}),
    (GammaS2Result, {"gamma_s2": 0.5, "witness_s2": ((0,), 1, 2), "skipped_s2": 1}, {}),
    (GammaSResult, {"gamma_s": math.inf, "witness_s": None, "skipped_s": 0}, {}),
    (SecondOrderSummary, {"gamma": GammaS2Result(0.5, ((0,), 1, 2), 1), "count": 4, "by_size": np.array([2, 2]),
                          "by_pair": np.zeros((3, 3), dtype=np.intp), "second_order": (), "suppression": ()}, {}),
    (RatioResult, {"gamma_sr": 0.75, "argmin": (0, 1), "skipped": 3}, {}),
    (SelectionStep, {"feature": 2, "delta_r2": 0.5, "cumulative_r2": 0.5, "marginal_t": None}, {}),
    (SelectionTrace, {"algorithm": "forward_stepwise", "steps": (SelectionStep(2, 0.5, 0.5, None),),
                      "stopping_reason": "max_steps"}, {}),
    (BestSubsetResult, {"subset": (0, 1), "r_squared": 0.9}, {}),
    (NwfResult, {"greedy_r2": 0.5, "optimal_r2": 0.8, "ratio": 0.625, "guarantee_holds": False,
                 "is_submodular": False, "threshold": NWF_THRESHOLD}, {"threshold": NWF_THRESHOLD}),
    (IsisRound, {"scores": ((1, 0.5), (0, 0.25)), "picked": (1,)}, {}),
    (IsisResult, {"selected": (1,), "rounds": (IsisRound(((1, 0.5),), (1,)),), "skipped": 0}, {}),
    (ScreeningAssumption, {"min_beta_margin": 0.1, "min_visibility": 0.2, "holds": True,
                           "visibilities": ((0, 0.2),)}, {}),
    (SparseEigenResult, {"value": 0.5, "support": (0, 1)}, {}),
    (RestrictedEigenResult, {"value": 0.3, "certificate": np.array([1.0, 0.0]), "is_heuristic": True},
     {"is_heuristic": True}),
    (GammaSpectralComparison, {"gamma_sr": 0.9, "lambda_min": 0.5, "holds": True}, {}),
    (PairDiagnostics, {"r_y1": 0.5, "r_y2": 0.25, "r12": 0.1, "gamma1": 1.0, "gamma2": 0.8, "gamma_s2": 0.8,
                       "gamma_sr": 0.9, "sum_bound": 0.85}, {}),
    (TrianglePoint, {"theta": 1.0, "tau": 0.5, "r2_full": 0.5, "r12": 0.54, "r_y1": 0.6, "r_y2": 0.3, "b": 0.6}, {}),
    (GridCell, {"theta": 1.0, "v": 1.0, "tau": 0.5, "r12": 0.54, "r_y1": 0.6, "r_y2": 0.3, "b": 0.6, "gamma1": 1.0,
                "gamma2": 0.8, "gamma_s2": 0.8, "sum_bound": 0.85, "gamma_sr": 0.9, "t_ratio_bound": 1.2}, {}),
    (TRatioResult, {"lhs": 1.1, "bound": 1.2, "holds": True, "t_marginal_sq": (4.0, 1.0),
                    "t_joint_sq": (4.5, 1.0)}, {}),
]


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_a_named_tuple(cls, values, defaults):
    record = cls(**values)
    assert cls._fields == tuple(values)
    assert cls._field_defaults == defaults
    # iterable, indexable and equal to the plain tuple of its values
    assert cls(*values.values()) == record == tuple(values.values())
    assert list(record) == list(values.values()) and record[0] is values[cls._fields[0]]
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    if defaults:
        assert cls(**{key: values[key] for key in cls._fields if key not in defaults}) == record
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], values[cls._fields[0]])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        cls(*values.values(), None)


def test_record_methods_survive_the_conversion():
    steps = (SelectionStep(2, 0.5, 0.5, 3.0), SelectionStep(0, 0.25, 0.75, None))
    trace = SelectionTrace("forward_stepwise", steps, "max_steps")
    assert trace.selected() == (2, 0) and trace.final_r_squared() == 0.75
    assert SelectionTrace("forward_stepwise", (), "max_steps").final_r_squared() == 0.0
    lines = [json.loads(line) for line in trace.to_json_lines(["a", "b", "c"]).splitlines()]
    assert [(line["step"], line["feature"]) for line in lines] == [(1, "c"), (2, "a")]
    cert = ViolationCertificate("second_order", (("A", (0,)), ("i", (1,)), ("j", (2,))), 0.1, 0.3, 0.2)
    assert cert.set_dict() == {"A": (0,), "i": (1,), "j": (2,)}


def _assert_read_only(obj, fields):
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_ratio_query_fields_defaults_and_validation():
    query = RatioQuery(base=(3, 1, 3), k=2)
    assert (query.base, query.k, query.mode) == ((1, 3), 2, "at_most_k")
    assert RatioQuery((1, 3), 2, "at_most_k") == query and hash(RatioQuery((3, 1), 2)) == hash(query)
    assert RatioQuery((1, 3), 2, "exactly_k") != query
    assert repr(query) == "RatioQuery(base=(1, 3), k=2, mode='at_most_k')"
    with pytest.raises(ValueError, match="k must be at least 1"):
        RatioQuery((), 0)
    with pytest.raises(ValueError, match="unknown mode 'some'"):
        RatioQuery((), 1, "some")
    _assert_read_only(query, ("base", "k", "mode"))


def test_cone_spec_fields_and_validation():
    cone = ConeSpec(subset=(2, 0, 2), alpha=3.0)
    assert (cone.subset, cone.alpha) == ((0, 2), 3.0)
    assert ConeSpec((0, 2), 3.0) == cone and hash(ConeSpec((2, 0), 3.0)) == hash(cone)
    assert ConeSpec((0, 2), 4.0) != cone
    assert repr(cone) == "ConeSpec(subset=(0, 2), alpha=3.0)"
    assert ConeSpec((0,), math.inf).alpha == math.inf
    with pytest.raises(ValueError, match="nonempty"):
        ConeSpec((), 2.0)
    for alpha in (0.5, math.nan, -math.inf):
        with pytest.raises(ValueError, match="alpha must be at least 1"):
            ConeSpec((0,), alpha)
    _assert_read_only(cone, ("subset", "alpha"))


def test_standardized_design_fields_and_validation():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((6, 2)), rng.standard_normal(6)
    X, y, names = standardized_rows(*raw, ("a", "b"))
    design = standardize(*raw, ("a", "b"))
    again = StandardizedDesign(features=X, response=y, names=names)
    # both fold their rows into a triangle, but from differently rounded
    # columns, and R's row signs are arbitrary: compare R^T R
    assert again.names == ("a", "b") and np.abs(again.gram() - design.gram()).max() <= 1e-14
    assert (design.n, design.m, design.triangle.shape) == (6, 2, (3, 3))
    assert again != design and again == again  # equal only to itself
    assert not again.triangle.flags.writeable
    assert repr(design) == f"StandardizedDesign(triangle={design.triangle!r}, n=6, names=('a', 'b'))"
    with pytest.raises(ValueError, match="names must match"):
        StandardizedDesign(X, y, ("a",))
    with pytest.raises(ValueError, match="length-n response"):
        StandardizedDesign(X, y[:-1], ("a", "b"))
    with pytest.raises(ValueError, match="not centered to unit norm"):
        StandardizedDesign(2 * X, y, ("a", "b"))
    _assert_read_only(design, ("triangle", "n", "names", "m"))


def test_grid_fields():
    grid = grid_evaluate(4, 4, 0.5)
    assert isinstance(grid, Grid) and grid.theta_rows == range(3) and len(grid) == len(list(grid))
    assert repr(grid) == f"Grid(columns={grid.columns!r}, theta_rows=range(0, 3))"
    assert Grid(grid.columns, grid.theta_rows) != grid
    _assert_read_only(grid, ("columns", "theta_rows"))
