"""The result records are NamedTuples, and the two classes with construction
logic or a cache are plain read-only classes: their fields, order, defaults,
validation, repr and immutability. The records of the tests' oracles and
checks are held to the same shape."""

import json
import math

import numpy as np
import pytest

from r2audit import Grid, StandardizedDesign, cli, grid_evaluate, standardize
from r2audit.datasets import write_csv
from r2audit.gamma import RatioResult
from r2audit.geometry2d import GridCell
from grid_oracle import PairDiagnostics, TrianglePoint
from r2audit.regress import LeastSquaresFit
from row_oracle import standardized_rows
from r2audit.selection import (
    NWF_THRESHOLD,
    BestSubsetResult,
    IsisResult,
    IsisRound,
    NwfResult,
    SelectionStep,
    SelectionTrace,
)
from r2audit.setfun import GammaS2Result, GammaSResult, SecondOrderSummary
from setfun_oracle import ViolationCertificate
from r2audit.spectral import RestrictedEigenResult, SparseEigenResult
from population_checks import GammaSpectralComparison, ScreeningAssumption
from t_ratio import TRatioResult

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


def test_record_methods_survive_the_conversion(tmp_path, monkeypatch):
    steps = (SelectionStep(2, 0.5, 0.5, 3.0), SelectionStep(0, 0.25, 0.75, None))
    trace = SelectionTrace("forward_stepwise", steps, "max_steps")
    assert trace.selected() == (2, 0) and trace.final_r_squared() == 0.75
    assert SelectionTrace("forward_stepwise", (), "max_steps").final_r_squared() == 0.0
    # select writes the trace's steps in order, each with its rank
    csv, out = tmp_path / "abc.csv", tmp_path / "steps.jsonl"
    write_csv(csv, np.random.default_rng(0).standard_normal((8, 3)), np.arange(8.0), ["a", "b", "c"])
    monkeypatch.setattr(cli, "forward_stepwise", lambda design, k: trace)
    assert cli.main(["select", str(csv), "--response", "Y", "--algo", "stepwise", "--k", "2", "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
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


def test_standardized_design_fields_and_validation():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((6, 2)), rng.standard_normal(6)
    X, y, names = standardized_rows(*raw, ("a", "b"))
    design = standardize(*raw, ("a", "b"))
    again = standardize(X, y, names)
    # both fold their rows into a triangle, but from differently rounded
    # columns, and R's row signs are arbitrary: compare R^T R
    assert again.names == ("a", "b") and np.abs(again.gram() - design.gram()).max() <= 1e-14
    assert (design.n, design.m, design.triangle.shape) == (6, 2, (3, 3))
    assert again != design and again == again  # equal only to itself
    assert not again.triangle.flags.writeable
    # the constructor holds what it is given, the triangle made read-only
    triangle = design.triangle.copy()
    held = StandardizedDesign(triangle, 6, names)
    assert held.triangle is triangle and (held.n, held.names) == (6, names) and not triangle.flags.writeable
    assert repr(design) == f"StandardizedDesign(triangle={design.triangle!r}, n=6, names=('a', 'b'))"
    with pytest.raises(ValueError, match="names must match"):
        standardize(X, y, ("a",))
    with pytest.raises(ValueError, match="length-n response"):
        standardize(X, y[:-1], ("a", "b"))
    _assert_read_only(design, ("triangle", "n", "names", "m"))


def test_grid_fields():
    grid = grid_evaluate(4, 4, 0.5)
    assert isinstance(grid, Grid) and grid.theta_rows == range(3) and len(grid) == len(list(grid))
    assert repr(grid) == f"Grid(columns={grid.columns!r}, theta_rows=range(0, 3))"
    assert Grid(grid.columns, grid.theta_rows) != grid
    _assert_read_only(grid, ("columns", "theta_rows"))
