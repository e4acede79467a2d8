"""Exception hierarchy for design construction and enumeration limits."""

from __future__ import annotations


class AuditError(Exception):
    """Base class for all package errors."""


class DataFormatError(AuditError):
    """CSV input cannot be parsed into a numeric design."""


class ConstantColumn(AuditError):
    """A column (or the response, index -1) has zero variance."""

    def __init__(self, index: int):
        self.index = index
        label = "response" if index < 0 else f"column {index}"
        super().__init__(f"{label} is constant; cannot standardize")


class DegenerateResidual(AuditError):
    """A feature lies in the span of its conditioning set."""

    def __init__(self, feature: int, conditioners: tuple[int, ...]):
        self.feature = feature
        self.conditioners = conditioners
        super().__init__(
            f"feature {feature} is degenerate after adjusting for {list(conditioners)}"
        )


class RankDeficient(AuditError):
    """The requested subset's columns are not linearly independent."""

    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset
        super().__init__(f"subset {list(subset)} is rank deficient")


class InsufficientDof(AuditError):
    """Not enough observations for residual degrees of freedom."""

    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset
        super().__init__(f"subset {list(subset)} leaves no residual degrees of freedom")


class NotPSD(AuditError):
    """A matrix required to be positive semidefinite is not."""


class TooFewRows(AuditError):
    """Sample size too small for an exact-Gram embedding."""


class TooManyFeatures(AuditError):
    """An exhaustive enumeration was requested above the configured cap."""

    def __init__(self, m: int, cap: int):
        self.m = m
        self.cap = cap
        super().__init__(f"m={m} exceeds the enumeration cap {cap}")


class EmptyCandidateSet(AuditError):
    """Every candidate set was skipped (all denominators negligible)."""


class InfeasibleCorrelations(AuditError):
    """A correlation triple implies a joint fit above 1."""


class InfeasibleAngles(AuditError):
    """Angles do not describe a valid two-feature regression triangle."""


class ZeroBeta(AuditError):
    """A coefficient claimed to be in the true support is zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"true coefficient at index {index} is zero")
