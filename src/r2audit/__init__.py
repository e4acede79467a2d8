"""Submodularity diagnostics for regression feature selection.

Quantifies how hard a feature-selection problem is by treating the
coefficient of determination as a set function: exact violation
certificates, approximate-submodularity constants, two-feature feasibility
grids, selection algorithms with guarantee checks, and spectral bounds.
"""

import sys

# Each exported name, by the submodule that defines it. ``import r2audit``
# loads none of them: a submodule is imported when one of its names, or the
# submodule itself, is first read from the package (PEP 562).
_EXPORTS = {
    "datasets": ("miller_table", "random_gaussian", "suppressor_population"),
    "errors": ("AuditError",),
    "gamma": ("RatioResult", "submodularity_ratio"),
    "geometry2d": ("Grid", "GridCell", "grid_evaluate"),
    "regress": ("StandardizedDesign", "fit_table", "gram_factory", "load_csv", "ls_fit",
                "partial_correlation", "r_squared", "standardize"),
    "selection": ("SelectionTrace", "best_subset", "forward_stepwise", "isis", "nwf_verdict", "sis_screen"),
    "setfun": ("Certificates", "GammaS2Result", "GammaSResult", "empirical_gamma_s", "empirical_gamma_s2"),
    "spectral": ("restricted_eigenvalue", "sparse_min_eigenvalue"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.2.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        # other submodules, such as cli, are left to the import system, which
        # falls back to them in ``from r2audit import cli``
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime logs, unlike
    # importlib.import_module
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
