"""Quadratic character L-polynomials over F_q[x] and certified critical-circle bounds.

The public names load lazily: the first use of a name imports the submodule
that defines it (PEP 562), so a process imports only the layers it uses.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "argfunc": (
        "antiderivative_constant",
        "argument_sum",
        "count_zeros",
        "jump_limits",
        "log_modulus",
        "mean_value",
        "zero_multiplicities",
    ),
    "bernoulli": (
        "BernoulliTable",
        "bernoulli_envelope_constants",
        "bernoulli_extrema",
        "periodic_bernoulli",
        "zeta",
        "zeta_envelope_constants",
    ),
    "bounds": (
        "BoundReport",
        "EmpiricalExtrema",
        "ScanConfig",
        "ScanResult",
        "block_extrema",
        "choose_degree",
        "degree_choice",
        "empirical_extrema",
        "ensemble_scan",
        "envelope",
        "rigorous_bound",
        "s0_bound_interval_method",
        "sample_moduli",
    ),
    "charsum": ("Character", "point_sums"),
    "errors": (
        "CertificationError",
        "ConsistencyError",
        "FieldMismatchError",
        "ResourceLimitError",
        "RootIsolationError",
        "SolverError",
        "UnsupportedDegreeError",
    ),
    "fqpoly": (
        "FieldSpec",
        "Poly",
        "enumerate_Hd",
        "format_poly",
        "is_squarefree",
        "parse_poly",
    ),
    "lfunc": (
        "CosineSeries",
        "LPolynomial",
        "ZeroAngles",
        "block_lpolynomials",
        "compute_lpolynomial",
        "find_zero_angles",
        "power_sum",
        "unitarize",
    ),
    "onesided": (
        "CoefficientReport",
        "OneSidedResult",
        "TrigPoly",
        "construct_one_sided",
        "interval_polys",
        "oracle_mean",
        "verify_coefficient_bounds",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
