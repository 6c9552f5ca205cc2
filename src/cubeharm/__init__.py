"""cubeharm: exact integration and identity verification for harmonic
polynomials on hypercubes, with a one-sided L1 approximation toolkit and an
independent floating-point oracle.

The names below are imported from their submodule on first access
(PEP 562), so `import cubeharm` loads no submodule and a caller pays only
for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    "CubeDomain": "integrate",
    "Region": "integrate",
    "Weight": "integrate",
    "WeightConditionError": "integrate",
    "integrate_boundary": "integrate",
    "integrate_cube": "integrate",
    "integrate_diagonal": "integrate",
    "measure": "integrate",
    "Identity": "identities",
    "IdentityReport": "identities",
    "NotPolyharmonicError": "identities",
    "SuiteConfig": "identities",
    "residual_pizzetti": "identities",
    "residual_surface_mean": "identities",
    "residual_volume_mean": "identities",
    "residual_weighted_quadrature": "identities",
    "run_suite": "identities",
    "BasisRequest": "kernel",
    "BasisSet": "kernel",
    "graded_basis": "kernel",
    "homogeneous_kernel": "kernel",
    "ApproxCertificate": "onesided",
    "OneSidedness": "onesided",
    "certify_best_approx": "onesided",
    "check_onesided": "onesided",
    "gradient_vanishes_on_diagonal": "onesided",
    "vanishes_on_diagonal": "onesided",
    "weighted_l1_error": "onesided",
    "QuadratureSpec": "oracle",
    "gauss_legendre": "oracle",
    "numeric_integrate_boundary": "oracle",
    "numeric_integrate_cube_many": "oracle",
    "numeric_integrate_diagonal_many": "oracle",
    "ExprSyntaxError": "parser",
    "parse_poly": "parser",
    "parse_unipoly": "parser",
    "DimensionMismatchError": "poly",
    "Poly": "poly",
    "UniPoly": "poly",
    "evaluate": "poly",
    "iterated_laplacian": "poly",
    "laplacian": "poly",
    "partial": "poly",
    "poly_to_text": "poly",
    "rational_to_text": "poly",
    "uni_to_text": "poly",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
