"""Pointwise evaluation kernel for the floating-point quadrature oracle.

The oracle sums its integrals by factorization and needs point values only
in `numeric_l1`, whose integrand |f - h| does not separate; this kernel
evaluates f - h on that function's cell grids.  It is a numpy loop over
terms and accumulates in term order, so it is deterministic.
"""

from __future__ import annotations

import numpy as np


def evaluate_terms(points: np.ndarray, exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sum of coeff * prod_d points[:, d]^exp over terms; term-major loop."""
    out = np.zeros(points.shape[0])
    for t in range(exps.shape[0]):
        term = np.full(points.shape[0], coeffs[t])
        for d in range(points.shape[1]):
            e = exps[t, d]
            if e:
                term *= points[:, d] ** e
        out += term
    return out
