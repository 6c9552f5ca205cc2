"""Hot evaluation kernel for the floating-point quadrature oracle.

Evaluating a sparse polynomial on hundreds of thousands of quadrature nodes
dominates oracle runtime.  The kernel is a numpy loop over terms; it
accumulates in term order, so it is deterministic.
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
