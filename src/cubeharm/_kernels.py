"""Pointwise evaluation kernel: the tests' tensor-grid reference.

No module of the package imports this one.  The oracle sums its rule by
factorization; `tests/test_oracle.py` evaluates the same rule node by node
on the full cell grids through `evaluate_terms`, to check the factorized
sums point by point.  The module stays in the package only because the
benchmark's tracer (`perfbench/tracing.py`) imports it and wraps
`evaluate_terms` by name.  It is a numpy loop over terms and accumulates
in term order, so it is deterministic.
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
