"""Fixtures shared by the test modules."""
import numpy as np
import pytest


def _trend_filter_oracle(x, lam):
    """Optimal trend and objective of 0.5 |x - g|^2 + lam * |D g|_1.

    Solved with scipy alone, and proven optimal by a primal-dual gap below
    1e-8 (Kim, Koh, Boyd & Gorinevsky, "l1 trend filtering", SIAM Review
    2009, for the dual problem). D is the second-difference matrix.
    """
    from scipy.optimize import lsq_linear

    x = np.asarray(x, dtype=float)
    n = len(x)
    D = np.diff(np.eye(n), 2, axis=0)
    # dual: min 0.5 |D^T nu - x|^2 subject to |nu|_inf <= lam; the default
    # iteration cap can stop bvls well short of the optimum
    nu = lsq_linear(D.T, x, bounds=(-lam, lam), method="bvls",
                    tol=1e-14, max_iter=2000).x
    g = x - D.T @ nu
    primal = 0.5 * np.sum((x - g) ** 2) + lam * np.sum(np.abs(D @ g))
    dual = nu @ (D @ x) - 0.5 * np.sum((D.T @ nu) ** 2)
    assert abs(primal - dual) < 1e-8, f"oracle duality gap {primal - dual:.2e}"
    return g, float(primal)


@pytest.fixture
def trend_filter_oracle():
    return _trend_filter_oracle
