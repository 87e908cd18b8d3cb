"""Fixtures shared by the test modules."""
import numpy as np
import pytest


def _trend_filter_oracle(x, lam, fidelity="squared"):
    """Optimal trend and objective of fidelity(x - g) + lam * |D g|_1.

    Solved with scipy alone, and proven optimal by a primal-dual gap below
    1e-8 (Kim, Koh, Boyd & Gorinevsky, "l1 trend filtering", SIAM Review
    2009, for the dual of the squared problem). D is the second-difference
    matrix.
    """
    from scipy.optimize import linprog, lsq_linear

    x = np.asarray(x, dtype=float)
    n = len(x)
    D = np.diff(np.eye(n), 2, axis=0)
    if fidelity == "squared":
        # dual: min 0.5 |D^T nu - x|^2 subject to |nu|_inf <= lam; the
        # default iteration cap can stop bvls well short of the optimum
        nu = lsq_linear(D.T, x, bounds=(-lam, lam), method="bvls",
                        tol=1e-14, max_iter=2000).x
        g = x - D.T @ nu
        primal = 0.5 * np.sum((x - g) ** 2) + lam * np.sum(np.abs(D @ g))
        dual = nu @ (D @ x) - 0.5 * np.sum((D.T @ nu) ** 2)
    else:
        # LP over (g, s, t): min sum s + lam sum t subject to
        # |x - g| <= s and |D g| <= t elementwise
        m = n - 2
        eye_n, eye_m = np.eye(n), np.eye(m)
        a_ub = np.block([[eye_n, -eye_n, np.zeros((n, m))],
                         [-eye_n, -eye_n, np.zeros((n, m))],
                         [D, np.zeros((m, n)), -eye_m],
                         [-D, np.zeros((m, n)), -eye_m]])
        b_ub = np.r_[x, -x, np.zeros(2 * m)]
        cost = np.r_[np.zeros(n), np.ones(n), np.full(m, lam)]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                      method="highs")
        assert res.status == 0, res.message
        g = res.x[:n]
        primal = np.sum(np.abs(x - g)) + lam * np.sum(np.abs(D @ g))
        # every variable is free, so the dual objective is b_ub . y alone
        dual = b_ub @ res.ineqlin.marginals
    assert abs(primal - dual) < 1e-8, f"oracle duality gap {primal - dual:.2e}"
    return g, float(primal)


@pytest.fixture
def trend_filter_oracle():
    return _trend_filter_oracle
