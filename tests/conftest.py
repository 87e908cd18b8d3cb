"""Fixtures shared by the test modules."""
import runpy
from pathlib import Path

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


@pytest.fixture(scope="session")
def walking_raw():
    """A raw recording of the walking benchmark's size: 10 min of triaxial
    acceleration at 120 Hz nominal with timestamp jitter (72,000 rows)."""
    from clinqc.synth import SynthSpec, gen_gravity_drift

    spec = SynthSpec(scenario="gravity-drift", duration=600.0, rate=120.0,
                     jitter=0.3, seed=0)
    return gen_gravity_drift(spec)[0]


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes that tracemalloc saw it allocate."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture(scope="session")
def every_subcommand():
    """The globals of ``tools/every_subcommand.py``: every CLI subcommand, by
    recipe group, and ``GROUPS``."""
    return runpy.run_path(str(Path(__file__).parents[1] / "tools" / "every_subcommand.py"))
