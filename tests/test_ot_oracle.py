"""The in-repo simplex against an independent LP solver (HiGHS via scipy).

scipy is a test-only dependency: the module is skipped where it is missing.
Instances are seeded, go up to the support cap, and are built to be degenerate:
costs and losses are rounded (ties between vertices), about one atom in four
carries zero weight, and every fifth budget leaves no slack over the plan that
sends each atom to its nearest grid point.
"""
import numpy as np
import pytest

linprog = pytest.importorskip("scipy.optimize").linprog

from wasecom import ot
from wasecom.ot import DEFAULT_SUPPORT_CAP, DiscreteDistribution

TOL = 1e-9


def _weights(rng, n):
    w = rng.uniform(0.1, 1.0, n) * (rng.random(n) > 0.25)
    w[rng.integers(n)] += 0.5  # at least one atom carries mass
    return w / w.sum()


def _instance(seed):
    """A source on the support cap or below, a grid, rounded losses and a feasible radius."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, DEFAULT_SUPPORT_CAP + 1))
    d = 1 + seed % 2
    P = DiscreteDistribution(np.round(rng.uniform(-1, 1, (m, d)), 1), _weights(rng, m))
    grid = np.round(rng.uniform(-1.5, 1.5, (int(rng.integers(4, 25)), d)), 1)
    # rounding repeats grid points too; a repeated point keeps one loss value
    table = {tuple(g): v for g, v in zip(grid, np.round(rng.normal(size=len(grid)), 1))}
    lvals = np.array([table[tuple(g)] for g in grid])
    C = ot._grid_costs(P, grid)
    base = float(P.weights @ C.min(axis=1))
    radius = float(np.sqrt(base + rng.uniform(0.0, 0.6) * (seed % 5 != 0)))
    return P, grid, (lambda x: table[tuple(x)]), lvals, C, radius


def _highs_budget_lp(P, lvals, C, radius):
    m, g = C.shape
    rows = np.kron(np.eye(m), np.ones(g))
    res = linprog(-np.tile(lvals, m), A_ub=C.reshape(1, -1), b_ub=[radius**2],
                  A_eq=rows, b_eq=P.weights, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun, -res.ineqlin.marginals[0]


def _dual_objective(P, lvals, C, lam, radius):
    return lam * radius**2 + P.weights @ np.max(lvals[None, :] - lam * C, axis=1)


@pytest.mark.parametrize("seed", range(40))
def test_solve_transport_matches_highs(seed):
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(1, DEFAULT_SUPPORT_CAP + 1))
    n = int(rng.integers(1, DEFAULT_SUPPORT_CAP + 1))
    p, q = _weights(rng, m), _weights(rng, n)
    cost = np.round(rng.uniform(0.0, 3.0, (m, n)), 1)
    plan, value = ot.solve_transport(cost, p, q)
    marginals = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(cost.reshape(-1), A_eq=marginals, b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    assert value == pytest.approx(res.fun, abs=TOL)
    assert np.allclose(plan.sum(axis=1), p, atol=TOL)
    assert np.allclose(plan.sum(axis=0), q, atol=TOL)
    assert plan.min() >= -1e-12


@pytest.mark.parametrize("seed", range(40))
def test_worst_case_and_dual_match_highs(seed):
    P, grid, loss, lvals, C, radius = _instance(seed)
    want, lam_highs = _highs_budget_lp(P, lvals, C, radius)
    primal, plan = ot.worst_case_risk(P, loss, radius, grid)
    dual, lam_star = ot.dual_value(P, loss, radius, grid)
    assert primal == pytest.approx(want, abs=TOL)
    assert np.allclose(plan.sum(axis=1), P.weights, atol=TOL)
    assert float((plan * C).sum()) <= radius**2 + TOL
    # lam* need not be unique on degenerate instances, so compare dual values
    assert lam_star >= 0.0
    assert dual == pytest.approx(want, abs=TOL)
    assert _dual_objective(P, lvals, C, lam_highs, radius) == pytest.approx(want, abs=TOL)
