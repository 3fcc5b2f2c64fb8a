"""
Exact optimal transport and the worst-case-risk dual
====================================================

worst_case_risk solves, by LP, the maximum of E_Q[loss] over distributions
Q within a squared-Wasserstein budget of P; dual_value bounds the same
quantity from above by evaluating the penalized dual at lambda*, the LP's
shadow price of the budget.  The two meet to round-off, and for
P = delta_0 with loss(x) = x and radius 0.5 the common value is known
exactly: 0.5.
"""

import numpy as np

import wasecom.ot as ot

# Wasserstein distances between small discrete distributions.
P = ot.DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
Q = ot.DiscreteDistribution(np.array([[0.5], [1.5]]), np.array([0.5, 0.5]))
print("W1(P, Q) =", ot.wasserstein_p(P, Q, p=1))
print("W2(P, Q) =", ot.wasserstein_p(P, Q, p=2))

# The closed-form instance.
delta = ot.dirac(np.array([0.0]))
grid = ot.grid_1d(-1.0, 1.0, 401)
loss = lambda x: float(x[0])

primal, plan = ot.worst_case_risk(delta, loss, radius=0.5, grid=grid)
dual, lam_star = ot.dual_value(delta, loss, radius=0.5, grid=grid)
print(f"\nprimal (LP)      : {primal:.6f}")
print(f"dual  (lambda*)  : {dual:.6f}  at lambda* = {lam_star:.3f}")
print(f"known answer     : 0.5")

# The dual route never dips below any feasible transport plan's value.
rng = np.random.default_rng(0)
plans = ot.sample_plans_in_ball(delta, grid, radius=0.5, count=50, rng=rng)
losses = np.array([loss(g) for g in grid])
values = [float(losses @ p.sum(axis=0)) for p in plans]
print("\nmax over 50 sampled in-ball plans:", f"{max(values):.6f}", "<= dual")

# The bundled instance suite runs both routes on every instance and
# reports the gap, the lambda found, and each assertion outcome.
print("\ninstance,primal,dual,lambda,rel_gap,verdict")
for r in ot.run_theory_suite(n_ball_samples=25, seed=0):
    print(f"{r.instance},{r.primal:.5f},{r.dual:.5f},{r.lam_star:.3f},"
          f"{r.rel_gap:.4f},{'ok' if r.passed else 'FAIL'}")
