"""Exact discrete optimal transport and duality verification.

Small linear programs over transport plans, solved exactly by a revised
simplex written here (no external solver):

  * wasserstein_p      balanced transport between two discrete distributions
  * worst_case_risk    max E_Q[loss] over grid-supported Q with W2(P, Q) <= rho
  * dual_value         the penalized dual  min_lam { lam rho^2 + E_P[sup ...] }

dual_value reads lam* from the worst-case LP's final basis but evaluates the
dual objective itself, which bounds the primal from above at every lam >= 0
(weak duality): primal == dual is a genuine optimality certificate.  The
excess-risk sandwich and the neighborhood bounds build on the same machinery.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SUPPORT_CAP = 12
DUALITY_REL_TOL = 0.02   # release bound on the primal-dual gap (criterion 02)
_TOL = 1e-9


@dataclass
class DiscreteDistribution:
    support: np.ndarray          # (n, d) points
    weights: np.ndarray          # (n,) probabilities

    def __post_init__(self):
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if len(self.support) > DEFAULT_SUPPORT_CAP:
            raise ValueError(f"support size {len(self.support)} exceeds cap {DEFAULT_SUPPORT_CAP}")
        if not np.all(np.isfinite(self.support)):
            raise ValueError("support contains non-finite points")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weights")
        if np.any(self.weights < -1e-12):
            raise ValueError("negative weight")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.weights.sum()}, expected 1")

    @property
    def dim(self) -> int:
        return self.support.shape[1]


def dirac(point) -> DiscreteDistribution:
    return DiscreteDistribution(np.atleast_2d(np.asarray(point, dtype=float)), np.array([1.0]))


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


# -------------------------------------------------------------- the simplex
def _revised_simplex(c, A, b, basis, max_iter=50000):
    """Minimize c@x s.t. Ax = b, x >= 0 from a feasible basis; return (x, value, y),
    y being the optimal basis's row multipliers (shadow prices).

    Dantzig pricing with a permanent switch to Bland's rule after a stall, so
    degenerate instances cannot cycle.  Basis systems are re-solved densely;
    row counts here are tiny (<= support cap + grid marginals).
    """
    m, n = A.shape
    basis = list(basis)
    bland = False
    stall = 0
    for _ in range(max_iter):
        B = A[:, basis]
        xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        reduced = c - y @ A
        reduced[basis] = 0.0
        if bland:
            eligible = np.flatnonzero(reduced < -_TOL)
            if eligible.size == 0:
                break
            enter = int(eligible[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -_TOL:
                break
        d = np.linalg.solve(B, A[:, enter])
        movable = d > _TOL
        if not movable.any():
            raise RuntimeError("transport LP is unbounded; malformed constraints")
        ratios = np.full(m, np.inf)
        ratios[movable] = xb[movable] / d[movable]
        t = ratios.min()
        ties = np.flatnonzero(ratios <= t + 1e-12)
        leave = int(min(ties, key=lambda r: basis[r]))
        basis[leave] = enter
        if t <= _TOL:
            stall += 1
            if stall > 2 * (m + 10):
                bland = True
        else:
            stall = 0
    else:
        raise RuntimeError("simplex iteration limit reached")
    x = np.zeros(n)
    x[basis] = np.linalg.solve(A[:, basis], b)
    return x, float(c @ x), y


def _northwest_corner(p: np.ndarray, q: np.ndarray):
    """Initial spanning-tree basis for the balanced transport polytope."""
    m, n = len(p), len(q)
    cells = []
    pi, qj = p.copy(), q.copy()
    i = j = 0
    while True:
        cells.append((i, j))
        t = min(pi[i], qj[j])
        pi[i] -= t
        qj[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if pi[i] <= _TOL and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return cells


def solve_transport(cost: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Exact minimum-cost coupling with marginals (p, q); returns (plan, value)."""
    m, n = cost.shape
    if abs(p.sum() - q.sum()) > 1e-9:
        raise ValueError("unbalanced marginals")
    # one marginal constraint is redundant; drop the last column's row
    rows = m + n - 1
    A = np.zeros((rows, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):
        A[m + j, j::n] = 1.0
    b = np.concatenate([p, q[:-1]])
    basis = [i * n + j for i, j in _northwest_corner(p, q)]
    x, value, _ = _revised_simplex(cost.reshape(-1).copy(), A, b, basis)
    return x.reshape(m, n), value


def wasserstein_p(P: DiscreteDistribution, Q: DiscreteDistribution, p: int = 2) -> float:
    """Order-p Wasserstein distance with Euclidean ground metric, p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {p}")
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    cost = _pairwise_distances(P.support, Q.support) ** p
    _, value = solve_transport(cost, P.weights, Q.weights)
    return float(max(value, 0.0) ** (1.0 / p))


# ------------------------------------------------- worst case over the ball
def _grid_costs(P: DiscreteDistribution, grid: np.ndarray) -> np.ndarray:
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != P.dim:
        raise ValueError(f"grid dimension {grid.shape[1]} does not match support dimension {P.dim}")
    return _pairwise_distances(P.support, grid) ** 2


def _finite_losses(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValueError("loss is non-finite on the grid")
    return vals


def _loss_on_grid(loss_fn, grid: np.ndarray) -> np.ndarray:
    """A per-point loss evaluated at every grid point, one call each."""
    return _finite_losses(np.asarray([float(loss_fn(g)) for g in np.atleast_2d(grid)],
                                     dtype=float))


def _nearest_in_budget(P: DiscreteDistribution, C: np.ndarray, radius: float):
    """Each atom's nearest grid point, the cost of that plan and the budget."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    nearest = C.argmin(axis=1)
    base_cost = float(P.weights @ C[np.arange(len(C)), nearest])
    budget = radius**2
    if base_cost > budget + 1e-12:
        raise ValueError(
            f"grid cannot represent any distribution inside the ball: minimal "
            f"transport cost {base_cost:.6g} exceeds budget {budget:.6g}")
    return nearest, base_cost, budget


def _dual_objective(w: np.ndarray, lvals: np.ndarray, C: np.ndarray, lam: float, radius):
    """f(lam) = lam radius^2 + sum_i w_i max_j (lvals_j - lam C_ij)."""
    return lam * radius**2 + float(w @ np.max(lvals[None, :] - lam * C, axis=1))


def _budget_lp(P: DiscreteDistribution, lvals: np.ndarray, C: np.ndarray, radius: float):
    """max <plan, lvals> s.t. plan rows sum to P.weights, <plan, C> <= radius^2.
    Returns (value, plan, lam_star), lam_star >= 0 the budget row's shadow price."""
    m, g = C.shape
    nearest, _, budget = _nearest_in_budget(P, C, radius)
    n_vars = m * g + 1  # plus the budget slack
    A = np.zeros((m + 1, n_vars))
    for i in range(m):
        A[i, i * g:(i + 1) * g] = 1.0
    A[m, :-1] = C.reshape(-1)
    A[m, -1] = 1.0
    b = np.concatenate([P.weights, [budget]])
    c = np.concatenate([-np.tile(lvals, m), [0.0]])
    basis = [i * g + int(nearest[i]) for i in range(m)] + [n_vars - 1]
    x, value, y = _revised_simplex(c, A, b, basis)
    # the LP minimizes -loss, so the budget row's multiplier is y[m] <= 0
    return -value, x[:-1].reshape(m, g), max(0.0, -float(y[m]))


def _certified(P: DiscreteDistribution, lvals: np.ndarray, C: np.ndarray, radius: float):
    """One budget LP: (primal, worst plan, dual f(lam*), lam*)."""
    primal, plan, lam = _budget_lp(P, lvals, C, radius)
    return primal, plan, _dual_objective(P.weights, lvals, C, lam, radius), lam


def worst_case_risk(P: DiscreteDistribution, loss_fn, radius: float, grid: np.ndarray):
    """Exact max of E_Q[loss] over Q on the grid with W2(P, Q) <= radius.

    Solved as an LP over transport plans: rows are P's atoms, columns grid
    points, with the quadratic-cost budget radius^2 as one extra constraint.
    Returns (value, plan).
    """
    return _budget_lp(P, _loss_on_grid(loss_fn, grid), _grid_costs(P, grid), radius)[:2]


def dual_value(P: DiscreteDistribution, loss_fn, radius: float, grid: np.ndarray):
    """Penalized dual  f(lam) = lam rho^2 + E_P[max_grid(loss - lam cost)]  at its minimizer.

    lam* is the worst-case LP's budget shadow price (0 when the budget does not bind).
    The value is f(lam*), not the LP's value: f bounds the primal from above at every
    lam >= 0, so agreeing with worst_case_risk certifies both.  Returns (value, lam*).
    """
    return _certified(P, _loss_on_grid(loss_fn, grid), _grid_costs(P, grid), radius)[2:]


def _sample_plan_slots(P: DiscreteDistribution, C: np.ndarray, radius: float, count: int,
                       rng: np.random.Generator):
    """`count` random feasible plans (cost <= radius^2) over costs C, as their used
    slots: flat arrays (plan, atom, cell, mass) in plan, atom, slot order.

    Each plan starts from every atom's nearest grid point and takes 4m+8 random
    moves: a row i and a cell j drawn uniformly, a source drawn uniformly among
    the row's cells above 1e-12 (in cell order), and a U[0, 1) share of the most
    mass the source can send to j within the remaining budget.  A move draws its
    four quantities for all plans at once; rows without a source take no move.
    Each (plan, row) keeps its cells in slots (cell, mass): one to start, at
    most one more per move, and never two for one cell.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    m, g = C.shape
    nearest, base_cost, budget = _nearest_in_budget(P, C, radius)
    n_moves = 4 * m + 8
    slot = np.arange(n_moves + 1)
    plan_ix = np.arange(count)
    cells = np.zeros((count, m, len(slot)), dtype=np.intp)
    mass = np.zeros((count, m, len(slot)))
    cells[:, :, 0] = nearest
    mass[:, :, 0] = P.weights
    used = np.ones((count, m), dtype=np.intp)
    left = np.full(count, budget - base_cost)
    for _move in range(n_moves):
        i = rng.integers(m, size=count)
        j = rng.integers(g, size=count)
        row_cells, row_mass, row_used = cells[plan_ix, i], mass[plan_ix, i], used[plan_ix, i]
        is_src = row_mass > 1e-12
        n_src = is_src.sum(axis=1)
        k = rng.integers(np.maximum(n_src, 1))
        u = rng.random(count)
        src_slot = np.argsort(np.where(is_src, row_cells, g), axis=1)[plan_ix, k]
        src = row_cells[plan_ix, src_slot]
        src_mass = row_mass[plan_ix, src_slot]
        extra = C[i, j] - C[i, src]
        capped = extra > _TOL
        cap = np.where(capped, np.minimum(src_mass, left / np.where(capped, extra, 1.0)),
                       src_mass)
        amount = cap * u
        p = np.flatnonzero((n_src > 0) & (src != j) & (amount > 0))
        hit = (row_cells[p] == j[p, None]) & (slot < row_used[p, None])
        dst_slot = np.where(hit.any(axis=1), hit.argmax(axis=1), row_used[p])
        ip, a = i[p], amount[p]
        mass[p, ip, src_slot[p]] -= a
        mass[p, ip, dst_slot] += a
        cells[p, ip, dst_slot] = j[p]
        used[p, ip] = np.maximum(row_used[p], dst_slot + 1)
        left[p] -= extra[p] * a
    plan, atom, s = np.nonzero(slot < used[:, :, None])   # unused slots hold cell 0
    return plan, atom, cells[plan, atom, s], mass[plan, atom, s]


def _sampled_risks(P: DiscreteDistribution, C: np.ndarray, radius: float, count: int,
                   rng: np.random.Generator, losses: np.ndarray) -> np.ndarray:
    """E_Q[loss] of `count` sampled plans under each row of `losses` (F, g): (count, F).

    Scored straight from the plans' slots, without the plans or their marginals:
    a plan's risk is the sum of its slots' mass * loss[cell], in slot order."""
    plan, _, cell, mass = _sample_plan_slots(P, C, radius, count, rng)
    return np.stack([np.bincount(plan, weights=mass * v[cell], minlength=count)
                     for v in losses], axis=1)


def sample_plans_in_ball(P: DiscreteDistribution, grid: np.ndarray, radius: float,
                         count: int, rng: np.random.Generator):
    """Random feasible transport plans (cost <= radius^2) from P onto the grid.

    Returns a list of `count` (m, g) plans; see _sample_plan_slots for the moves.
    """
    C = _grid_costs(P, grid)
    plan, atom, cell, mass = _sample_plan_slots(P, C, radius, count, rng)
    plans = np.zeros((count,) + C.shape)
    plans[plan, atom, cell] = mass
    return list(plans)


# ------------------------------------------------------------ theory checks
@dataclass
class TheoryCheckReport:
    instance: str
    primal: float
    dual: float
    lam_star: float
    lipschitz_term: float = 0.0      # 2 L rho
    dual_mismatch_term: float = 0.0  # |lam - lam*| rho^2
    sandwich_margin: float = 0.0     # slack left under the bound, as a fraction
    assertions: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return abs(self.primal - self.dual)

    @property
    def rel_gap(self) -> float:
        return self.gap / max(abs(self.primal), 1e-12)

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())

    def row(self) -> str:
        flags = ";".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in self.assertions.items())
        return (f"{self.instance},{self.primal:.6f},{self.dual:.6f},{self.gap:.2e},"
                f"{self.rel_gap:.2e},{flags}")


def check_lemma1(P: DiscreteDistribution, family, member: int, rho: float, lam: float,
                 grid: np.ndarray, lipschitz: float, n_plans: int = 25,
                 rng: np.random.Generator | None = None) -> TheoryCheckReport:
    """Excess-risk sandwich: surrogate and true excess risks differ by at most
    2 L rho + |lam - lam*| rho^2 for every distribution inside the ball.

    `family` is a list of loss callables; `member` indexes the one under test,
    and `lipschitz` is L, a Lipschitz constant of its loss.
    Requires lam >= L / rho (the regime where the surrogate tracks the truth).
    """
    rng = rng or np.random.default_rng(0)
    C = _grid_costs(P, grid)
    V = np.stack([_loss_on_grid(fn, grid) for fn in family])
    L = lipschitz
    if rho <= 0:
        raise ValueError("rho must be positive for the sandwich check")
    if lam < L / rho - 1e-12:
        raise ValueError(f"hypothesis violated: lam={lam} is below L/rho={L / rho:.6g}")

    surr = np.array([_dual_objective(P.weights, v, C, lam, rho) for v in V])
    surr_excess = surr[member] - surr.min()

    primal, worst_plan, dual, lam_star = _certified(P, V[member], C, rho)
    bound = 2 * L * rho + abs(lam - lam_star) * rho**2

    identity = np.zeros_like(worst_plan)
    identity[np.arange(len(P.weights)), C.argmin(axis=1)] = P.weights
    extremes = np.stack([worst_plan.sum(axis=0), identity.sum(axis=0)])
    true_risks = np.concatenate([_sampled_risks(P, C, rho, n_plans, rng, V),
                                 extremes @ V.T])       # (plans, family)
    fact1a_ok = bool(np.all(surr >= true_risks - 1e-9))
    true_excess = true_risks[:, member] - true_risks.min(axis=1)
    gaps = np.abs(true_excess - surr_excess)
    worst_gap = float(gaps.max())
    sandwich_ok = bool(np.all(gaps <= bound + 1e-12))
    margin = (bound - worst_gap) / bound if bound > 0 else 0.0
    kr_ok = bool(np.all(primal <= true_risks[:, member] + 2 * L * rho + 1e-9))

    return TheoryCheckReport(
        instance=f"lemma-sandwich(member={member},rho={rho},lam={lam})",
        primal=primal, dual=dual, lam_star=lam_star,
        lipschitz_term=2 * L * rho, dual_mismatch_term=abs(lam - lam_star) * rho**2,
        sandwich_margin=margin,
        assertions={"hypothesis": True, "fact1a": fact1a_ok, "sandwich": sandwich_ok,
                    "neighborhood": kr_ok},
    )


# -------------------------------------------------------- bundled instances
@dataclass
class TheoryInstance:
    name: str
    P: DiscreteDistribution
    loss: object                 # array loss: (N, d) points -> (N,) values
    radius: float
    grid: np.ndarray

    def loss_fn(self, point) -> float:
        """The loss of one point, for the per-point API (worst_case_risk, dual_value)."""
        return float(self.loss(np.atleast_2d(np.asarray(point, dtype=float)))[0])


def grid_1d(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)[:, None]


def grid_2d(lo: float, hi: float, n: int) -> np.ndarray:
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis)
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def bundled_instances() -> list[TheoryInstance]:
    """The duality test bed: 1-D and 2-D discrete sources with assorted losses."""
    two = DiscreteDistribution(np.array([[-0.5], [0.5]]), np.array([0.5, 0.5]))
    skew = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.25, 0.75]))
    tri = DiscreteDistribution(np.array([[-0.8], [0.0], [0.6]]), np.array([0.3, 0.4, 0.3]))
    d2_point = dirac([0.0, 0.0])
    d2_pair = DiscreteDistribution(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.array([0.5, 0.5]))
    d2_tri = DiscreteDistribution(np.array([[-0.5, -0.3], [0.4, 0.1], [0.0, 0.5]]),
                                  np.array([0.4, 0.3, 0.3]))
    g1 = grid_1d(-1.0, 1.0, 401)
    g1w = grid_1d(-1.5, 1.5, 601)
    g2 = grid_2d(-1.0, 1.0, 41)
    return [
        TheoryInstance("dirac-linear", dirac([0.0]), lambda g: g[:, 0], 0.5, g1),
        TheoryInstance("pair-linear", two, lambda g: g[:, 0], 0.3, g1w),
        TheoryInstance("pair-steep", two, lambda g: 2.0 * g[:, 0], 0.3, g1w),
        TheoryInstance("pair-neg", two, lambda g: -g[:, 0], 0.3, g1w),
        TheoryInstance("skew-abs", skew, lambda g: np.abs(g[:, 0]), 0.4, g1w),
        TheoryInstance("tri-quadratic", tri, lambda g: g[:, 0] ** 2, 0.25, g1w),
        TheoryInstance("pair-sine", two, lambda g: np.sin(2.0 * g[:, 0]), 0.3, g1w),
        # zero radius: the grid must contain the support exactly
        TheoryInstance("tri-zero-radius", tri, lambda g: np.tanh(g[:, 0]), 0.0,
                       np.array([[-0.8], [0.0], [0.6]])),
        TheoryInstance("pair-constant", two, lambda g: np.full(len(g), 1.25), 0.3, g1w),
        TheoryInstance("2d-dirac-sum", d2_point, lambda g: g[:, 0] + g[:, 1], 0.5, g2),
        # each row's dot with itself: the scalar norm's bits, which np.linalg.norm(axis=1)
        # and einsum miss on some grid points
        TheoryInstance("2d-pair-norm", d2_pair,
                       lambda g: np.sqrt((g[:, None, :] @ g[:, :, None]).ravel()), 0.3, g2),
        TheoryInstance("2d-tri-smooth", d2_tri, lambda g: np.tanh(g[:, 0]) - 0.5 * g[:, 1],
                       0.2, g2),
    ]


def run_theory_suite(n_ball_samples: int = 100, seed: int = 0) -> list[TheoryCheckReport]:
    """Strong duality + dominance checks over every bundled instance."""
    rng = np.random.default_rng(seed)
    reports = []
    for inst in bundled_instances():
        C = _grid_costs(inst.P, inst.grid)
        lvals = _finite_losses(inst.loss(inst.grid))
        primal, _, dual, lam_star = _certified(inst.P, lvals, C, inst.radius)
        dominance_ok = True
        if inst.radius > 0:
            risks = _sampled_risks(inst.P, C, inst.radius, n_ball_samples, rng, lvals[None])
            dominance_ok = bool(np.all(risks <= dual + 1e-9))
        report = TheoryCheckReport(instance=inst.name, primal=primal, dual=dual,
                                   lam_star=lam_star)
        closed = report.rel_gap <= DUALITY_REL_TOL or report.gap <= 1e-9
        report.assertions = {"duality_gap": closed, "dual_dominates_ball": dominance_ok,
                             "dual_above_primal": dual >= primal - 1e-9}
        reports.append(report)
    return reports
