"""Transport solver and duality checks, cross-validated against brute force.

Every nontrivial value here is recomputed by an independent route: permutation
enumeration for uniform couplings, the CDF integral for 1-D W1, endpoint
enumeration for the single-atom budget LP, and a hand-solved 2x2 instance.
"""
import hashlib
import tracemalloc

import numpy as np
import pytest
from itertools import permutations

from wasecom import ot
from wasecom.ot import DiscreteDistribution, dirac


def _dist(points, weights=None):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is None:
        weights = np.full(len(pts), 1.0 / len(pts))
    return DiscreteDistribution(pts, np.asarray(weights, dtype=float))


def _assignment_wp(xs, ys, p):
    # exact for uniform weights on equal-size supports (Birkhoff)
    n = len(xs)
    best = min(
        sum(np.linalg.norm(xs[i] - ys[s[i]]) ** p for i in range(n))
        for s in permutations(range(n))
    )
    return (best / n) ** (1.0 / p)


def _w1_cdf_1d(xs, ps, ys, qs):
    # W1 on the line is the area between the CDFs
    pts = np.sort(np.unique(np.concatenate([xs, ys])))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        total += abs(ps[xs <= mid].sum() - qs[ys <= mid].sum()) * (b - a)
    return total


# ------------------------------------------------------------------ simplex
def test_simplex_solves_tiny_lp():
    # min -x1 - x2  s.t.  x1 + x2 + s = 1  ->  optimum -1
    A = np.array([[1.0, 1.0, 1.0]])
    x, val, y = ot._revised_simplex(np.array([-1.0, -1.0, 0.0]), A, np.array([1.0]), [2])
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(y, [-1.0])  # the row's multiplier


def test_northwest_corner_counts_cells():
    p = np.array([0.2, 0.5, 0.3])
    q = np.array([0.4, 0.4, 0.2])
    cells = ot._northwest_corner(p, q)
    assert len(cells) == len(p) + len(q) - 1
    # marching order: indices never decrease
    for (i0, j0), (i1, j1) in zip(cells[:-1], cells[1:]):
        assert (i1, j1) in ((i0 + 1, j0), (i0, j0 + 1))


def test_transport_plan_respects_marginals():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.1, 1.0, 4)
    p /= p.sum()
    q = rng.uniform(0.1, 1.0, 6)
    q /= q.sum()
    cost = rng.uniform(0.0, 3.0, (4, 6))
    plan, _ = ot.solve_transport(cost, p, q)
    assert np.allclose(plan.sum(axis=1), p, atol=1e-9)
    assert np.allclose(plan.sum(axis=0), q, atol=1e-9)
    assert np.all(plan >= -1e-12)


# --------------------------------------------------------------- wasserstein
def test_dirac_distance_is_euclidean():
    a, b = dirac([0.0, 0.0]), dirac([3.0, 4.0])
    assert ot.wasserstein_p(a, b, p=1) == pytest.approx(5.0, abs=1e-9)
    assert ot.wasserstein_p(a, b, p=2) == pytest.approx(5.0, abs=1e-9)


def test_hand_solved_two_by_two():
    # P uniform on {0, 1}, Q uniform on {0.5, 2}; the plan has one free
    # parameter t in [0, 0.5] and cost is linear in it, so the optimum sits
    # at t = 0.5:  W1 = 0.75,  W2^2 = 0.625.
    P = _dist([[0.0], [1.0]])
    Q = _dist([[0.5], [2.0]])
    assert ot.wasserstein_p(P, Q, p=1) == pytest.approx(0.75, abs=1e-9)
    assert ot.wasserstein_p(P, Q, p=2) == pytest.approx(np.sqrt(0.625), abs=1e-9)


def test_matches_permutation_oracle():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(2, 6))
        d = 1 if trial % 2 == 0 else 2
        xs = rng.normal(size=(n, d))
        ys = rng.normal(size=(n, d))
        for p in (1, 2):
            got = ot.wasserstein_p(_dist(xs), _dist(ys), p=p)
            want = _assignment_wp(xs, ys, p)
            assert got == pytest.approx(want, abs=1e-8), f"trial {trial} p={p}"


def test_matches_cdf_oracle_on_line():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        xs = np.sort(rng.uniform(-2, 2, m))
        ys = np.sort(rng.uniform(-2, 2, n))
        ps = rng.uniform(0.1, 1.0, m)
        ps /= ps.sum()
        qs = rng.uniform(0.1, 1.0, n)
        qs /= qs.sum()
        got = ot.wasserstein_p(_dist(xs[:, None], ps), _dist(ys[:, None], qs), p=1)
        assert got == pytest.approx(_w1_cdf_1d(xs, ps, ys, qs), abs=1e-8)


def test_metric_axioms_hold():
    rng = np.random.default_rng(19)
    for trial in range(12):
        d = 1 + trial % 2
        P = _dist(rng.normal(size=(3, d)))
        Q = _dist(rng.normal(size=(4, d)))
        R = _dist(rng.normal(size=(3, d)))
        for p in (1, 2):
            assert ot.wasserstein_p(P, P, p=p) <= 1e-9
            dpq = ot.wasserstein_p(P, Q, p=p)
            assert dpq == pytest.approx(ot.wasserstein_p(Q, P, p=p), abs=1e-9)
            assert dpq >= 0.0
            assert ot.wasserstein_p(P, R, p=p) <= dpq + ot.wasserstein_p(Q, R, p=p) + 1e-9


def test_w1_never_exceeds_w2():
    rng = np.random.default_rng(23)
    for _ in range(6):
        P = _dist(rng.normal(size=(4, 2)))
        Q = _dist(rng.normal(size=(5, 2)))
        assert ot.wasserstein_p(P, Q, p=1) <= ot.wasserstein_p(P, Q, p=2) + 1e-9


def test_translation_invariance():
    rng = np.random.default_rng(29)
    xs, ys = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    shift = np.array([1.7, -0.4])
    base = ot.wasserstein_p(_dist(xs), _dist(ys), p=2)
    moved = ot.wasserstein_p(_dist(xs + shift), _dist(ys + shift), p=2)
    assert moved == pytest.approx(base, abs=1e-9)


def test_input_contracts():
    with pytest.raises(ValueError, match="order"):
        ot.wasserstein_p(dirac([0.0]), dirac([1.0]), p=3)
    with pytest.raises(ValueError, match="dimension"):
        ot.wasserstein_p(dirac([0.0]), dirac([0.0, 0.0]))
    with pytest.raises(ValueError, match="cap"):
        _dist(np.zeros((13, 1)))
    with pytest.raises(ValueError, match="sum"):
        DiscreteDistribution(np.zeros((2, 1)), np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="length"):
        DiscreteDistribution(np.zeros((2, 1)), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_rejected(bad):
    # NaN passes both the sign and the sum check; inf fails only the sum check
    with pytest.raises(ValueError, match="non-finite weights"):
        DiscreteDistribution(np.zeros((2, 1)), np.array([bad, 1.0]))


# ----------------------------------------------------------- worst case LP
def test_point_mass_linear_loss_closed_form():
    # sup E_Q[x] over W2(delta_0, Q) <= 0.5 equals 0.5 (Cauchy-Schwarz),
    # attained by the point mass at 0.5; the optimal multiplier is 1.
    grid = ot.grid_1d(-1.0, 1.0, 401)
    primal, plan = ot.worst_case_risk(dirac([0.0]), lambda x: float(x[0]), 0.5, grid)
    assert primal == pytest.approx(0.5, abs=1e-6)
    assert plan.sum() == pytest.approx(1.0, abs=1e-9)
    dual, lam_star = ot.dual_value(dirac([0.0]), lambda x: float(x[0]), 0.5, grid)
    assert dual == pytest.approx(0.5, abs=1e-3)
    assert 0.9 <= lam_star <= 1.1
    assert dual >= primal - 1e-9


def test_matches_pair_enumeration_for_single_atom():
    # with one source atom the LP has two rows, so an optimal vertex mixes at
    # most two grid points; enumerating pairs is therefore an exact oracle
    rng = np.random.default_rng(5)
    grid = ot.grid_1d(-1.0, 1.0, 41)
    lvals = rng.normal(size=len(grid))
    table = {tuple(np.round(g, 12)): v for g, v in zip(grid, lvals)}
    loss = lambda x: table[tuple(np.round(x, 12))]
    P = dirac([0.3])
    radius = 0.45
    budget = radius**2
    cvals = (grid[:, 0] - 0.3) ** 2

    best = -np.inf
    for j in range(len(grid)):
        if cvals[j] <= budget + 1e-12:
            best = max(best, lvals[j])
        for k in range(j + 1, len(grid)):
            cj, ck = cvals[j], cvals[k]
            lo, hi = 0.0, 1.0
            if abs(cj - ck) < 1e-15:
                if cj > budget + 1e-12:
                    continue
            else:
                cut = (budget - ck) / (cj - ck)
                if cj > ck:
                    hi = min(hi, cut)
                else:
                    lo = max(lo, cut)
            if lo > hi + 1e-12:
                continue
            for t in (lo, hi):
                t = min(max(t, 0.0), 1.0)
                best = max(best, t * lvals[j] + (1 - t) * lvals[k])

    got, _ = ot.worst_case_risk(P, loss, radius, grid)
    assert got == pytest.approx(best, abs=1e-8)


def test_zero_radius_recovers_expectation():
    P = _dist([[-0.8], [0.0], [0.6]], [0.3, 0.4, 0.3])
    grid = np.array([[-0.8], [0.0], [0.6]])
    loss = lambda x: float(np.tanh(x[0]))
    want = 0.3 * np.tanh(-0.8) + 0.4 * 0.0 + 0.3 * np.tanh(0.6)
    got, _ = ot.worst_case_risk(P, loss, 0.0, grid)
    assert got == pytest.approx(want, abs=1e-9)


def test_infeasible_grid_is_rejected():
    grid = ot.grid_1d(5.0, 6.0, 11)  # nowhere near the source
    with pytest.raises(ValueError, match="budget"):
        ot.worst_case_risk(dirac([0.0]), lambda x: float(x[0]), 0.1, grid)


def test_worst_case_grows_with_radius():
    grid = ot.grid_1d(-2.0, 2.0, 201)
    P = _dist([[-0.5], [0.5]])
    loss = lambda x: float(x[0]) ** 2
    values = [ot.worst_case_risk(P, loss, r, grid)[0] for r in (0.1, 0.3, 0.6, 1.0)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_weak_duality_on_random_instances():
    rng = np.random.default_rng(41)
    grid = ot.grid_1d(-1.5, 1.5, 151)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 1.0, n)
        P = _dist(rng.uniform(-0.8, 0.8, (n, 1)), w / w.sum())
        a, b = rng.normal(), rng.normal()
        loss = lambda x, a=a, b=b: float(a * x[0] + b * np.sin(3 * x[0]))
        radius = float(rng.uniform(0.05, 0.5))
        primal, _ = ot.worst_case_risk(P, loss, radius, grid)
        dual, _ = ot.dual_value(P, loss, radius, grid)
        assert dual >= primal - 1e-9
        assert dual - primal <= 0.02 * max(abs(primal), 1e-9) + 1e-6


def test_dual_is_exact_on_bundled_instances():
    # lam* is the LP's own multiplier, so the dual closes the gap to round-off;
    # a budget that does not bind (a constant loss) has lam* = 0
    for inst in ot.bundled_instances():
        primal, _ = ot.worst_case_risk(inst.P, inst.loss_fn, inst.radius, inst.grid)
        dual, lam_star = ot.dual_value(inst.P, inst.loss_fn, inst.radius, inst.grid)
        assert abs(primal - dual) <= 1e-12 * max(1.0, abs(primal)), inst.name
        if inst.name == "pair-constant":
            assert lam_star == 0.0


def test_finer_grids_tighten_the_primal():
    # the LP maximizes over grid-supported measures, so refining the grid can
    # only raise the value toward the continuum optimum 0.5
    loss = lambda x: float(x[0])
    vals = [ot.worst_case_risk(dirac([0.0]), loss, 0.5, ot.grid_1d(-1, 1, n))[0]
            for n in (51, 101, 401)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
    assert vals[2] == pytest.approx(0.5, abs=1e-6)


def test_sampled_plans_stay_feasible():
    rng = np.random.default_rng(13)
    P = _dist([[-0.5], [0.5]])
    grid = ot.grid_1d(-1.5, 1.5, 61)
    radius = 0.4
    C = ot._grid_costs(P, grid)
    plans = ot.sample_plans_in_ball(P, grid, radius, 50, rng)
    assert len(plans) == 50
    spread = 0
    for plan in plans:
        assert np.allclose(plan.sum(axis=1), P.weights, atol=1e-9)
        assert np.all(plan >= -1e-12)
        assert float((plan * C).sum()) <= radius**2 + 1e-9
        if np.count_nonzero(plan > 1e-9) > 2:
            spread += 1
    assert spread > 10  # the sampler actually moves mass around


def _reference_sample_plans(P, grid, radius, count, rng):
    """The sampler's moves replayed plan by plan on dense (m, g) plans.

    Each move draws its rows, cells, source picks and shares for all plans at
    once, as the sampler does; each plan then applies its own draw, taking its
    sources from `np.flatnonzero`.
    """
    C = ot._grid_costs(P, grid)
    m, g = C.shape
    nearest = C.argmin(axis=1)
    left = [radius**2 - float(P.weights @ C[np.arange(m), nearest])] * count
    plans = [np.zeros((m, g)) for _ in range(count)]
    for plan in plans:
        plan[np.arange(m), nearest] = P.weights
    for _move in range(4 * m + 8):
        rows = rng.integers(m, size=count)
        cols = rng.integers(g, size=count)
        sources = [np.flatnonzero(plan[i] > 1e-12) for plan, i in zip(plans, rows)]
        picks = rng.integers([max(len(s), 1) for s in sources])
        shares = rng.random(count)
        for p, plan in enumerate(plans):
            if len(sources[p]) == 0:
                continue
            i, j, src = int(rows[p]), int(cols[p]), int(sources[p][picks[p]])
            if src == j:
                continue
            extra = C[i, j] - C[i, src]
            cap = plan[i, src] if extra <= ot._TOL else min(plan[i, src], left[p] / extra)
            amount = cap * shares[p]
            if amount <= 0:
                continue
            plan[i, src] -= amount
            plan[i, j] += amount
            left[p] -= extra * amount
    return plans


@pytest.mark.parametrize("seed", [0, 7, 101])
def test_sampled_plans_match_per_plan_reference(seed):
    for inst in ot.bundled_instances():
        if inst.radius == 0:
            continue
        got = ot.sample_plans_in_ball(inst.P, inst.grid, inst.radius, 5,
                                      np.random.default_rng(seed))
        want = _reference_sample_plans(inst.P, inst.grid, inst.radius, 5,
                                       np.random.default_rng(seed))
        assert len(got) == 5
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), inst.name


@pytest.mark.parametrize("seed", [0, 7, 101])
def test_sampled_plans_match_reference_when_sources_fall_below_threshold(seed):
    # an atom of mass 1e-11: a move leaves less than 1e-12 behind in about one
    # draw in ten, so the row's source set must shrink as well as grow
    P = DiscreteDistribution(np.array([[-0.5], [0.5]]), np.array([1.0 - 1e-11, 1e-11]))
    grid = ot.grid_1d(-1.5, 1.5, 31)
    got = ot.sample_plans_in_ball(P, grid, 0.5, 60, np.random.default_rng(seed))
    want = _reference_sample_plans(P, grid, 0.5, 60, np.random.default_rng(seed))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert any(np.count_nonzero((0 < plan[1]) & (plan[1] <= 1e-12)) for plan in got)


def test_zero_weight_atom_takes_no_move():
    # worst_case_risk accepts the atom; the sampler used to draw from an empty source set
    P = DiscreteDistribution(np.array([[-0.5], [0.5]]), np.array([1.0, 0.0]))
    grid = ot.grid_1d(-1.5, 1.5, 31)
    got = ot.sample_plans_in_ball(P, grid, 0.4, 20, np.random.default_rng(3))
    want = _reference_sample_plans(P, grid, 0.4, 20, np.random.default_rng(3))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(not plan[1].any() for plan in got)
    assert any(np.count_nonzero(plan[0]) > 1 for plan in got)
    ot.worst_case_risk(P, lambda x: float(x[0]), 0.4, grid)


@pytest.mark.parametrize("seed", range(5))
def test_sampled_plans_are_feasible_on_bundled_instances(seed):
    rng = np.random.default_rng(seed)
    for inst in ot.bundled_instances():
        C = ot._grid_costs(inst.P, inst.grid)
        for plan in ot.sample_plans_in_ball(inst.P, inst.grid, inst.radius, 20, rng):
            assert np.all(np.abs(plan.sum(axis=1) - inst.P.weights) <= 1e-12), inst.name
            assert np.all(plan >= 0.0), inst.name
            assert float((plan * C).sum()) <= inst.radius**2 + 1e-9, inst.name


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_slot_risks_equal_the_dense_plans_risks(seed):
    # the sums run in another order, and on the odd losses they cancel, so the
    # tolerance is relative to each plan's sum of |mass * loss|
    for inst in ot.bundled_instances():
        if inst.radius == 0:
            continue
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        C = ot._grid_costs(inst.P, inst.grid)
        lvals = inst.loss(inst.grid)
        losses = np.stack([lvals, 1.0 - 2.0 * lvals])
        got = ot._sampled_risks(inst.P, C, inst.radius, 100, rng_a, losses)
        plans = ot.sample_plans_in_ball(inst.P, inst.grid, inst.radius, 100, rng_b)
        want = np.array([[np.sum(plan * v) for v in losses] for plan in plans])
        scale = np.array([[np.sum(plan * np.abs(v)) for v in losses] for plan in plans])
        assert got.shape == (100, 2), inst.name
        assert np.all(np.abs(got - want) <= 1e-15 * scale), inst.name
        assert rng_a.random() == rng_b.random(), inst.name


# the bundled losses as per-point lambdas, the reference for their array forms
REFERENCE_LOSSES = {
    "dirac-linear": lambda x: float(x[0]),
    "pair-linear": lambda x: float(x[0]),
    "pair-steep": lambda x: 2.0 * float(x[0]),
    "pair-neg": lambda x: -float(x[0]),
    "skew-abs": lambda x: abs(float(x[0])),
    "tri-quadratic": lambda x: float(x[0]) ** 2,
    "pair-sine": lambda x: float(np.sin(2.0 * x[0])),
    "tri-zero-radius": lambda x: float(np.tanh(x[0])),
    "pair-constant": lambda x: 1.25,
    "2d-dirac-sum": lambda x: float(x[0] + x[1]),
    "2d-pair-norm": lambda x: float(np.linalg.norm(x)),
    "2d-tri-smooth": lambda x: float(np.tanh(x[0]) - 0.5 * x[1]),
}


def test_array_losses_equal_the_per_point_losses_bitwise():
    instances = ot.bundled_instances()
    assert [inst.name for inst in instances] == list(REFERENCE_LOSSES)
    for inst in instances:
        want = np.array([REFERENCE_LOSSES[inst.name](g) for g in inst.grid])
        got = inst.loss(inst.grid)
        assert got.shape == (len(inst.grid),), inst.name
        assert np.array_equal(got, want), inst.name
        assert [inst.loss_fn(g) for g in inst.grid] == list(want), inst.name


def test_sampler_rejects_negative_count():
    with pytest.raises(ValueError, match="count"):
        ot.sample_plans_in_ball(dirac([0.0]), ot.grid_1d(-1, 1, 11), 0.5, -1,
                                np.random.default_rng(0))


# ------------------------------------------------------------ theory checks
def test_lemma_sandwich_passes_on_linear_family():
    P = _dist([[-0.5], [0.5]])
    grid = ot.grid_1d(-1.5, 1.5, 301)
    family = [
        lambda x: float(x[0]),
        lambda x: 0.5 * float(x[0]) + 0.1,
        lambda x: -float(x[0]),
    ]
    report = ot.check_lemma1(P, family, member=0, rho=0.3, lam=4.0, grid=grid,
                             lipschitz=1.0, rng=np.random.default_rng(2))
    assert report.passed, report.assertions
    assert report.lipschitz_term == pytest.approx(0.6, abs=1e-12)
    assert report.gap == abs(report.primal - report.dual)
    assert report.sandwich_margin > 0.0


def test_lemma_hypothesis_is_enforced():
    P = _dist([[-0.5], [0.5]])
    grid = ot.grid_1d(-1.5, 1.5, 101)
    family = [lambda x: float(x[0]), lambda x: -float(x[0])]
    with pytest.raises(ValueError, match="L/rho"):
        ot.check_lemma1(P, family, member=0, rho=0.3, lam=1.0, grid=grid, lipschitz=1.0)


def test_theory_suite_covers_and_passes():
    reports = ot.run_theory_suite(n_ball_samples=40, seed=0)
    assert len(reports) >= 10
    assert any(r.instance.startswith("2d-") for r in reports)
    for r in reports:
        assert r.passed, f"{r.instance}: {r.assertions}"
        assert r.dual >= r.primal - 1e-9
    by_name = {r.instance: r for r in reports}
    assert by_name["dirac-linear"].primal == pytest.approx(0.5, abs=1e-6)
    assert by_name["pair-constant"].primal == pytest.approx(1.25, abs=1e-9)
    row = reports[0].row()
    assert row.count(",") >= 5 and "ok" in row


def test_theory_suite_matches_the_public_calls_bitwise():
    # the suite solves each instance's LP once; its numbers are those of the
    # two public calls, which solve it separately
    for inst, rep in zip(ot.bundled_instances(), ot.run_theory_suite(n_ball_samples=5)):
        primal, _ = ot.worst_case_risk(inst.P, inst.loss_fn, inst.radius, inst.grid)
        dual, lam_star = ot.dual_value(inst.P, inst.loss_fn, inst.radius, inst.grid)
        assert rep.instance == inst.name
        assert (rep.primal, rep.dual, rep.lam_star) == (primal, dual, lam_star), inst.name


def _theory_audit(seed):
    # the suite and the lemma-1 sandwich exactly as `wasecom check-theory` runs them
    reports = ot.run_theory_suite(n_ball_samples=100, seed=seed)
    family = [lambda x: float(x[0]), lambda x: 0.5 * float(x[0]) + 0.1, lambda x: -float(x[0])]
    pair = _dist([[-0.5], [0.5]])
    reports.append(ot.check_lemma1(pair, family, member=0, rho=0.3, lam=4.0,
                                   grid=ot.grid_1d(-1.5, 1.5, 301), lipschitz=1.0,
                                   rng=np.random.default_rng(seed)))
    return reports


# sha256 of every report's row, repr'd numbers and flags; of the suite's sampled plans.
# The reports' digest is the same for both seeds: no sampled plan sets the lemma's
# worst gap or flips a flag, so the plans are pinned on their own.
PINNED_THEORY_AUDITS = {
    0: ("f61f1a62391890fe3713b33fd1bacfea8f2799378a96258b1d818235fac93043",
        "9c6dd2e12416a53df13a7342fe2dc243b3ab3a9916c43afbd20fb3e3de7db7b8"),
    7: ("f61f1a62391890fe3713b33fd1bacfea8f2799378a96258b1d818235fac93043",
        "724e5685290ea6d646f2f9879b61ad0383010fd1a6c0b63c6aa6ab372ac4cc45"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_THEORY_AUDITS))
def test_theory_audit_is_pinned(seed):
    reports_sha, plans_sha = PINNED_THEORY_AUDITS[seed]
    h = hashlib.sha256()
    for r in _theory_audit(seed):
        h.update(repr((r.row(), r.primal, r.dual, r.lam_star, r.lipschitz_term,
                       r.dual_mismatch_term, r.sandwich_margin, r.assertions)).encode())
    assert h.hexdigest() == reports_sha
    # the plans the suite draws: one stream, one call per instance with a ball
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for inst in ot.bundled_instances():
        if inst.radius > 0:
            h.update(np.stack(ot.sample_plans_in_ball(inst.P, inst.grid, inst.radius, 100,
                                                      rng)).tobytes())
    assert h.hexdigest() == plans_sha


def test_theory_suite_holds_no_dense_plan_stack():
    # 100 dense (3, 1681) plans of 2d-tri-smooth alone are 4.0 MB, and their
    # (100, 1681) column marginals 1.3 MB
    ot.run_theory_suite(n_ball_samples=5)
    tracemalloc.start()
    try:
        ot.run_theory_suite(n_ball_samples=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak   # 7.1 MB with the dense stack, 2.9 MB with the marginals
