import numpy as np
import pytest

from wasecom import models as M
from wasecom.perturb import (
    PerturbMethod,
    PerturbSpec,
    attacked_row_mask,
    fgsm,
    gaussian_samples,
    pgd,
    project_ball,
)
from wasecom.tensor import Tensor


def linear_loss(w):
    wt = Tensor(np.asarray(w, dtype=float))
    return lambda t: (t * wt).sum(axis=1)


def test_project_inside_unchanged_outside_rescaled():
    center = np.zeros((2, 3))
    inside = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    assert np.array_equal(project_ball(inside, center, 1.0), inside)
    outside = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    proj = project_ball(outside, center, 1.0)
    assert np.allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-12)
    assert np.allclose(proj[0], [1.0, 0.0, 0.0])


def test_project_zero_radius_returns_center():
    center = np.ones((2, 2))
    moved = center + 0.5
    assert np.array_equal(project_ball(moved, center, 0.0), center)


def test_fgsm_signed_step_then_projection():
    x = np.zeros((1, 4))
    spec = PerturbSpec(method="fgsm", radius=np.inf, epsilon_inf=0.25)
    out = fgsm(linear_loss([1.0, -2.0, 3.0, 0.0]), x, spec)
    assert np.array_equal(out, [[0.25, -0.25, 0.25, 0.0]])

    tight = PerturbSpec(method="fgsm", radius=0.25, epsilon_inf=0.25)
    out2 = fgsm(linear_loss([1.0, -2.0, 3.0, 0.0]), x, tight)
    assert abs(np.linalg.norm(out2) - 0.25) < 1e-12


def test_fgsm_zero_gradient_is_noop():
    x = np.full((2, 3), 0.7)
    spec = PerturbSpec(method="fgsm", radius=1.0, epsilon_inf=0.1)
    out = fgsm(lambda t: (t * Tensor(np.zeros(3))).sum(axis=1), x, spec)
    assert np.array_equal(out, x)


def test_budget_invariant_fgsm_and_pgd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 5))
    w = rng.normal(size=5)
    for spec in (PerturbSpec(method="fgsm", radius=0.3, epsilon_inf=0.2),
                 PerturbSpec(method="pgd", radius=0.3, steps=5)):
        out = fgsm(linear_loss(w), x, spec) if spec.method is PerturbMethod.FGSM else pgd(linear_loss(w), x, spec)
        norms = np.linalg.norm(out - x, axis=1)
        assert np.all(norms <= 0.3 + 1e-9)


def test_pgd_converges_on_concave_quadratic():
    target = np.array([[0.06, 0.05]])

    def loss(t):
        return -((t - Tensor(target)).square().sum(axis=1))

    x = np.zeros((1, 2))
    spec = PerturbSpec(method="pgd", radius=0.5, steps=50, step_size=0.002)
    out = pgd(loss, x, spec)
    assert np.linalg.norm(out - target) < 1e-3


def test_pgd_single_step_is_normalized_fgsm():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=6)
    spec = PerturbSpec(method="pgd", radius=10.0, steps=1, step_size=0.05)
    out = pgd(linear_loss(w), x, spec)
    manual = x + 0.05 * w / np.linalg.norm(w)
    assert np.allclose(out, manual, atol=1e-12)


def test_attack_ordering_holds_on_most_trials():
    # loss(pgd) >= loss(fgsm) >= loss(clean) - 1e-9 on at least 90% of trials
    rng = np.random.default_rng(2)
    wins = 0
    trials = 40
    for _ in range(trials):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=4)

        def loss(t, a=a, b=b):
            return ((t @ Tensor(a)).tanh() * Tensor(b)).sum(axis=1)

        x = rng.normal(size=(3, 4)) * 0.3
        f_spec = PerturbSpec(method="fgsm", radius=0.4, epsilon_inf=0.2)
        p_spec = PerturbSpec(method="pgd", radius=0.4, steps=7)
        clean = float(loss(Tensor(x)).data.sum())
        f_val = float(loss(Tensor(fgsm(loss, x, f_spec))).data.sum())
        p_val = float(loss(Tensor(pgd(loss, x, p_spec))).data.sum())
        if p_val >= f_val - 1e-12 and f_val >= clean - 1e-9:
            wins += 1
    assert wins >= 0.9 * trials


def test_pgd_never_returns_worse_than_clean():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.normal(size=5)
        x = rng.normal(size=(6, 5))
        spec = PerturbSpec(method="pgd", radius=0.5, steps=4)
        out = pgd(linear_loss(w), x, spec)
        clean = x @ w
        attacked = out @ w
        assert np.all(attacked >= clean - 1e-9)


def test_gaussian_sample_count_and_budget_in_expectation():
    rng = np.random.default_rng(4)
    x = np.zeros((200, 16))
    spec = PerturbSpec(method="gaussian", radius=0.8, sample_count=5)
    draws = gaussian_samples(x, spec, rng)
    assert len(draws) == 5
    sq = np.concatenate([np.sum((d - x) ** 2, axis=1) for d in draws])
    assert abs(np.mean(sq) - 0.8**2) / 0.8**2 < 0.1


def test_gaussian_zero_radius_returns_centers():
    x = np.random.default_rng(5).normal(size=(3, 4))
    draws = gaussian_samples(x, PerturbSpec(method="gaussian", radius=0.0, sample_count=3),
                             np.random.default_rng(0))
    for d in draws:
        assert np.array_equal(d, x)


def test_gaussian_seeded_determinism():
    x = np.zeros((4, 4))
    spec = PerturbSpec(method="gaussian", radius=1.0, sample_count=2)
    a = gaussian_samples(x, spec, np.random.default_rng(9))
    b = gaussian_samples(x, spec, np.random.default_rng(9))
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


def test_attack_leaves_model_gradients_untouched():
    dims = M.ModelDims(input_dim=16, semantic_dim=4, signal_dim=4, hidden_dim=8)
    bundle = M.ModelBundle(M.TaskKind.IMAGE, dims, seed=6)
    frozen = bundle.frozen()

    def loss(t):
        s = M.semantic_encode(frozen, t)
        out = M.semantic_decode(frozen, M.channel_decode(frozen, M.channel_encode(frozen, s)))
        return M.per_sample_reconstruction_loss(frozen, t.detach(), out)

    x = np.random.default_rng(7).uniform(size=(5, 16))
    pgd(loss, x, PerturbSpec(method="pgd", radius=0.2, steps=3))
    for _, p in bundle.named_params():
        assert np.array_equal(p.grad, np.zeros_like(p.data))


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbSpec(method="pgd", radius=-1.0)
    with pytest.raises(ValueError):
        PerturbSpec(method="fgsm", sample_fraction=1.5)
    with pytest.raises(ValueError):
        PerturbSpec(method="pgd", steps=0)
    with pytest.raises(ValueError, match="sample_count"):
        PerturbSpec(method="gaussian", sample_count=0)
    for eps in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon_inf"):
            PerturbSpec(method="fgsm", epsilon_inf=eps)


def test_attacked_row_mask_fraction_and_determinism():
    m1 = attacked_row_mask(10, 0.3, np.random.default_rng(8))
    m2 = attacked_row_mask(10, 0.3, np.random.default_rng(8))
    assert m1.sum() == 3 and np.array_equal(m1, m2)
    assert attacked_row_mask(10, 0.0, np.random.default_rng(8)).sum() == 0
