import hashlib

import numpy as np
import pytest

from wasecom import models as M
from wasecom import objectives as O
from wasecom import tensor as T
from wasecom.channel import ChannelConfig, apply_realization, transmit
from wasecom.perturb import PerturbSpec, gaussian_samples
from wasecom.tensor import Tensor


def image_bundle(seed=0):
    dims = M.ModelDims(input_dim=16, semantic_dim=4, signal_dim=4, hidden_dim=12)
    return M.ModelBundle(M.TaskKind.IMAGE, dims, seed=seed)


def text_bundle(seed=0):
    dims = M.ModelDims(input_dim=24, semantic_dim=12, signal_dim=6, hidden_dim=12,
                       vocab_size=16, seq_len=6, embed_dim=4)
    return M.ModelBundle(M.TaskKind.TEXT, dims, seed=seed)


def lse_smooth(values, epsilon_temp: float) -> float:
    """Reference LSE: epsilon * log(mean_k exp(v_k / epsilon)), stabilized by max subtraction."""
    v = np.asarray(values, dtype=float)
    m = v.max()
    return float(m + epsilon_temp * np.log(np.mean(np.exp((v - m) / epsilon_temp))))


def lse_column(values, epsilon_temp: float) -> float:
    """O.lse_combine on one (K, 1) column of scores."""
    column = Tensor(np.asarray(values, dtype=float)[:, None])
    return float(O.lse_combine(column, epsilon_temp).data[0])


def test_lse_smooth_two_point_example():
    # eps * log(mean(exp(v/eps))) on {1, 3} at eps=1
    expected = np.log((np.e + np.e**3) / 2.0)
    assert abs(lse_smooth([1.0, 3.0], 1.0) - expected) < 1e-12
    assert abs(lse_column([1.0, 3.0], 1.0) - expected) < 1e-12
    assert abs(expected - 2.4338) < 1e-4


def test_lse_smooth_approaches_max_as_eps_shrinks():
    vals = [0.2, 1.7, -0.4]
    assert abs(lse_column(vals, 0.001) - 1.7) < 1e-2


def test_lse_sandwich_on_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 12))
        v = rng.normal(scale=rng.uniform(0.5, 50), size=k)
        for eps in (1.0, 0.1, 0.01):
            val = lse_column(v, eps)
            assert v.max() - eps * np.log(k) - 1e-9 <= val <= v.max() + 1e-9


def test_lse_single_value_is_exact_identity():
    for eps in (1.0, 0.1, 0.003):
        assert lse_column([2.71], eps) == 2.71


def test_lse_combine_matches_scalar_version():
    rng = np.random.default_rng(1)
    scored = [Tensor(rng.normal(size=4)) for _ in range(5)]
    combined = O.lse_combine(Tensor(np.stack([s.data for s in scored])), 0.1)
    stacked = np.stack([s.data for s in scored])
    for i in range(4):
        assert abs(combined.data[i] - lse_smooth(stacked[:, i], 0.1)) < 1e-12


def test_penalized_sup_one_dimensional_toy():
    # sup over the line of v - v^2 is 0.25 at v = 0.5
    x = np.zeros((1, 1))
    spec = PerturbSpec(method="pgd", radius=np.inf, steps=10)
    worst = O.penalized_sup_hard(lambda t: t.sum(axis=1), x, 1.0, spec)
    assert abs(worst[0, 0] - 0.5) < 1e-9
    sup_val = worst[0, 0] - worst[0, 0] ** 2
    assert abs(sup_val - 0.25) < 1e-9


def test_inner_dual_total_decomposition_and_ball():
    bundle = image_bundle(1)
    x = np.random.default_rng(2).uniform(size=(6, 16))
    rob = O.RobustnessConfig(rho=0.4, lam=0.7)
    spec = PerturbSpec(method="pgd", steps=4)
    val = O.inner_dual_loss(bundle, x, ChannelConfig(snr_db=15.0), rob, spec,
                            np.random.default_rng(3))
    assert abs(float(val.total.data) - (val.penalty_term + val.expectation_term)) <= 1e-12
    assert abs(val.penalty_term - 0.7 * 0.4**2) < 1e-15
    radii = np.linalg.norm(val.worst_case - x, axis=1)
    assert np.all(radii <= 0.4 + 1e-9)
    assert val.mean_cost <= 0.4**2 + 1e-9


def test_inner_dual_gradients_reach_semantic_codec():
    bundle = image_bundle(4)
    x = np.random.default_rng(5).uniform(size=(5, 16))
    rob = O.RobustnessConfig(rho=0.3, lam=1.0)
    val = O.inner_dual_loss(bundle, x, ChannelConfig(snr_db=12.0), rob,
                            PerturbSpec(method="pgd", steps=3), np.random.default_rng(6))
    val.total.backward()
    assert any(np.any(p.grad != 0) for p in bundle.semantic_params())


def test_outer_dual_gradients_reach_both_channel_halves():
    bundle = image_bundle(7)
    x = np.random.default_rng(8).uniform(size=(5, 16))
    rob = O.RobustnessConfig(mu=0.2, gamma=1.0)
    val = O.outer_dual_loss(bundle, x, ChannelConfig(snr_db=12.0), rob,
                            PerturbSpec(method="pgd", steps=3), np.random.default_rng(9))
    val.total.backward()
    enc_grads = [p.grad for name, p in bundle.params.items() if name.startswith("chan_enc.")]
    dec_grads = [p.grad for name, p in bundle.params.items() if name.startswith("chan_dec.")]
    assert any(np.any(g != 0) for g in enc_grads), "encoder lost its gradient path"
    assert any(np.any(g != 0) for g in dec_grads)
    # the semantic target is frozen: no gradient may leak into the semantic codec
    assert all(np.all(p.grad == 0) for p in bundle.semantic_params())


def test_degenerate_radii_reduce_to_clean_losses_bitwise():
    for bundle, x in ((image_bundle(10), np.random.default_rng(11).uniform(size=(4, 16))),
                      (text_bundle(10), np.random.default_rng(12).integers(0, 16, size=(4, 6)))):
        cfg = ChannelConfig(snr_db=8.0)
        rob = O.RobustnessConfig(rho=0.0, mu=0.0, lam=1.0, gamma=1.0)
        spec = PerturbSpec(method="none")

        val = O.inner_dual_loss(bundle, x, cfg, rob, spec, np.random.default_rng(100))
        clean = O.clean_inner_loss(bundle, x, cfg, np.random.default_rng(100))
        assert float(val.total.data) == float(clean.data)
        assert val.penalty_term == 0.0 and val.mean_cost == 0.0

        val_o = O.outer_dual_loss(bundle, x, cfg, rob, spec, np.random.default_rng(101))
        clean_o = O.clean_outer_loss(bundle, x, cfg, np.random.default_rng(101))
        assert float(val_o.total.data) == float(clean_o.data)


def test_degenerate_gradients_match_clean_gradients_bitwise():
    # both losses run the source points through the per-row pipeline; a clean
    # loss that encoded ids through the table would sum the text gradients in
    # another order
    rng = np.random.default_rng(14)
    for make, x in ((image_bundle, rng.uniform(size=(4, 16))),
                    (text_bundle, rng.integers(0, 16, size=(4, 6)))):
        bundle_a, bundle_b = make(13), make(13)
        cfg = ChannelConfig(snr_db=10.0)

        val = O.inner_dual_loss(bundle_a, x, cfg, O.RobustnessConfig(),
                                PerturbSpec(method="none"), np.random.default_rng(200))
        val.total.backward()
        O.clean_inner_loss(bundle_b, x, cfg, np.random.default_rng(200)).backward()
        for pa, pb in zip(bundle_a.semantic_params(), bundle_b.semantic_params()):
            assert np.array_equal(pa.grad, pb.grad)


def test_lse_path_decomposition_and_cost_weighting():
    bundle = image_bundle(15)
    x = np.random.default_rng(16).uniform(size=(4, 16))
    rob = O.RobustnessConfig(rho=0.5, lam=0.8, use_lse=True, epsilon_temp=0.5)
    spec = PerturbSpec(method="gaussian", sample_count=4)
    val = O.inner_dual_loss(bundle, x, ChannelConfig(snr_db=15.0), rob, spec,
                            np.random.default_rng(17), attack_rng=np.random.default_rng(18))
    assert abs(float(val.total.data) - (val.penalty_term + val.expectation_term)) <= 1e-12
    assert val.mean_cost > 0
    val.total.backward()
    assert any(np.any(p.grad != 0) for p in bundle.semantic_params())


def test_lse_path_single_sample_matches_scored_value():
    bundle = image_bundle(19)
    x = np.random.default_rng(20).uniform(size=(3, 16))
    rob = O.RobustnessConfig(rho=0.3, lam=0.5, use_lse=True, epsilon_temp=0.07)
    spec = PerturbSpec(method="gaussian", sample_count=1)
    val = O.inner_dual_loss(bundle, x, ChannelConfig(snr_db=15.0), rob, spec,
                            np.random.default_rng(21), attack_rng=np.random.default_rng(22))
    # with one sample the smoothed sup IS the scored value; reconstruct it
    assert np.isfinite(val.expectation_term)
    assert abs(float(val.total.data) - (val.penalty_term + val.expectation_term)) <= 1e-12


def test_update_duals_direction_and_projection():
    rob = O.RobustnessConfig(rho=0.5, mu=0.2, lam=1.0, gamma=0.001)
    # cost above budget pushes the dual variable up
    up = O.update_duals(rob, dual_lr=0.1, inner_cost=0.5**2 + 0.3)
    assert up.lam > rob.lam
    # cost below budget pulls it down, clipped at zero
    down = O.update_duals(rob, dual_lr=10.0, outer_cost=0.0)
    assert down.gamma == 0.0


def test_update_duals_respects_learnable_flag():
    rob = O.RobustnessConfig(rho=0.5, lam=1.0, lambda_learnable=False)
    out = O.update_duals(rob, dual_lr=0.1, inner_cost=5.0)
    assert out.lam == 1.0


def test_robustness_config_validation():
    with pytest.raises(ValueError):
        O.RobustnessConfig(rho=-0.1)
    with pytest.raises(ValueError):
        O.RobustnessConfig(lam=-1.0)
    with pytest.raises(ValueError):
        O.RobustnessConfig(epsilon_temp=0.0)
    for name in ("rho", "mu", "lam", "gamma", "epsilon_temp"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                O.RobustnessConfig(**{name: value})


def test_text_inner_dual_attacks_embeddings():
    bundle = text_bundle(23)
    ids = np.random.default_rng(24).integers(0, 16, size=(3, 6))
    rob = O.RobustnessConfig(rho=0.6, lam=0.5)
    val = O.inner_dual_loss(bundle, ids, ChannelConfig(snr_db=12.0), rob,
                            PerturbSpec(method="pgd", steps=3), np.random.default_rng(25))
    emb0 = M.embed_tokens(bundle.frozen(), ids).data
    moved = np.linalg.norm(val.worst_case - emb0, axis=1)
    assert np.all(moved <= 0.6 + 1e-9) and np.any(moved > 1e-6)
    val.total.backward()
    assert np.any(bundle.params["embed"].grad != 0), "embedding table must receive gradient"


def _per_draw_lse_reference(bundle, x, cfg, rob, spec, rng, attack_rng, phase):
    """The LSE objective built draw by draw: one full graph per Gaussian draw,
    combined by a running sum of exponentials.  Returns (total, expectation,
    mean_cost)."""
    frozen = bundle.frozen()
    text = bundle.task is M.TaskKind.TEXT
    if phase == "inner":
        center = M.embed_tokens(frozen, x).data if text else np.asarray(x, dtype=float)
        encode = M.semantic_encode_from_embeddings if text else M.semantic_encode
        _, real = transmit(cfg, M.channel_encode(frozen, encode(frozen, Tensor(center))), rng)
        radius, dual = rob.rho, rob.lam

        def scored(offset):
            inputs = M.embed_tokens(bundle, x) + Tensor(offset) if text else Tensor(center + offset)
            z = apply_realization(M.channel_encode(bundle, encode(bundle, inputs)), real)
            out = M.semantic_decode(bundle, M.channel_decode(bundle, z))
            return M.per_sample_reconstruction_loss(bundle, x, out), np.sum(offset**2, axis=1)
    else:
        s0 = M.semantic_encode(frozen, x).data
        z, _ = transmit(cfg, M.channel_encode(bundle, Tensor(s0)), rng)
        center, radius, dual = z.data, rob.mu, rob.gamma

        def scored(offset):
            s_hat = M.channel_decode(bundle, z + Tensor(offset))
            return M.per_sample_channel_loss(Tensor(s0), s_hat), np.sum(offset**2, axis=1)

    draws = gaussian_samples(center, PerturbSpec(method="gaussian", radius=radius,
                                                 sample_count=spec.sample_count), attack_rng)
    scores, costs = [], []
    for draw in draws:
        loss, cost = scored(draw - center)
        scores.append(loss - T.scale(Tensor(cost), dual))
        costs.append(cost)
    m = Tensor(np.maximum.reduce([sc.data for sc in scores]))
    acc = T.exp(T.scale(scores[0] - m, 1.0 / rob.epsilon_temp))
    for sc in scores[1:]:
        acc = acc + T.exp(T.scale(sc - m, 1.0 / rob.epsilon_temp))
    expectation = (m + T.scale(T.log(T.scale(acc, 1.0 / len(scores))), rob.epsilon_temp)).mean()
    stacked = np.stack([sc.data for sc in scores])
    soft = np.exp((stacked - stacked.max(axis=0)) / rob.epsilon_temp)
    soft /= soft.sum(axis=0)
    mean_cost = float(np.mean(np.sum(soft * np.stack(costs), axis=0)))
    return expectation + Tensor(dual * radius**2), float(expectation.data), mean_cost


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("task,phase", [("image", "inner"), ("text", "inner"),
                                        ("image", "outer"), ("text", "outer")])
def test_stacked_lse_matches_per_draw_loop(task, phase, k):
    make, seed = (image_bundle, 30) if task == "image" else (text_bundle, 31)
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(5, 16)) if task == "image" else rng.integers(0, 16, size=(5, 6))
    cfg = ChannelConfig(snr_db=9.0)
    rob = O.RobustnessConfig(rho=0.4, mu=0.3, lam=0.6, gamma=0.9, use_lse=True,
                             epsilon_temp=0.2)
    spec = PerturbSpec(method="gaussian", sample_count=k)
    stacked_bundle, loop_bundle = make(seed), make(seed)
    objective = O.inner_dual_loss if phase == "inner" else O.outer_dual_loss
    val = objective(stacked_bundle, x, cfg, rob, spec, np.random.default_rng(40),
                    attack_rng=np.random.default_rng(41))
    total, expectation, mean_cost = _per_draw_lse_reference(
        loop_bundle, x, cfg, rob, spec, np.random.default_rng(40), np.random.default_rng(41), phase)
    assert abs(float(val.total.data) - float(total.data)) <= 1e-12
    assert abs(val.expectation_term - expectation) <= 1e-12
    assert abs(val.mean_cost - mean_cost) <= 1e-12
    val.total.backward()
    total.backward()
    moved = 0
    for (name, got), (_, want) in zip(stacked_bundle.named_params(), loop_bundle.named_params()):
        assert np.allclose(got.grad, want.grad, rtol=1e-10, atol=1e-15), name
        moved += np.any(want.grad != 0)
    assert moved > 0


def _dual_objective_case(task, phase, path):
    make, seed = (image_bundle, 50) if task == "image" else (text_bundle, 51)
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(5, 16)) if task == "image" else rng.integers(0, 16, size=(5, 6))
    rob = O.RobustnessConfig(rho=0.4, mu=0.3, lam=0.05, gamma=0.9,
                             use_lse=path == "lse", epsilon_temp=0.2)
    if path == "lse":
        spec = PerturbSpec(method="gaussian", sample_count=4)
    elif phase == "inner":
        spec = PerturbSpec(method="pgd", steps=3)
    else:
        spec = PerturbSpec(method="fgsm", epsilon_inf=1.0)
    bundle = make(seed)
    objective = O.inner_dual_loss if phase == "inner" else O.outer_dual_loss
    val = objective(bundle, x, ChannelConfig(snr_db=9.0), rob, spec, np.random.default_rng(60),
                    attack_rng=np.random.default_rng(61))
    val.total.backward()
    return bundle, val


# sha256 of each dual objective's value, its reported terms, its worst case
# (hard path only) and every parameter's gradient after total.backward().
# Hard path: PGD-3 inner, FGSM with eps_inf = 1 outer.  LSE path: K = 4 draws
# at epsilon_temp 0.2.
DUAL_OBJECTIVE_SHA = {
    "image-inner-hard": "7a62748fb8fa84816f5beec9ffac2d416cf42c6b6816d1968cfa717863b592be",
    "text-inner-hard": "180defafe080fa3270e5de061e45e27200405aa253e0b314755751d4bec17035",
    "image-outer-hard": "1dd6b7b37a54b4c053e1c7577ad287f1b48da5d7d058ac89c846b1e1bb734b43",
    "text-outer-hard": "e48464b74dc2c2c2a3d171d9b295032af205ddfaa18886aca2c41460b179dea1",
    "image-inner-lse": "e1df5547c11bb6d1ad918ae60906cf56ee9b7da60f9e2eae11ccf6e661a7486c",
    "text-inner-lse": "ce28ffac1298387ba3770ff9d47ecc4450006d8e874eb6be93b32ef06e797883",
    "image-outer-lse": "a9e1d4f77630f9f27b1d5d2b8115978f7dd49d1eb601ade4de9de8a856056913",
    "text-outer-lse": "189ad38af52601a531578047d1086da638e59cc66afc0a2ee3d122912a5972f2",
}


@pytest.mark.parametrize("path", ["hard", "lse"])
@pytest.mark.parametrize("task,phase", [("image", "inner"), ("text", "inner"),
                                        ("image", "outer"), ("text", "outer")])
def test_dual_objectives_are_pinned(task, phase, path):
    bundle, val = _dual_objective_case(task, phase, path)
    h = hashlib.sha256()
    h.update(val.total.data.tobytes())
    for term in (val.penalty_term, val.expectation_term, val.mean_cost):
        h.update(np.float64(term).tobytes())
    if val.worst_case is not None:
        h.update(val.worst_case.tobytes())
    for name, p in bundle.named_params():
        h.update(name.encode() + p.grad.tobytes())
    assert h.hexdigest() == DUAL_OBJECTIVE_SHA[f"{task}-{phase}-{path}"]
