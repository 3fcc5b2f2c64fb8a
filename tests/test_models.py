import hashlib

import numpy as np
import pytest

from wasecom import models as M
from wasecom.channel import ChannelConfig, ChannelKind, realization_for
from wasecom.optim import Adam, Sgd
from wasecom.tensor import Tensor


def image_bundle(seed=0):
    dims = M.ModelDims(input_dim=64, semantic_dim=16, signal_dim=16, hidden_dim=32)
    return M.ModelBundle(M.TaskKind.IMAGE, dims, seed=seed)


def text_bundle(seed=0):
    dims = M.ModelDims(input_dim=96, semantic_dim=48, signal_dim=24, hidden_dim=32,
                       vocab_size=32, seq_len=12, embed_dim=8)
    return M.ModelBundle(M.TaskKind.TEXT, dims, seed=seed)


def test_image_pipeline_shapes():
    b = image_bundle()
    x = Tensor(np.random.default_rng(0).uniform(size=(5, 64)))
    s = M.semantic_encode(b, x)
    u = M.channel_encode(b, s)
    s_hat = M.channel_decode(b, u)
    x_hat = M.semantic_decode(b, s_hat)
    assert s.shape == (5, 16) and u.shape == (5, 16)
    assert s_hat.shape == (5, 16) and x_hat.shape == (5, 64)


def test_text_pipeline_shapes_and_decode():
    b = text_bundle()
    ids = np.random.default_rng(1).integers(0, 32, size=(4, 12))
    s = M.semantic_encode(b, ids)
    u = M.channel_encode(b, s)
    logits = M.semantic_decode(b, M.channel_decode(b, u))
    assert s.shape == (4, 48) and u.shape == (4, 24) and logits.shape == (48, 32)
    decoded = M.greedy_decode(logits.data, 4, 12)
    assert decoded.shape == (4, 12) and decoded.dtype.kind == "i"


def test_power_normalization_unit_power_per_sample():
    b = image_bundle(seed=3)
    x = Tensor(np.random.default_rng(2).uniform(size=(50, 64)))
    u = M.channel_encode(b, M.semantic_encode(b, x))
    per_sample = np.mean(u.data**2, axis=1)
    assert np.all(np.abs(per_sample - 1.0) <= 1e-9)


def reference_pipeline(bundle: M.ModelBundle, inputs: np.ndarray, realization) -> np.ndarray:
    """The architecture in plain numpy: each network tanh(x @ W0 + b0) @ W1 + b1,
    the per-row RMS power normalization, then z = h * u + w."""
    p = {name: t.data for name, t in bundle.params.items()}

    def net(name, x):
        return np.tanh(x @ p[f"{name}.w0"] + p[f"{name}.b0"]) @ p[f"{name}.w1"] + p[f"{name}.b1"]

    d, rows = bundle.dims, len(inputs)
    text = bundle.task is M.TaskKind.TEXT
    s = net("sem_enc", inputs.reshape(rows * d.seq_len, d.embed_dim) if text else inputs)
    u = net("chan_enc", s.reshape(rows, d.semantic_dim))
    u = u * (np.mean(u**2, axis=1, keepdims=True) + 1e-12) ** -0.5
    s_hat = net("chan_dec", realization.h * u + realization.w)
    return net("sem_dec", s_hat.reshape(rows * d.seq_len, d.pos_semantic_dim) if text else s_hat)


@pytest.mark.parametrize("make", [image_bundle, text_bundle], ids=["image", "text"])
def test_pipeline_equals_the_numpy_reference(make):
    b = make(seed=21)
    rng = np.random.default_rng(22)
    if b.task is M.TaskKind.IMAGE:
        inputs = rng.uniform(size=(6, 64))
    else:
        inputs = M.embed_tokens(b, rng.integers(0, 32, size=(6, 12))).data
    u = M.encode_signal(b, Tensor(inputs))
    realization = realization_for(ChannelConfig(ChannelKind.RAYLEIGH, 5.0), u.data, rng)
    out = M.pipeline(b, Tensor(inputs), realization)
    assert np.array_equal(out.data, reference_pipeline(b, inputs, realization))


def audit_text_bundle(vocab, seed=0):
    """The text model sizes `default_dims` gives an 8-token dataset."""
    dims = M.ModelDims(input_dim=64, semantic_dim=32, signal_dim=32, hidden_dim=64,
                       vocab_size=vocab, seq_len=8, embed_dim=8)
    return M.ModelBundle(M.TaskKind.TEXT, dims, seed=seed)


def _token_batches(vocab, batch, rng):
    """Uniform ids, ids from a quarter of the vocabulary, and one repeated id."""
    yield rng.integers(0, vocab, size=(batch, 8))
    yield rng.choice(rng.permutation(vocab)[:vocab // 4], size=(batch, 8))
    yield np.full((batch, 8), rng.integers(vocab))


@pytest.mark.parametrize("batch", [1, 32, 128])
@pytest.mark.parametrize("vocab", [8, 32])
def test_frozen_text_encode_equals_the_per_row_encode(monkeypatch, vocab, batch):
    # the frozen view encodes each vocabulary entry once, with no per-row embedding
    # lookup; the per-row path is the oracle
    embed_tokens = M.embed_tokens
    monkeypatch.setattr(M, "embed_tokens", None)
    rng = np.random.default_rng([vocab, batch])
    for seed in range(3):
        frozen = audit_text_bundle(vocab, seed=seed).frozen()
        for ids in _token_batches(vocab, batch, rng):
            s = M.semantic_encode(frozen, ids)
            per_row = M.semantic_encode_from_embeddings(frozen, embed_tokens(frozen, ids))
            assert s.shape == per_row.shape == (batch, 32) and s.data.dtype == np.float64
            assert s.data.tobytes() == per_row.data.tobytes()
            assert s._parents == () and not s.requires_grad


@pytest.mark.parametrize("live", ["semantic", "embed", "sem_enc.b1"])
def test_text_encode_on_a_live_view_matches_the_per_row_encode(live):
    # a live view encodes the table on the tape: the code is the per-row code, and the
    # weight gradients, which the table sums over each id's positions rather than
    # over every (row, position) pair, agree with the per-row ones to rounding
    ids = np.random.default_rng(3).integers(0, 32, size=(16, 8))
    weights = np.random.default_rng(4).normal(size=(16, 32))
    for seed in range(5, 8):
        codes, grads = [], []
        for per_row in (True, False):
            bundle = audit_text_bundle(32, seed=seed)
            view = bundle.view(bundle.semantic_params() if live == "semantic"
                               else [bundle.params[live]])
            s = (M.semantic_encode_from_embeddings(view, M.embed_tokens(view, ids)) if per_row
                 else M.semantic_encode(view, ids))
            assert s._parents
            (s * Tensor(weights)).sum().backward()
            codes.append(s.data.tobytes())
            grads.append({name: p.grad for name, p in bundle.params.items()
                          if name == "embed" or name.startswith("sem_enc.")})
        assert codes[0] == codes[1]
        reference, table = grads
        assert any(np.any(g != 0) for g in table.values())
        for name, g in table.items():
            scale = np.max(np.abs(reference[name]))
            assert np.max(np.abs(g - reference[name])) <= 1e-12 * scale, name


def test_cross_entropy_uniform_logits_is_log_vocab():
    b = text_bundle()
    ids = np.zeros((2, 12), dtype=int)
    logits = Tensor(np.zeros((24, 32)))
    loss = M.reconstruction_loss(b, ids, logits)
    assert abs(float(loss.data) - np.log(32)) < 1e-12


def test_per_sample_loss_mean_matches_scalar_loss():
    b = image_bundle()
    rng = np.random.default_rng(4)
    x, y = Tensor(rng.normal(size=(7, 64))), Tensor(rng.normal(size=(7, 64)))
    per = M.per_sample_reconstruction_loss(b, x, y)
    total = M.reconstruction_loss(b, x, y)
    assert per.shape == (7,)
    assert float(total.data) == float(per.data.mean())


def test_parameter_groups_are_disjoint_and_isolated():
    b = image_bundle(seed=5)
    sem_ids = {id(p) for p in b.semantic_params()}
    chan_ids = {id(p) for p in b.channel_params()}
    assert not (sem_ids & chan_ids)
    assert len(sem_ids) + len(chan_ids) == len(b.named_params())

    # stepping the channel group must not move semantic parameters
    before = [p.data.copy() for p in b.semantic_params()]
    x = Tensor(np.random.default_rng(6).uniform(size=(4, 64)))
    out = M.semantic_decode(b, M.channel_decode(b, M.channel_encode(b, M.semantic_encode(b, x))))
    M.reconstruction_loss(b, x, out).backward()
    Sgd(b.channel_params(), lr=0.1).step()
    for prev, p in zip(before, b.semantic_params()):
        assert np.array_equal(prev, p.data)


def test_frozen_view_shares_values_but_takes_no_grads():
    b = image_bundle(seed=7)
    fz = b.frozen()
    x = Tensor(np.random.default_rng(8).uniform(size=(3, 64)), requires_grad=True)
    out = M.semantic_decode(fz, M.channel_decode(fz, M.channel_encode(fz, M.semantic_encode(fz, x))))
    M.reconstruction_loss(fz, x.detach(), out).backward()
    assert np.any(x.grad != 0)
    for _, p in b.named_params():
        assert np.array_equal(p.grad, np.zeros_like(p.data))
    # shared storage: mutating the original is visible through the view
    b.params["sem_enc.w0"].data[0, 0] += 1.0
    assert fz.params["sem_enc.w0"].data[0, 0] == b.params["sem_enc.w0"].data[0, 0]


def test_view_keeps_exactly_its_live_tensors_live():
    b = image_bundle(seed=3)
    live = {id(p) for p in b.channel_params()}
    view = b.view(b.channel_params())
    for (name, p), (view_name, q) in zip(b.named_params(), view.named_params()):
        assert view_name == name and q.data is p.data
        assert (q is p) == (id(p) in live) and q.requires_grad == (id(p) in live)
    x = Tensor(np.random.default_rng(4).uniform(size=(3, 64)))
    s = M.channel_decode(view, M.channel_encode(view, M.semantic_encode(view, x)))
    out = M.semantic_decode(view, s)
    M.reconstruction_loss(view, x, out).backward()
    for name, p in b.named_params():
        assert np.any(p.grad != 0) == (id(p) in live), name
    assert all(q.grad is None for q in view.params.values() if id(q) not in live)
    with pytest.raises(ValueError, match="not a parameter"):
        b.view([Tensor(np.zeros(2), requires_grad=True)])


def test_frozen_view_is_reused_until_an_optimizer_rebinds_the_arrays():
    b = image_bundle(seed=9)
    fz = b.frozen()
    assert b.frozen() is fz
    opt = Adam(b.channel_params(), lr=0.1)   # rebinds the channel group to its buffers
    rebuilt = b.frozen()
    assert rebuilt is not fz and b.frozen() is rebuilt
    assert all(f.data is p.data for f, p in zip(rebuilt.params.values(), b.params.values()))
    before = rebuilt.param_bytes()
    opt.grad[...] = 1.0
    opt.step()   # writes in place: the view taken before the step reads the stepped values
    assert rebuilt.param_bytes() == b.param_bytes() != before
    assert b.frozen() is rebuilt


def estimate_lipschitz(fn, samples: np.ndarray, n_pairs=200, rng=None) -> float:
    """Empirical Lipschitz constant of a scalar map by sampling point pairs."""
    rng = rng or np.random.default_rng(0)
    n = len(samples)
    if n < 2:
        raise ValueError("need at least two samples")
    best = 0.0
    for _ in range(n_pairs):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        dx = float(np.linalg.norm(samples[i] - samples[j]))
        if dx < 1e-12:
            continue
        best = max(best, abs(fn(samples[i]) - fn(samples[j])) / dx)
    return best


def test_estimate_lipschitz_linear_map():
    rng = np.random.default_rng(9)
    w = rng.normal(size=4)
    samples = rng.normal(size=(40, 4))
    est = estimate_lipschitz(lambda x: float(w @ x), samples, n_pairs=400, rng=rng)
    true_l = float(np.linalg.norm(w))
    assert est <= true_l + 1e-9
    assert est >= 0.5 * true_l  # pairs give a decent lower estimate


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for b in (image_bundle(seed=11), text_bundle(seed=12)):
        path = tmp_path / "ckpt.bin"
        M.save_checkpoint(b, path)
        loaded = M.load_checkpoint(path)
        assert loaded.task == b.task and loaded.dims == b.dims
        assert loaded.param_bytes() == b.param_bytes()


# magic, version, field count, then (key length, key, int64 value) per field
PINNED_CHECKPOINTS = (
    (lambda: image_bundle(seed=11), (
        "57534342554e444c010000000a00000004007461736b00000000000000000a00"
        "61637469766174696f6e000000000000000009006e6f726d616c697a65010000"
        "00000000000900696e7075745f64696d40000000000000000c0073656d616e74"
        "69635f64696d10000000000000000a007369676e616c5f64696d100000000000"
        "00000a0068696464656e5f64696d20000000000000000a00766f6361625f7369"
        "7a65000000000000000007007365715f6c656e00000000000000000900656d62"
        "65645f64696d0000000000000000"),
     "422371b4486d2df1d6fc715ede10a31deddc5c28ac0dadf2c1dd3d223d39fca8"),
    (lambda: text_bundle(seed=12), (
        "57534342554e444c010000000a00000004007461736b01000000000000000a00"
        "61637469766174696f6e000000000000000009006e6f726d616c697a65010000"
        "00000000000900696e7075745f64696d60000000000000000c0073656d616e74"
        "69635f64696d30000000000000000a007369676e616c5f64696d180000000000"
        "00000a0068696464656e5f64696d20000000000000000a00766f6361625f7369"
        "7a65200000000000000007007365715f6c656e0c000000000000000900656d62"
        "65645f64696d0800000000000000"),
     "ca3ff157ef63257a950876b6041deeaf18ef0a315c6d3888d0c3999af907422d"),
)


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "ckpt.bin"
    for make, header_hex, sha in PINNED_CHECKPOINTS:
        M.save_checkpoint(make(), path)
        blob = path.read_bytes()
        header = bytes.fromhex(header_hex)
        assert blob[:len(header)] == header
        assert hashlib.sha256(blob).hexdigest() == sha


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    M.save_checkpoint(image_bundle(seed=14), path)
    before = path.read_bytes()

    class DiskFull:
        """A file that takes half of the first write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data[: len(data) // 2]))
            self.fh.flush()
            raise OSError(28, "No space left on device")

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(M, "open", lambda p, mode="r": DiskFull(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="No space"):
        M.save_checkpoint(image_bundle(seed=15), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert M.load_checkpoint(path).param_bytes() == image_bundle(seed=14).param_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        M.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    b = image_bundle(seed=13)
    path = tmp_path / "ckpt.bin"
    M.save_checkpoint(b, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        M.load_checkpoint(cut)


def _drop(key):
    return lambda fields: {k: v for k, v in fields.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (_drop("embed_dim"), r"lacks keys \['embed_dim'\]"),
    (lambda fields: {**fields, "colour": 3}, r"unknown keys \['colour'\]"),
    (lambda fields: {**fields, "task": 2}, "unknown task code 2"),
    (lambda fields: {**fields, "activation": 7}, "unknown activation code 7"),
    (lambda fields: {**fields, "normalize": 2}, "unknown normalize code 2"),
    # relu and unnormalized bundles: codes that older versions wrote
    (lambda fields: {**fields, "activation": 1}, "unknown activation code 1"),
    (lambda fields: {**fields, "normalize": 0}, "unknown normalize code 0"),
], ids=["missing-dims-key", "unknown-key", "task-code", "activation-code", "normalize-code",
        "relu-activation", "unnormalized"])
def test_checkpoint_rejects_bad_header(tmp_path, monkeypatch, edit, message):
    header_fields = M._header_fields
    monkeypatch.setattr(M, "_header_fields", lambda bundle: edit(header_fields(bundle)))
    path = tmp_path / "ckpt.bin"
    M.save_checkpoint(image_bundle(seed=16), path)
    with pytest.raises(ValueError, match=message):
        M.load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda named: named[:-1], r"lacks parameters \['chan_dec\.b1'\]"),
    (lambda named: named + named[:1], "repeated parameter 'sem_enc.w0'"),
], ids=["left-out", "repeated"])
def test_checkpoint_needs_every_parameter_once(tmp_path, edit, message):
    b = image_bundle(seed=17)
    named = b.named_params()
    assert named[0][0] == "sem_enc.w0" and named[-1][0] == "chan_dec.b1"
    b.named_params = lambda: edit(named)
    path = tmp_path / "ckpt.bin"
    M.save_checkpoint(b, path)
    with pytest.raises(ValueError, match=message):
        M.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "ckpt.bin"
    M.save_checkpoint(image_bundle(seed=18), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        M.load_checkpoint(path)


def test_dims_validation():
    with pytest.raises(ValueError, match="vocab_size"):
        M.ModelDims(input_dim=10, semantic_dim=4, signal_dim=4, hidden_dim=8,
                    vocab_size=128, seq_len=10, embed_dim=1)
    with pytest.raises(ValueError, match="divisible"):
        M.ModelDims(input_dim=96, semantic_dim=47, signal_dim=24, hidden_dim=8,
                    vocab_size=32, seq_len=12, embed_dim=8)
