import dataclasses
import hashlib

import numpy as np
import pytest

from wasecom import data as D
from wasecom.config import DatasetSpec
from wasecom.models import MAX_SEQ_LEN, TaskKind


def test_images_range_shape_and_determinism():
    ds = D.generate_synthetic_images(40, side=8, seed=5)
    assert ds.task is TaskKind.IMAGE
    assert ds.train.shape == (30, 64) and ds.eval.shape == (10, 64)
    full = np.concatenate([ds.train, ds.eval])
    assert full.min() >= 0.0 and full.max() <= 1.0
    again = D.generate_synthetic_images(40, side=8, seed=5)
    assert np.array_equal(ds.train, again.train) and np.array_equal(ds.eval, again.eval)
    other = D.generate_synthetic_images(40, side=8, seed=6)
    assert not np.array_equal(ds.train, other.train)


def test_images_have_structure():
    # procedurally drawn patterns are smooth: neighboring pixels correlate far
    # more than independent noise would
    ds = D.generate_synthetic_images(60, side=8, seed=1)
    imgs = ds.train.reshape(-1, 8, 8)
    horiz = np.mean(np.abs(imgs[:, :, 1:] - imgs[:, :, :-1]))
    assert horiz < 0.25


def test_empty_request_is_rejected():
    with pytest.raises(ValueError, match="n must be at least 1"):
        D.generate_synthetic_images(0)
    with pytest.raises(ValueError, match="n must be at least 1"):
        D.generate_synthetic_text(0)


@pytest.mark.parametrize("make,sizes", [
    (D.generate_synthetic_images, {"n": True}),
    (D.generate_synthetic_images, {"n": 8.0}),
    (D.generate_synthetic_images, {"n": 8, "side": 1}),
    (D.generate_synthetic_text, {"n": -2}),
    (D.generate_synthetic_text, {"n": 8, "vocab_size": 100}),
    (D.generate_synthetic_text, {"n": 8, "vocab_size": 2.0}),
    (D.generate_synthetic_text, {"n": 8, "max_len": MAX_SEQ_LEN + 1}),
], ids=["images-n-bool", "images-n-float", "images-side-1", "text-n-negative",
        "text-vocab-100", "text-vocab-float", "text-max-len-17"])
def test_generators_reject_sizes_as_the_dataset_section_does(make, sizes):
    with pytest.raises(ValueError) as spec_error:
        DatasetSpec(**sizes)
    with pytest.raises(ValueError, match=f"^{list(sizes)[-1]} must") as error:
        make(**sizes)
    assert str(error.value) == str(spec_error.value)


@pytest.mark.parametrize("kind,sizes", [
    ("text-lines", {"max_len": True}),
    ("text-lines", {"vocab_size": 126}),
    ("cifar10", {"side": True}),
], ids=["text-lines-max-len-bool", "text-lines-vocab-126", "cifar10-side-bool"])
def test_ingesters_reject_sizes_as_the_dataset_section_does(tmp_path, kind, sizes):
    with pytest.raises(ValueError) as spec_error:
        DatasetSpec(**sizes)
    if kind == "cifar10":
        path = tmp_path / "batch.bin"
        _write_cifar_fixture(path, 1)
        ingest = lambda: D.ingest_cifar10_binary(path, **sizes)  # noqa: E731
    else:
        path = tmp_path / "lines.txt"
        path.write_text("w1 w2 w3\nw2 w4\n")
        vocab = ["<unk>", *(f"w{i}" for i in range(1, sizes.get("vocab_size", 5)))]
        max_len = sizes.get("max_len", 4)
        ingest = lambda: D.ingest_text_lines(path, vocab, max_len=max_len)  # noqa: E731
    with pytest.raises(ValueError, match=f"^{list(sizes)[0]} must") as error:
        ingest()
    assert str(error.value) == str(spec_error.value)


def test_single_sample_fills_both_splits():
    ds = D.generate_synthetic_images(1, side=4, seed=0)
    assert np.array_equal(ds.train, ds.eval)


def test_text_ids_bounded_and_deterministic():
    ds = D.generate_synthetic_text(50, vocab_size=20, max_len=9, seed=3)
    assert ds.task is TaskKind.TEXT
    assert ds.train.shape[1] == 9 and ds.vocab_size == 20
    full = np.concatenate([ds.train, ds.eval])
    assert full.min() >= 0 and full.max() < 20
    again = D.generate_synthetic_text(50, vocab_size=20, max_len=9, seed=3)
    assert np.array_equal(ds.train, again.train)


def test_text_has_markov_structure():
    # the chain's spiky rows mean bigrams repeat much more often than under
    # a uniform draw (expected distinct fraction near 1 for uniform ids)
    ds = D.generate_synthetic_text(200, vocab_size=32, max_len=12, seed=0)
    bigrams = set()
    total = 0
    for row in ds.train:
        for a, b in zip(row[:-1], row[1:]):
            bigrams.add((int(a), int(b)))
            total += 1
    assert len(bigrams) / total < 0.5


def _choice_loop_text(n, vocab_size, max_len, seed):
    # reference: one `rng.choice` call per token
    rng = np.random.default_rng([seed, 202])
    transition = rng.dirichlet(np.full(vocab_size, 0.05), size=vocab_size)
    start = rng.dirichlet(np.full(vocab_size, 0.3))
    seqs = np.empty((n, max_len), dtype=np.int64)
    for i in range(n):
        tok = int(rng.choice(vocab_size, p=start))
        for j in range(max_len):
            seqs[i, j] = tok
            tok = int(rng.choice(vocab_size, p=transition[tok]))
    return D._split(seqs)


def _per_image_loop(n, side, seed):
    # reference: each image normalized inside the loop
    rng = np.random.default_rng([seed, 101])
    axis = np.linspace(0.0, 1.0, side)
    xx, yy = np.meshgrid(axis, axis)
    images = np.empty((n, side * side))
    for i in range(n):
        img = D._pattern(rng, xx, yy)
        if rng.uniform() < 0.35:
            w = rng.uniform(0.3, 0.7)
            img = w * img + (1.0 - w) * D._pattern(rng, xx, yy)
        lo, hi = img.min(), img.max()
        img = (img - lo) / (hi - lo + 1e-12)
        images[i] = np.clip(img, 0.0, 1.0).ravel()
    return D._split(images)


_SMALL_TEXT = [(n, vocab, max_len, seed) for n in (1, 24) for vocab in (2, 8, 32, 64)
               for max_len in (2, 8, 16) for seed in (0, 7)]


@pytest.mark.parametrize("n,vocab,max_len,seed", _SMALL_TEXT + [
    (2048, 8, 8, 0), (2048, 8, 8, 7), (2048, 2, 16, 3), (2048, 64, 2, 1), (2048, 32, 16, 5)])
def test_text_matches_per_token_choice_loop(n, vocab, max_len, seed):
    ds = D.generate_synthetic_text(n, vocab_size=vocab, max_len=max_len, seed=seed)
    train, evalp = _choice_loop_text(n, vocab, max_len, seed)
    assert np.array_equal(ds.train, train) and np.array_equal(ds.eval, evalp)
    assert ds.train.dtype == train.dtype


@pytest.mark.parametrize("n,side,seed", [(1, 8, 0), (24, 2, 1), (24, 5, 7), (24, 6, 3),
                                         (24, 16, 0), (1024, 8, 3), (2048, 8, 0)])
def test_images_match_per_image_normalization_loop(n, side, seed):
    ds = D.generate_synthetic_images(n, side=side, seed=seed)
    train, evalp = _per_image_loop(n, side, seed)
    assert np.array_equal(ds.train, train) and np.array_equal(ds.eval, evalp)


@pytest.mark.parametrize("make,digest", [
    # acceptance criteria 08 and 09
    (lambda: D.generate_synthetic_images(2048, side=8, seed=0),
     "5b4d5479eab50d4e107feedad90c064df34baacf2c805c178b281e7357df8247"),
    # acceptance criterion 10
    (lambda: D.generate_synthetic_text(2048, vocab_size=8, max_len=8, seed=0),
     "8e2675a3440915d06c3024442b26a60e07fb8a7510ea4024306f3df7a53c6f6a"),
    # the benchmark audit's text set
    (lambda: D.generate_synthetic_text(512, vocab_size=32, max_len=8, seed=0),
     "70a05613ca1a199c2fddd8b91221d9086820276cb7891e6c8f5a77270c49ff39"),
], ids=["images-2048-8-0", "text-2048-8-8-0", "text-512-32-8-0"])
def test_gate_datasets_are_pinned(make, digest):
    # any change to these bytes moves the acceptance and benchmark numbers
    ds = make()
    assert hashlib.sha256(ds.train.tobytes() + ds.eval.tobytes()).hexdigest() == digest


def _write_cifar_fixture(path, n_records, fill=None):
    rng = np.random.default_rng(9)
    blob = bytearray()
    for k in range(n_records):
        blob.append(k % 10)  # label byte
        if fill is None:
            blob.extend(rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
        else:
            blob.extend(bytes([fill]) * 3072)
    path.write_bytes(bytes(blob))


def test_cifar_fixture_roundtrip(tmp_path):
    p = tmp_path / "batch.bin"
    _write_cifar_fixture(p, 2)
    ds = D.ingest_cifar10_binary(p, side=16)
    assert len(ds.train) + len(ds.eval) == 2
    assert ds.feature_dim == 256
    assert ds.train.min() >= 0.0 and ds.train.max() <= 1.0


def test_cifar_full_byte_scales_to_one(tmp_path):
    p = tmp_path / "white.bin"
    _write_cifar_fixture(p, 2, fill=255)
    ds = D.ingest_cifar10_binary(p, side=8)
    assert np.allclose(np.concatenate([ds.train, ds.eval]), 1.0, atol=1e-12)


def test_cifar_truncation_names_offset(tmp_path):
    p = tmp_path / "cut.bin"
    _write_cifar_fixture(p, 2)
    raw = p.read_bytes()
    p.write_bytes(raw[: D.CIFAR_RECORD_BYTES + 100])  # second record cut short
    with pytest.raises(ValueError, match="offset 3073"):
        D.ingest_cifar10_binary(p)


def test_text_lines_oov_and_padding(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_text("the cat sat\n\nthe dog barked loudly today\n")
    vocab = ["<unk>", "the", "cat", "sat", "dog"]
    ds = D.ingest_text_lines(p, vocab, max_len=4)
    assert len(ds.train) + len(ds.eval) == 2  # blank line skipped
    rows = {tuple(r) for r in np.concatenate([ds.train, ds.eval])}
    assert (1, 2, 3, 0) in rows          # "the cat sat" + pad
    assert (1, 4, 0, 0) in rows          # oov words map to 0, line truncated
    assert ds.vocab_size == 5


def test_text_lines_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no usable"):
        D.ingest_text_lines(p, ["<unk>"])


def test_dataset_invariants_enforced():
    with pytest.raises(ValueError, match="empty"):
        D.Dataset(TaskKind.IMAGE, np.zeros((0, 4)), np.zeros((1, 4)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        D.Dataset(TaskKind.IMAGE, np.full((2, 4), 1.5), np.zeros((1, 4)))
    with pytest.raises(ValueError, match="vocab_size"):
        D.Dataset(TaskKind.TEXT, np.zeros((2, 4), dtype=np.int64),
                  np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="integers"):
        D.Dataset(TaskKind.TEXT, np.zeros((2, 4)), np.zeros((1, 4)), vocab_size=8)
    with pytest.raises(ValueError, match="vocab_size"):
        D.Dataset(TaskKind.TEXT, np.full((2, 4), 9, dtype=np.int64),
                  np.zeros((1, 4), dtype=np.int64), vocab_size=8)


@pytest.mark.parametrize("field", ["train", "eval"])
def test_dataset_splits_cannot_be_reassigned(field):
    # an assigned split would skip the checks above: id -1 reads the last embedding row
    ds = D.generate_synthetic_text(64, vocab_size=16, max_len=8, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ds, field, np.full_like(getattr(ds, field), -1))
    assert getattr(ds, field).min() >= 0
