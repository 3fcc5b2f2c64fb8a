"""Dataset construction: synthetic generators and small-file ingestion.

The synthetic tasks are the workhorses — procedurally generated images with
visible low-frequency structure, and Markov-chain token streams with enough
regularity to be learnable.  Real-data ingestion (CIFAR-10 binary batches,
line-oriented text) exists for fixture-scale use and never downloads anything.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import TaskKind
from .rules import rules

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


@dataclass(frozen=True)
class Dataset:
    task: TaskKind
    train: np.ndarray
    eval: np.ndarray
    vocab_size: int = 0

    def __post_init__(self):
        for name, split in (("train", self.train), ("eval", self.eval)):
            if len(split) == 0:
                raise ValueError(f"{name} split is empty")
            if split.ndim != 2:
                raise ValueError(f"{name} split must be 2-D (samples x features)")
        if self.task is TaskKind.IMAGE:
            for split in (self.train, self.eval):
                if split.min() < -1e-12 or split.max() > 1.0 + 1e-12:
                    raise ValueError("image values must lie in [0, 1]")
        else:
            if self.vocab_size <= 0:
                raise ValueError("text dataset requires a positive vocab_size")
            for split in (self.train, self.eval):
                if not np.issubdtype(split.dtype, np.integer):
                    raise ValueError("token ids must be integers")
                if split.min() < 0 or split.max() >= self.vocab_size:
                    raise ValueError("token ids must lie in [0, vocab_size)")

    @property
    def feature_dim(self) -> int:
        return self.train.shape[1]


def _split(samples: np.ndarray):
    held = max(1, len(samples) // 4)
    cut = len(samples) - held
    if cut <= 0:
        return samples, samples  # a single sample serves both roles
    return samples[:cut], samples[cut:]


def _pattern(rng: np.random.Generator, xx: np.ndarray, yy: np.ndarray) -> np.ndarray:
    kind = int(rng.integers(3))
    if kind == 0:  # oriented linear gradient
        theta = rng.uniform(0.0, 2.0 * np.pi)
        return xx * np.cos(theta) + yy * np.sin(theta)
    if kind == 1:  # one to three gaussian blobs
        img = np.zeros_like(xx)
        for _ in range(int(rng.integers(1, 4))):
            cx, cy = rng.uniform(0.1, 0.9, 2)
            width = rng.uniform(0.08, 0.35)
            img += rng.uniform(0.4, 1.0) * np.exp(
                -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * width**2))
        return img
    theta = rng.uniform(0.0, np.pi)  # sinusoidal stripes
    freq = rng.uniform(1.0, 4.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)


def _check_sizes(**sizes):
    """Hold each size to its field's rule in a config's dataset section."""
    from .config import DatasetSpec  # config builds its datasets with this module
    for name, value in sizes.items():
        rules(DatasetSpec)[name].check(name, value)


def generate_synthetic_images(n: int, side: int = 8, seed: int = 0) -> Dataset:
    """n procedurally drawn side x side grayscale patterns, values in [0, 1]."""
    _check_sizes(n=n, side=side)
    rng = np.random.default_rng([seed, 101])
    axis = np.linspace(0.0, 1.0, side)
    xx, yy = np.meshgrid(axis, axis)
    images = np.empty((n, side * side))
    for i in range(n):
        img = _pattern(rng, xx, yy)
        if rng.uniform() < 0.35:  # occasional two-pattern mixture
            w = rng.uniform(0.3, 0.7)
            img = w * img + (1.0 - w) * _pattern(rng, xx, yy)
        images[i] = img.ravel()
    lo = images.min(axis=1, keepdims=True)
    hi = images.max(axis=1, keepdims=True)
    images -= lo
    images /= hi - lo + 1e-12
    np.clip(images, 0.0, 1.0, out=images)
    train, evalp = _split(images)
    return Dataset(TaskKind.IMAGE, train, evalp)


def generate_synthetic_text(n: int, vocab_size: int = 32, max_len: int = 12,
                            seed: int = 0) -> Dataset:
    """Token sequences from a seeded Markov chain with spiky transition rows.

    The chain is sampled by inversion, one uniform per token: all n x (max_len + 1)
    uniforms are drawn up front (column 0 picks the first token, column j + 1 the
    successor of token j; the last is unused), and a token is the number of CDF
    entries at or below its uniform.  This is what `rng.choice(vocab_size, p=...)`
    computes per call, so the stream and the tokens are those of a per-token loop.
    """
    _check_sizes(n=n, vocab_size=vocab_size, max_len=max_len)
    rng = np.random.default_rng([seed, 202])
    # concentration << 1 makes each token prefer a handful of successors,
    # giving the sequences learnable structure
    transition = rng.dirichlet(np.full(vocab_size, 0.05), size=vocab_size)
    start = rng.dirichlet(np.full(vocab_size, 0.3))
    # the CDFs exactly as Generator.choice builds them
    start_cdf = start.cumsum()
    start_cdf /= start_cdf[-1]
    cdf = transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random((n, max_len + 1))
    seqs = np.empty((n, max_len), dtype=np.int64)
    tok = (start_cdf <= u[:, :1]).sum(axis=1)
    for j in range(max_len):
        seqs[:, j] = tok
        tok = (cdf[tok] <= u[:, j + 1, None]).sum(axis=1)
    train, evalp = _split(seqs)
    return Dataset(TaskKind.TEXT, train, evalp, vocab_size=vocab_size)


def ingest_cifar10_binary(path, side: int = 16) -> Dataset:
    """Parse a CIFAR-10 binary batch file (3073-byte records).

    Pixels are scaled to [0, 1], averaged to grayscale, and block-downsampled
    to side x side.  Truncated files fail with the byte offset of the bad record.
    """
    _check_sizes(side=side)
    raw = Path(path).read_bytes()
    if len(raw) == 0:
        raise ValueError(f"{path}: empty file")
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        offset = len(raw) - (len(raw) % CIFAR_RECORD_BYTES)
        raise ValueError(
            f"{path}: truncated record at byte offset {offset} "
            f"(file size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES})")
    if 32 % side != 0:
        raise ValueError("side must divide 32")
    n = len(raw) // CIFAR_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    pixels = records[:, 1:].reshape(n, 3, 32, 32).astype(np.float64) / 255.0
    gray = pixels.mean(axis=1)
    block = 32 // side
    small = gray.reshape(n, side, block, side, block).mean(axis=(2, 4))
    train, evalp = _split(small.reshape(n, -1))
    return Dataset(TaskKind.IMAGE, train, evalp)


def ingest_text_lines(path, vocab, max_len: int = 16) -> Dataset:
    """Whitespace-tokenized lines mapped through `vocab`; id 0 is the unknown
    (and padding) slot, so vocab[0] should name it."""
    _check_sizes(max_len=max_len)
    index = {tok: i for i, tok in enumerate(vocab)}
    lines = Path(path).read_text().splitlines()
    seqs = []
    for line in lines:
        words = line.split()
        if not words:
            continue
        ids = [index.get(w, 0) for w in words[:max_len]]
        ids.extend([0] * (max_len - len(ids)))
        seqs.append(ids)
    if not seqs:
        raise ValueError(f"{path}: no usable lines")
    _check_sizes(vocab_size=len(vocab))
    train, evalp = _split(np.array(seqs, dtype=np.int64))
    return Dataset(TaskKind.TEXT, train, evalp, vocab_size=len(vocab))
