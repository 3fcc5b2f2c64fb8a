"""Encoder/decoder stacks for the transmission pipeline.

A bundle holds four disjoint parameter groups:

  semantic encoder  x  -> s      (for text: embedding table + per-position MLP)
  channel encoder   s  -> u      (power-normalized transmit signal)
  channel decoder   z  -> s_hat
  semantic decoder  s_hat -> x_hat (or per-token vocabulary logits)

The inner training phase owns the semantic codec (encoder + decoder), the
outer phase owns the channel codec; keeping the groups disjoint is what makes
the alternating updates well defined.
"""
from __future__ import annotations

import dataclasses
import enum
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .channel import ChannelRealization, apply_realization
from .tensor import Tensor

CHECKPOINT_MAGIC = b"WSCBUNDL"
CHECKPOINT_VERSION = 1
_POWER_EPS = 1e-12
# text task bounds, shared by ModelDims and the config's dataset section
MAX_VOCAB_SIZE = 64
MAX_SEQ_LEN = 16


class TaskKind(str, enum.Enum):
    IMAGE = "image"
    TEXT = "text"


@dataclass
class ModelDims:
    input_dim: int          # image: side*side pixels; text: seq_len * embed_dim
    semantic_dim: int
    signal_dim: int
    hidden_dim: int
    vocab_size: int = 0     # text only
    seq_len: int = 0        # text only
    embed_dim: int = 0      # text only

    def __post_init__(self):
        for field in ("input_dim", "semantic_dim", "signal_dim", "hidden_dim"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.vocab_size:
            if self.vocab_size > MAX_VOCAB_SIZE:
                raise ValueError(f"vocab_size capped at {MAX_VOCAB_SIZE}, got {self.vocab_size}")
            if not (0 < self.seq_len <= MAX_SEQ_LEN):
                raise ValueError(f"seq_len must be in 1..{MAX_SEQ_LEN}, got {self.seq_len}")
            if self.embed_dim <= 0:
                raise ValueError("embed_dim must be positive for text")
            if self.semantic_dim % self.seq_len:
                raise ValueError("semantic_dim must be divisible by seq_len for per-position vectors")
            if self.input_dim != self.seq_len * self.embed_dim:
                raise ValueError("text input_dim must equal seq_len * embed_dim")

    @property
    def pos_semantic_dim(self) -> int:
        return self.semantic_dim // self.seq_len if self.seq_len else self.semantic_dim


class Mlp:
    """Dense stack; activation between layers, linear output."""

    def __init__(self, sizes, activation="tanh", rng=None, init="xavier"):
        self.sizes = list(sizes)
        self.activation = activation
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            if init == "zeros" or rng is None:
                w = Tensor(np.zeros((fan_in, fan_out)), requires_grad=True)
            else:
                w = Tensor.uniform_init(rng, fan_in, fan_out)
            self.weights.append(w)
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        hidden = self.activation if self.activation in ("tanh", "relu") else None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = T.dense(x, w, b, hidden if i < last else None)
        return x

    def params(self):
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        return out

    def _view_with(self, tensors):
        clone = object.__new__(Mlp)
        clone.sizes = self.sizes
        clone.activation = self.activation
        clone.weights = tensors[0::2]
        clone.biases = tensors[1::2]
        return clone


class ModelBundle:
    def __init__(self, task: TaskKind, dims: ModelDims, seed=0, activation="tanh",
                 normalize_signal=True, init="xavier"):
        self.task = TaskKind(task)
        self.dims = dims
        self.activation = activation
        self.normalize_signal = normalize_signal
        rng = np.random.default_rng([int(seed), 0])
        if self.task is TaskKind.TEXT:
            if init == "zeros":
                self.embed = Tensor(np.zeros((dims.vocab_size, dims.embed_dim)), requires_grad=True)
            else:
                self.embed = Tensor(rng.normal(scale=0.5, size=(dims.vocab_size, dims.embed_dim)),
                                    requires_grad=True)
            self.sem_enc = Mlp([dims.embed_dim, dims.hidden_dim, dims.pos_semantic_dim],
                               activation, rng, init)
            self.sem_dec = Mlp([dims.pos_semantic_dim, dims.hidden_dim, dims.vocab_size],
                               activation, rng, init)
        else:
            self.embed = None
            self.sem_enc = Mlp([dims.input_dim, dims.hidden_dim, dims.semantic_dim],
                               activation, rng, init)
            self.sem_dec = Mlp([dims.semantic_dim, dims.hidden_dim, dims.input_dim],
                               activation, rng, init)
        self.chan_enc = Mlp([dims.semantic_dim, dims.hidden_dim, dims.signal_dim],
                            activation, rng, init)
        self.chan_dec = Mlp([dims.signal_dim, dims.hidden_dim, dims.semantic_dim],
                            activation, rng, init)

    # ------------------------------------------------------------ parameters
    def named_params(self):
        out = []
        if self.embed is not None:
            out.append(("embed", self.embed))
        for group, mlp in (("sem_enc", self.sem_enc), ("sem_dec", self.sem_dec),
                           ("chan_enc", self.chan_enc), ("chan_dec", self.chan_dec)):
            out.extend((f"{group}.{n}", p) for n, p in mlp.params())
        return out

    def semantic_params(self):
        """Inner-phase group: semantic encoder (with embedding) + semantic decoder."""
        out = [] if self.embed is None else [self.embed]
        out += [p for _, p in self.sem_enc.params()] + [p for _, p in self.sem_dec.params()]
        return out

    def channel_params(self):
        """Outer-phase group: channel encoder + channel decoder."""
        return [p for _, p in self.chan_enc.params()] + [p for _, p in self.chan_dec.params()]

    def param_bytes(self) -> bytes:
        return b"".join(p.data.tobytes() for _, p in self.named_params())

    def frozen(self) -> "ModelBundle":
        """A view sharing parameter arrays but with gradients switched off.

        Attack passes differentiate with respect to inputs only; running them
        through a frozen view guarantees parameter grads stay untouched.
        """
        clone = object.__new__(ModelBundle)
        clone.task, clone.dims = self.task, self.dims
        clone.activation, clone.normalize_signal = self.activation, self.normalize_signal
        clone.embed = None if self.embed is None else Tensor(self.embed.data)
        for name in ("sem_enc", "sem_dec", "chan_enc", "chan_dec"):
            mlp = getattr(self, name)
            setattr(clone, name, mlp._view_with([Tensor(p.data) for _, p in mlp.params()]))
        return clone


# ------------------------------------------------------------------ forward
def embed_tokens(bundle: ModelBundle, ids: np.ndarray) -> Tensor:
    """Token ids (B, T) -> flattened embeddings (B, T*E); the attackable input."""
    ids = np.asarray(ids)
    b, t = ids.shape
    e = T.gather_rows(bundle.embed, ids.reshape(-1))
    return e.reshape(b, t * bundle.dims.embed_dim)


def semantic_encode_from_embeddings(bundle: ModelBundle, emb_flat: Tensor) -> Tensor:
    b = emb_flat.data.shape[0]
    d = bundle.dims
    per_pos = bundle.sem_enc(emb_flat.reshape(b * d.seq_len, d.embed_dim))
    return per_pos.reshape(b, d.semantic_dim)


def semantic_encode(bundle: ModelBundle, x) -> Tensor:
    if bundle.task is TaskKind.TEXT:
        return semantic_encode_from_embeddings(bundle, embed_tokens(bundle, x))
    x = x if isinstance(x, Tensor) else Tensor(x)
    return bundle.sem_enc(x)


def channel_encode(bundle: ModelBundle, s: Tensor) -> Tensor:
    u = bundle.chan_enc(s)
    if bundle.normalize_signal:
        u = T.rms_normalize(u, _POWER_EPS)
    return u


def channel_decode(bundle: ModelBundle, z: Tensor) -> Tensor:
    return bundle.chan_dec(z)


def semantic_decode(bundle: ModelBundle, s_hat: Tensor) -> Tensor:
    """Images: (B, input_dim) reconstruction; text: (B*T, vocab) logits."""
    if bundle.task is TaskKind.TEXT:
        b = s_hat.data.shape[0]
        d = bundle.dims
        return bundle.sem_dec(s_hat.reshape(b * d.seq_len, d.pos_semantic_dim))
    return bundle.sem_dec(s_hat)


def encode_signal(bundle: ModelBundle, inputs: Tensor) -> Tensor:
    """Source input (pixels, or flattened token embeddings) to the transmit signal."""
    if bundle.task is TaskKind.TEXT:
        s = semantic_encode_from_embeddings(bundle, inputs)
    else:
        s = semantic_encode(bundle, inputs)
    return channel_encode(bundle, s)


def decode_signal(bundle: ModelBundle, u: Tensor, realization: ChannelRealization) -> Tensor:
    """Transmit signal through a drawn channel realization to the reconstruction."""
    return semantic_decode(bundle, channel_decode(bundle, apply_realization(u, realization)))


def pipeline(bundle: ModelBundle, inputs: Tensor, realization: ChannelRealization) -> Tensor:
    """The whole encode -> channel -> decode chain on a fixed channel realization."""
    return decode_signal(bundle, encode_signal(bundle, inputs), realization)


def greedy_decode(logits: np.ndarray, batch: int, seq_len: int) -> np.ndarray:
    return logits.argmax(axis=-1).reshape(batch, seq_len)


# ------------------------------------------------------------------- losses
def per_sample_reconstruction_loss(bundle: ModelBundle, reference, output: Tensor) -> Tensor:
    """Per-sample fidelity loss: pixel MSE for images, mean token NLL for text."""
    if bundle.task is TaskKind.TEXT:
        ids = np.asarray(reference)
        b, t = ids.shape
        nll = T.logsumexp(output) - T.select_columns(output, ids.reshape(-1))
        return nll.reshape(b, t).mean(axis=1)
    ref = reference if isinstance(reference, Tensor) else Tensor(reference)
    return T.row_mse(output, ref)


def reconstruction_loss(bundle: ModelBundle, reference, output: Tensor) -> Tensor:
    return per_sample_reconstruction_loss(bundle, reference, output).mean()


def per_sample_channel_loss(s_ref: Tensor, s_hat: Tensor) -> Tensor:
    return T.row_mse(s_hat, s_ref)


# --------------------------------------------------------------- checkpoint
_TASK_CODE = {TaskKind.IMAGE: 0, TaskKind.TEXT: 1}
_ACT_CODE = {"tanh": 0, "relu": 1, "linear": 2}


def _header_fields(bundle: ModelBundle) -> dict:
    """The header record: three bundle codes, then every ModelDims field in order."""
    return {"task": _TASK_CODE[bundle.task], "activation": _ACT_CODE[bundle.activation],
            "normalize": int(bundle.normalize_signal),
            **{f.name: getattr(bundle.dims, f.name) for f in dataclasses.fields(ModelDims)}}


def save_checkpoint(bundle: ModelBundle, path):
    """Little-endian binary: magic, version, dims record, then parameter records."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    fields = _header_fields(bundle)
    blob += struct.pack("<I", len(fields))
    for key, value in fields.items():
        enc = key.encode()
        blob += struct.pack("<H", len(enc)) + enc + struct.pack("<q", value)
    named = bundle.named_params()
    blob += struct.pack("<I", len(named))
    for name, p in named:
        enc = name.encode()
        blob += struct.pack("<I", len(enc)) + enc
        blob += struct.pack("<I", p.data.ndim)
        blob += struct.pack(f"<{p.data.ndim}I", *p.data.shape)
        blob += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    # write a sibling file and rename it over the target, so an interrupted
    # write never leaves a truncated checkpoint behind
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob, self.pos = blob, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ValueError(f"checkpoint truncated at byte offset {len(self.blob)} (needed {self.pos + n})")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ModelBundle:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (n_fields,) = reader.unpack("<I")
    fields = {}
    for _ in range(n_fields):
        (klen,) = reader.unpack("<H")
        key = reader.take(klen).decode()
        if key in fields:
            raise ValueError(f"checkpoint header repeats key {key!r}")
        (fields[key],) = reader.unpack("<q")
    dim_keys = [f.name for f in dataclasses.fields(ModelDims)]
    expected = {"task", "activation", "normalize", *dim_keys}
    if fields.keys() - expected:
        raise ValueError(f"checkpoint header has unknown keys {sorted(fields.keys() - expected)}")
    if expected - fields.keys():
        raise ValueError(f"checkpoint header lacks keys {sorted(expected - fields.keys())}")
    dims = ModelDims(**{k: fields[k] for k in dim_keys})
    bundle = ModelBundle(_decode(_TASK_CODE, "task", fields["task"]), dims,
                         activation=_decode(_ACT_CODE, "activation", fields["activation"]),
                         normalize_signal=_decode({False: 0, True: 1}, "normalize",
                                                  fields["normalize"]),
                         init="zeros")
    lookup = dict(bundle.named_params())
    (n_params,) = reader.unpack("<I")
    for _ in range(n_params):
        (nlen,) = reader.unpack("<I")
        name = reader.take(nlen).decode()
        (rank,) = reader.unpack("<I")
        shape = reader.unpack(f"<{rank}I")
        count = int(np.prod(shape)) if rank else 1
        payload = np.frombuffer(reader.take(8 * count), dtype="<f8").reshape(shape)
        if name not in lookup:
            raise ValueError(f"checkpoint has unknown or repeated parameter {name!r}")
        param = lookup.pop(name)
        if param.data.shape != payload.shape:
            raise ValueError(f"shape mismatch for {name!r}: {param.data.shape} vs {payload.shape}")
        param.data[...] = payload
    if lookup:
        raise ValueError(f"checkpoint lacks parameters {sorted(lookup)}")
    if reader.pos != len(reader.blob):
        raise ValueError(f"checkpoint has {len(reader.blob) - reader.pos} trailing bytes")
    return bundle


def _decode(codes: dict, key: str, code: int):
    """The value that `codes` maps to `code`, for header field `key`."""
    for value, c in codes.items():
        if c == code:
            return value
    raise ValueError(f"checkpoint header has unknown {key} code {code}")
