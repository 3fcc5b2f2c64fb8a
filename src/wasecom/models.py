"""Encoder/decoder stacks for the transmission pipeline.

A bundle holds four disjoint parameter groups:

  semantic encoder  x  -> s      (for text: embedding table + per-position MLP)
  channel encoder   s  -> u      (power-normalized transmit signal)
  channel decoder   z  -> s_hat
  semantic decoder  s_hat -> x_hat (or per-token vocabulary logits)

The inner training phase owns the semantic codec (encoder + decoder), the
outer phase owns the channel codec; keeping the groups disjoint is what makes
the alternating updates well defined.

Token ids take one encode path: the semantic encoder runs on the (V, E)
embedding table and each position picks its id's code, the bytes of a per-row
encode, as each row of x @ w depends on its own row alone.  Source points
(pixels, or flattened token embeddings) encode row by row (`encode_signal`).
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
from .rules import check, ruled
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
    input_dim: int = ruled(int, least=1)    # image: side*side pixels; text: seq_len * embed_dim
    semantic_dim: int = ruled(int, least=1)
    signal_dim: int = ruled(int, least=1)
    hidden_dim: int = ruled(int, least=1)
    vocab_size: int = ruled(int, 0, least=0, most=MAX_VOCAB_SIZE)   # text only
    seq_len: int = ruled(int, 0, least=0, most=MAX_SEQ_LEN)         # text only
    embed_dim: int = ruled(int, 0, least=0)                         # text only

    def __post_init__(self):
        check(self)
        if self.vocab_size:  # a positive input_dim makes seq_len and embed_dim positive
            if self.input_dim != self.seq_len * self.embed_dim:
                raise ValueError("text input_dim must equal seq_len * embed_dim")
            if self.semantic_dim % self.seq_len:
                raise ValueError("semantic_dim must be divisible by seq_len for per-position vectors")

    @property
    def pos_semantic_dim(self) -> int:
        return self.semantic_dim // self.seq_len if self.seq_len else self.semantic_dim


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """A Xavier-uniform (fan_in, fan_out) weight matrix."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


class ModelBundle:
    """The four networks, each tanh(x @ w0 + b0) @ w1 + b1, and for text an
    embedding table.

    `params` holds every parameter under its checkpoint name, in checkpoint
    order: `embed` (text only), then `sem_enc`, `sem_dec`, `chan_enc` and
    `chan_dec`, each as `.w0 .b0 .w1 .b1`.
    """

    def __init__(self, task: TaskKind, dims: ModelDims, seed=0):
        self.task = TaskKind(task)
        self.dims = d = dims
        rng = np.random.default_rng([int(seed), 0])
        self._frozen = None
        self.params = {}
        if self.task is TaskKind.TEXT:
            self.params["embed"] = Tensor(rng.normal(scale=0.5, size=(d.vocab_size, d.embed_dim)),
                                          requires_grad=True)
            source, code, output = d.embed_dim, d.pos_semantic_dim, d.vocab_size
        else:
            source, code, output = d.input_dim, d.semantic_dim, d.input_dim
        for net, fan_in, fan_out in (("sem_enc", source, code), ("sem_dec", code, output),
                                     ("chan_enc", d.semantic_dim, d.signal_dim),
                                     ("chan_dec", d.signal_dim, d.semantic_dim)):
            self.params[f"{net}.w0"] = _xavier(rng, fan_in, d.hidden_dim)
            self.params[f"{net}.b0"] = Tensor(np.zeros(d.hidden_dim), requires_grad=True)
            self.params[f"{net}.w1"] = _xavier(rng, d.hidden_dim, fan_out)
            self.params[f"{net}.b1"] = Tensor(np.zeros(fan_out), requires_grad=True)

    # ------------------------------------------------------------ parameters
    def named_params(self):
        return list(self.params.items())

    def semantic_params(self):
        """Inner-phase group: semantic encoder (with embedding) + semantic decoder."""
        return [p for name, p in self.params.items() if not name.startswith("chan_")]

    def channel_params(self):
        """Outer-phase group: channel encoder + channel decoder."""
        return [p for name, p in self.params.items() if name.startswith("chan_")]

    def param_bytes(self) -> bytes:
        return b"".join(p.data.tobytes() for _, p in self.named_params())

    def view(self, live) -> "ModelBundle":
        """A bundle sharing every parameter array that differentiates only `live`.

        The Tensors in `live` are this bundle's own, so their gradients land
        in their buffers; every other parameter is a gradient-free Tensor over
        the same array.  A backward through the view computes no gradient for
        those, and reads whatever value the shared arrays hold at the time.
        """
        live_ids = {id(p) for p in live}
        if not live_ids <= {id(p) for p in self.params.values()}:
            raise ValueError("view: a live Tensor is not a parameter of this bundle")
        clone = object.__new__(ModelBundle)
        clone.task, clone.dims, clone._frozen = self.task, self.dims, None
        clone.params = {name: p if id(p) in live_ids else Tensor(p.data)
                        for name, p in self.params.items()}
        return clone

    def frozen(self) -> "ModelBundle":
        """The view with nothing live, built once and reused.

        Attack passes differentiate with respect to inputs only; running them
        through a frozen view guarantees parameter grads stay untouched.  It is
        rebuilt once some parameter no longer holds the array it wraps (an
        optimizer's construction rebinds them); in-place writes need no rebuild.
        """
        view = self._frozen
        if view is None or any(f.data is not p.data
                               for f, p in zip(view.params.values(), self.params.values())):
            view = self._frozen = self.view(())
        return view


# ------------------------------------------------------------------ forward
def embed_tokens(bundle: ModelBundle, ids: np.ndarray) -> Tensor:
    """Token ids (B, T) -> flattened embeddings (B, T*E)."""
    ids = np.asarray(ids)
    b, t = ids.shape
    e = T.gather_rows(bundle.params["embed"], ids.reshape(-1))
    return e.reshape(b, t * bundle.dims.embed_dim)


def source_points(bundle: ModelBundle, x) -> Tensor:
    """The (B, D) points the source-side ball sits over: pixels, or for text the
    flattened embeddings of the ids, on the tape when the table is live."""
    if bundle.task is TaskKind.TEXT:
        return embed_tokens(bundle, x)
    return Tensor(np.asarray(x, dtype=float))


def _network(bundle: ModelBundle, net: str, x: Tensor) -> Tensor:
    """One of the four networks: a tanh hidden layer, then a linear one."""
    p = bundle.params
    h = T.dense(x, p[f"{net}.w0"], p[f"{net}.b0"], "tanh")
    return T.dense(h, p[f"{net}.w1"], p[f"{net}.b1"])


def semantic_encode_from_embeddings(bundle: ModelBundle, emb_flat: Tensor) -> Tensor:
    b = emb_flat.data.shape[0]
    d = bundle.dims
    per_pos = _network(bundle, "sem_enc", emb_flat.reshape(b * d.seq_len, d.embed_dim))
    return per_pos.reshape(b, d.semantic_dim)


def semantic_encode(bundle: ModelBundle, x) -> Tensor:
    """Images (B, input_dim) or token ids (B, T) to the (B, semantic_dim) code.

    Ids go through the table: the semantic encoder codes each vocabulary entry
    once and every position picks its entry's code, on the tape when a view has
    the table or the encoder live and graph-free otherwise.
    """
    if bundle.task is TaskKind.TEXT:
        ids = np.asarray(x)
        codes = T.gather_rows(_network(bundle, "sem_enc", bundle.params["embed"]), ids.reshape(-1))
        return codes.reshape(len(ids), bundle.dims.semantic_dim)
    x = x if isinstance(x, Tensor) else Tensor(x)
    return _network(bundle, "sem_enc", x)


def channel_encode(bundle: ModelBundle, s: Tensor) -> Tensor:
    return T.rms_normalize(_network(bundle, "chan_enc", s), _POWER_EPS)


def channel_decode(bundle: ModelBundle, z: Tensor) -> Tensor:
    return _network(bundle, "chan_dec", z)


def semantic_decode(bundle: ModelBundle, s_hat: Tensor) -> Tensor:
    """Images: (B, input_dim) reconstruction; text: (B*T, vocab) logits."""
    if bundle.task is TaskKind.TEXT:
        b = s_hat.data.shape[0]
        d = bundle.dims
        return _network(bundle, "sem_dec", s_hat.reshape(b * d.seq_len, d.pos_semantic_dim))
    return _network(bundle, "sem_dec", s_hat)


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
        return T.token_nll(output, ids, ids.shape[1])
    ref = reference if isinstance(reference, Tensor) else Tensor(reference)
    return T.row_mse(output, ref)


def reconstruction_loss(bundle: ModelBundle, reference, output: Tensor) -> Tensor:
    return per_sample_reconstruction_loss(bundle, reference, output).mean()


def per_sample_channel_loss(s_ref: Tensor, s_hat: Tensor) -> Tensor:
    return T.row_mse(s_hat, s_ref)


# --------------------------------------------------------------- checkpoint
_TASK_CODE = {TaskKind.IMAGE: 0, TaskKind.TEXT: 1}
# the architecture's codes: tanh hidden layers, RMS-normalized transmit signal
_ARCH_CODES = {"activation": 0, "normalize": 1}


def _header_fields(bundle: ModelBundle) -> dict:
    """The header record: task and architecture codes, then every ModelDims field in order."""
    return {"task": _TASK_CODE[bundle.task], **_ARCH_CODES,
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
    expected = {"task", *_ARCH_CODES, *dim_keys}
    if fields.keys() - expected:
        raise ValueError(f"checkpoint header has unknown keys {sorted(fields.keys() - expected)}")
    if expected - fields.keys():
        raise ValueError(f"checkpoint header lacks keys {sorted(expected - fields.keys())}")
    tasks = {code: task for task, code in _TASK_CODE.items()}
    if fields["task"] not in tasks:
        raise ValueError(f"checkpoint header has unknown task code {fields['task']}")
    for key, code in _ARCH_CODES.items():
        if fields[key] != code:
            raise ValueError(f"checkpoint header has unknown {key} code {fields[key]} "
                             f"(this version builds only {code})")
    bundle = ModelBundle(tasks[fields["task"]], ModelDims(**{k: fields[k] for k in dim_keys}))
    lookup = dict(bundle.params)
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
