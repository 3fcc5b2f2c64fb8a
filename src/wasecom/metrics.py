"""Reconstruction quality metrics: MSE, PSNR, SSIM, BLEU.

All metrics are pure numpy functions of arrays/sequences; the PSNR/SSIM pair
expects images scaled to [0, max_val].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSNR_CAP_DB = 100.0


def mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean over samples of per-sample mean squared error.

    Reduction order (feature mean, then batch mean) matches the training
    reconstruction loss bit for bit.
    """
    x, x_hat = np.asarray(x, dtype=float), np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError(f"mse: shape mismatch {x.shape} vs {x_hat.shape}")
    d = x - x_hat
    sq = d * d
    if sq.ndim == 1:
        return float(sq.mean())
    return float(sq.reshape(len(sq), -1).mean(axis=1).mean())


def psnr_db(x: np.ndarray, x_hat: np.ndarray, max_val: float = 1.0) -> float:
    return psnr_from_mse(mse(x, x_hat), max_val)


def psnr_from_mse(mse_value: float, max_val: float = 1.0) -> float:
    """10 log10(max^2 / mse), capped at 100 dB for (near-)exact matches."""
    if max_val <= 0:
        raise ValueError("max_val must be positive")
    if mse_value < max_val**2 * 1e-10:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(max_val**2 / mse_value))


def ssim(x: np.ndarray, y: np.ndarray, max_val: float = 1.0, window: int = 8) -> float:
    """Mean structural similarity with a uniform sliding window (stride 1).

    Per window: ((2 ux uy + c1)(2 cov + c2)) / ((ux^2 + uy^2 + c1)(vx + vy + c2))
    with c1 = (0.01 max)^2, c2 = (0.03 max)^2 and population statistics.
    Accepts a single (H, W) image or a batch (N, H, W); a batch scores the
    mean of its per-image values.
    """
    return float(_ssim_per_image(x, y, max_val, window).mean())


def _ssim_per_image(x, y, max_val: float, window: int) -> np.ndarray:
    """(N,) mean SSIM of each image; each entry equals that image's single call bit for bit."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"ssim: shape mismatch {x.shape} vs {y.shape}")
    if x.ndim == 2:
        x, y = x[None], y[None]
    n, h, w = x.shape
    if n == 0:
        raise ValueError("ssim: empty batch")
    if window > min(h, w):
        raise ValueError(f"window {window} exceeds image side {min(h, w)}")
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    k = window * window
    vals = []
    for i in range(h - window + 1):
        # every window of this window row at once: (n, windows, k), each window's
        # pixels contiguous in row-major order, so each sum runs as a single
        # window's would
        px, py = (_window_row(img[:, i:i + window]) for img in (x, y))
        ux, uy = np.add.reduce(px, 2) / k, np.add.reduce(py, 2) / k
        dx, dy = px - ux[..., None], py - uy[..., None]
        vx = np.add.reduce(dx * dx, 2) / k
        vy = np.add.reduce(dy * dy, 2) / k
        cov = np.add.reduce(dx * dy, 2) / k
        num = (2 * ux * uy + c1) * (2 * cov + c2)
        den = (ux**2 + uy**2 + c1) * (vx + vy + c2)
        vals.append(num / den)
    # one contiguous row of window values per image, reduced in the same
    # (pairwise) order as a single image's call
    return np.concatenate(vals, axis=1).mean(axis=1)


def _window_row(slab: np.ndarray) -> np.ndarray:
    """The (n, w - window + 1, window^2) square windows of an (n, window, w) slab, left to right."""
    n, window, w = slab.shape
    if window == w:
        return slab.reshape(n, 1, window * window)
    views = np.lib.stride_tricks.sliding_window_view(slab, window, axis=2)  # (n, window, j, window)
    return views.transpose(0, 2, 1, 3).reshape(n, -1, window * window)


def bleu(candidate, references, max_n: int = 4, smooth: float = 1e-9) -> float:
    """Geometric mean of clipped n-gram precisions times the brevity penalty.

    Single sentence: `candidate` is a token sequence and `references` a list
    of token sequences.  Batch: `candidate` is an (N, L) integer array and
    `references` an (N, L) array with one reference per row; the result is
    the mean sentence BLEU of the rows.  Zero clipped counts are replaced by
    `smooth`; n-gram orders the candidate is too short to form are skipped.
    """
    if np.ndim(candidate) == 2:
        cand, refs = np.asarray(candidate), np.asarray(references)
        if refs.shape != cand.shape:
            raise ValueError(f"bleu: shape mismatch {cand.shape} vs {refs.shape}")
        if cand.shape[0] == 0:
            raise ValueError("bleu: empty batch")
        if cand.shape[1] == 0:
            raise ValueError("bleu: empty candidate or reference")
        return float(_sentence_bleu(cand, refs[:, None, :], cand.shape[1], max_n, smooth).mean())
    candidate = list(candidate)
    refs = [list(r) for r in references]
    if not candidate or not refs or any(not r for r in refs):
        raise ValueError("bleu: empty candidate or reference")
    c = len(candidate)
    r = min((len(ref) for ref in refs), key=lambda L: (abs(L - c), L))
    ids: dict = {}
    cand = np.array([[ids.setdefault(t, len(ids)) for t in candidate]])
    padded = np.full((1, len(refs), max(map(len, refs))), -1)   # -1 matches no token id
    for k, ref in enumerate(refs):
        padded[0, k, :len(ref)] = [ids.setdefault(t, len(ids)) for t in ref]
    return float(_sentence_bleu(cand, padded, r, max_n, smooth)[0])


def _sentence_bleu(cand: np.ndarray, refs: np.ndarray, r: int, max_n: int,
                   smooth: float) -> np.ndarray:
    """(N,) sentence BLEU of candidate rows (N, c) against references (N, R, Lr).

    `r` is the effective reference length.  Each distinct candidate n-gram is
    counted once, at its first occurrence, and clipped by its largest count in
    any one reference.  The rows are the last, contiguous axis and every order
    sits in one stack, so each count and reduction runs once over N-long rows;
    positions an order is too short to reach stay False and count nothing.
    """
    c, lr = cand.shape[1], refs.shape[2]
    orders = min(max_n, c)
    cand_t = np.ascontiguousarray(cand.T)                                 # (c, N)
    # a transposed view would give ref_eq the layout of refs, with Lr innermost
    refs_t = np.ascontiguousarray(refs.transpose(1, 2, 0))                # (R, Lr, N)
    self_eq = cand_t[:, None, :] == cand_t[None, :, :]                    # (c, c, N) token matches
    ref_eq = cand_t[:, None, None, :] == refs_t[None]                     # (c, R, Lr, N)
    same = np.zeros((orders,) + self_eq.shape, dtype=bool)
    in_ref = np.zeros((orders,) + ref_eq.shape, dtype=bool)
    same[0], in_ref[0] = self_eq, ref_eq
    for n in range(2, orders + 1):
        # two n-grams match where their (n-1)-gram prefixes and last tokens do
        k, m = c - n + 1, max(lr - n + 1, 0)
        np.logical_and(same[n - 2, :k, :k], self_eq[n - 1:, n - 1:], out=same[n - 1, :k, :k])
        np.logical_and(in_ref[n - 2, :k, :, :m], ref_eq[n - 1:, :, n - 1:],
                       out=in_ref[n - 1, :k, :, :m])
    # a count is at most c or Lr: below 256 it is exact in uint8, which sums faster
    count_type = np.uint8 if max(c, lr) < 256 else np.int_
    count = same.view(np.uint8).sum(axis=2, dtype=count_type)            # (orders, c, N)
    seen_before = (same & np.tri(c, k=-1, dtype=bool)[:, :, None]).any(axis=2)
    best_ref = in_ref.view(np.uint8).sum(axis=3, dtype=count_type).max(axis=2)
    clipped = np.where(seen_before, 0, np.minimum(count, best_ref)).sum(axis=1)  # (orders, N)
    total = c - np.arange(orders)[:, None]                                # c - n + 1
    log_precisions = np.log(np.where(clipped > 0, clipped, smooth)) - np.log(total)
    geo = np.exp(np.mean(log_precisions, axis=0))
    brevity = 1.0 if c > r else np.exp(1.0 - r / c)
    return brevity * geo


@dataclass
class MetricsRecord:
    task: str
    snr_db: float
    attack: str            # "clean" or e.g. "fgsm(eps=0.01;frac=0.1)", no comma
    mse: float
    psnr_db: float | None = None
    ssim: float | None = None
    bleu: float | None = None
    n: int = 0

    CSV_HEADER = "task,snr_db,attack,mse,psnr_db,ssim,bleu,n"

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else repr(float(v))
        return ",".join([self.task, repr(float(self.snr_db)), self.attack,
                         fmt(self.mse), fmt(self.psnr_db), fmt(self.ssim),
                         fmt(self.bleu), str(self.n)])
