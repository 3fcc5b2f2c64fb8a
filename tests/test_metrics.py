import csv

import numpy as np
import pytest

from wasecom import metrics as MX
from wasecom import models as M
from wasecom.perturb import PerturbMethod, PerturbSpec
from wasecom.tensor import Tensor
from wasecom.training import _attack_label


def test_psnr_known_points():
    assert abs(MX.psnr_from_mse(0.01, 1.0) - 20.0) < 1e-9
    assert abs(MX.psnr_from_mse(1.0, 1.0) - 0.0) < 1e-9
    x = np.random.default_rng(0).uniform(size=(4, 8, 8))
    assert MX.psnr_db(x, x) == 100.0  # capped, not inf


def test_psnr_monotone_decreasing_in_mse():
    values = [MX.psnr_from_mse(m, 1.0) for m in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mse_matches_reconstruction_loss_bitwise():
    dims = M.ModelDims(input_dim=12, semantic_dim=3, signal_dim=3, hidden_dim=6)
    bundle = M.ModelBundle(M.TaskKind.IMAGE, dims, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, y = rng.uniform(size=(5, 12)), rng.uniform(size=(5, 12))
        loss = M.reconstruction_loss(bundle, Tensor(x), Tensor(y))
        assert MX.mse(x, y) == float(loss.data)


def test_ssim_self_similarity_is_exactly_one():
    x = np.random.default_rng(3).uniform(size=(3, 8, 8))
    assert MX.ssim(x, x) == 1.0


def test_ssim_constant_images_known_value():
    zeros = np.zeros((8, 8))
    ones = np.ones((8, 8))
    c1 = 0.01**2
    expected = c1 / (1.0 + c1)  # ~9.999e-5
    assert abs(MX.ssim(zeros, ones) - expected) < 1e-12
    assert abs(expected - 9.999e-5) < 1e-8


def test_ssim_symmetry_and_range():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a, b = rng.uniform(size=(10, 10)), rng.uniform(size=(10, 10))
        s1, s2 = MX.ssim(a, b), MX.ssim(b, a)
        assert abs(s1 - s2) < 1e-12
        assert -1.0 - 1e-12 <= s1 <= 1.0 + 1e-12


def test_ssim_window_larger_than_image_errors():
    with pytest.raises(ValueError, match="window"):
        MX.ssim(np.zeros((4, 4)), np.zeros((4, 4)), window=8)


def test_ssim_sliding_window_on_larger_images():
    rng = np.random.default_rng(5)
    a = rng.uniform(size=(12, 12))
    noisy = np.clip(a + rng.normal(scale=0.05, size=a.shape), 0, 1)
    assert MX.ssim(a, noisy) > MX.ssim(a, rng.uniform(size=(12, 12)))


def _reference_ssim_per_image(x, y, window, max_val=1.0):
    """SSIM one window at a time, each window's statistics from ndarray.mean."""
    n, h, w = x.shape
    c1, c2 = (0.01 * max_val) ** 2, (0.03 * max_val) ** 2
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            px = x[:, i:i + window, j:j + window].reshape(n, -1)
            py = y[:, i:i + window, j:j + window].reshape(n, -1)
            ux, uy = px.mean(axis=1), py.mean(axis=1)
            vx = ((px - ux[:, None]) ** 2).mean(axis=1)
            vy = ((py - uy[:, None]) ** 2).mean(axis=1)
            cov = ((px - ux[:, None]) * (py - uy[:, None])).mean(axis=1)
            num = (2 * ux * uy + c1) * (2 * cov + c2)
            den = (ux**2 + uy**2 + c1) * (vx + vy + c2)
            vals.append(num / den)
    return np.stack(vals, axis=1).mean(axis=1)


@pytest.mark.parametrize("shape,window", [((64, 8, 8), 8), ((64, 6, 6), 6), ((16, 12, 12), 8),
                                          ((7, 10, 10), 4), ((5, 32, 32), 8), ((3, 9, 7), 3),
                                          ((1, 8, 8), 8)])
def test_ssim_window_rows_match_a_per_window_loop_bitwise(shape, window):
    rng = np.random.default_rng(sum(shape) + window)
    x = rng.uniform(size=shape)
    y = np.clip(x + rng.normal(scale=0.1, size=shape), 0.0, 1.0)
    want = _reference_ssim_per_image(x, y, window)
    got = MX._ssim_per_image(x, y, 1.0, window)
    assert got.tobytes() == want.tobytes()
    assert MX.ssim(x, y, window=window) == float(want.mean())


def test_bleu_identical_sentence_is_one():
    sent = [3, 1, 4, 1, 5, 9, 2, 6]
    assert MX.bleu(sent, [sent]) == 1.0


def test_bleu_brevity_penalty_example():
    # candidate "a b" against reference "a b c d" with bigram cap: exp(-1)
    val = MX.bleu(["a", "b"], [["a", "b", "c", "d"]], max_n=2)
    assert abs(val - np.exp(-1.0)) < 1e-6


def test_bleu_invariant_under_token_renaming():
    cand = [0, 1, 2, 3, 2, 1]
    ref = [0, 1, 2, 2, 3, 1]
    mapping = {0: 17, 1: 5, 2: 99, 3: 42}
    v1 = MX.bleu(cand, [ref])
    v2 = MX.bleu([mapping[t] for t in cand], [[mapping[t] for t in ref]])
    assert v1 == v2


def test_bleu_range_and_smoothing():
    # disjoint tokens: every precision is smoothed but the score stays in [0, 1]
    val = MX.bleu([1, 2, 3, 4], [[5, 6, 7, 8]])
    assert 0.0 < val < 1e-6


def test_bleu_rejects_empty():
    with pytest.raises(ValueError):
        MX.bleu([], [[1, 2]])
    with pytest.raises(ValueError):
        MX.bleu([1], [[]])


def test_metrics_record_csv_shape():
    rec = MX.MetricsRecord(task="image", snr_db=10.0, attack="clean",
                           mse=0.01, psnr_db=20.0, ssim=0.9, bleu=None, n=256)
    assert MX.MetricsRecord.CSV_HEADER == "task,snr_db,attack,mse,psnr_db,ssim,bleu,n"
    row = rec.csv_row()
    fields = row.split(",")
    assert len(fields) == 8 and fields[0] == "image" and fields[-1] == "256"
    assert fields[6] == ""  # bleu empty for the image task
    # an attacked cell's label stays one field for a CSV reader
    attack = PerturbSpec(PerturbMethod.FGSM, radius=0.5, sample_fraction=0.5)
    rec.attack = _attack_label(attack)
    (fields,) = csv.reader([rec.csv_row()])
    assert len(fields) == 8 and fields[2] == "fgsm(eps=0.5;frac=0.5)" and fields[3] == "0.01"


# ------------------------------------------- batched forms against references
def _reference_ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def _reference_bleu(candidate, references, max_n=4, smooth=1e-9):
    """The dict-count sentence BLEU that the array implementation replaced."""
    candidate = list(candidate)
    refs = [list(r) for r in references]
    c = len(candidate)
    r = min((len(ref) for ref in refs), key=lambda L: (abs(L - c), L))
    log_precisions = []
    for n in range(1, max_n + 1):
        cand_counts = _reference_ngram_counts(candidate, n)
        total = sum(cand_counts.values())
        if total == 0:
            break
        clipped = 0
        for g, cnt in cand_counts.items():
            best_ref = max(_reference_ngram_counts(ref, n).get(g, 0) for ref in refs)
            clipped += min(cnt, best_ref)
        log_precisions.append(np.log(clipped if clipped > 0 else smooth) - np.log(total))
    geo = np.exp(np.mean(log_precisions))
    brevity = 1.0 if c > r else np.exp(1.0 - r / c)
    return float(brevity * geo)


@pytest.mark.parametrize("vocab", [8, 32])
@pytest.mark.parametrize("length", [1, 3, 8, 12])
def test_batched_bleu_rows_match_single_sentence_form_bitwise(vocab, length):
    rng = np.random.default_rng([vocab, length])
    cand = rng.integers(vocab, size=(64, length))
    refs = rng.integers(vocab, size=(64, length))
    refs[::4] = cand[::4]                                  # exact matches
    refs[1::4, : length // 2] = cand[1::4, : length // 2]  # shared prefixes
    expected = [_reference_bleu(list(map(int, c)), [list(map(int, r))])
                for c, r in zip(cand, refs)]
    singles = [MX.bleu(list(map(int, c)), [list(map(int, r))]) for c, r in zip(cand, refs)]
    assert singles == expected
    for n in (1, 7, 64):
        rows = MX._sentence_bleu(cand[:n], refs[:n, None, :], length, 4, 1e-9)
        assert np.array_equal(rows, expected[:n])
        assert MX.bleu(cand[:n], refs[:n]) == float(np.mean(expected[:n]))


@pytest.mark.parametrize("vocab", [2, 32])
@pytest.mark.parametrize("length", [1, 3, 8, 12])
def test_bleu_rows_do_not_depend_on_the_call_size(vocab, length):
    # rows are the inner axis of every count, so a row's score must not move
    # with how many rows share its call: evaluate sums per-batch means
    rng = np.random.default_rng([vocab, length, 130])
    cand = rng.integers(vocab, size=(130, length))
    refs = rng.integers(vocab, size=(130, length))
    refs[::5] = cand[::5]
    whole = MX._sentence_bleu(cand, refs[:, None, :], length, 4, 1e-9)
    for lo, hi in ((0, 64), (64, 128), (128, 130)):
        part = MX._sentence_bleu(cand[lo:hi], refs[lo:hi, None, :], length, 4, 1e-9)
        assert whole[lo:hi].tobytes() == part.tobytes()


@pytest.mark.parametrize("c_len,r_len", [(300, 300), (250, 260), (260, 250)])
def test_bleu_counts_stay_exact_past_255_tokens(c_len, r_len):
    # a uint8 count would wrap: 300 copies of one token would count 44
    rng = np.random.default_rng([c_len, r_len])
    cand = rng.integers(2, size=(3, c_len))
    refs = rng.integers(2, size=(3, r_len))
    cand[0], refs[0] = 0, 0
    expected = [_reference_bleu(list(map(int, c)), [list(map(int, r))])
                for c, r in zip(cand, refs)]
    assert [MX.bleu(list(map(int, c)), [list(map(int, r))])
            for c, r in zip(cand, refs)] == expected
    assert np.array_equal(MX._sentence_bleu(cand, refs[:, None, :], r_len, 4, 1e-9), expected)
    if c_len == r_len:
        assert expected[0] == 1.0 and MX.bleu(cand, refs) == float(np.mean(expected))


def test_bleu_multi_reference_and_string_tokens_match_reference():
    rng = np.random.default_rng(11)
    words = np.array(["the", "cat", "sat", "on", "a", "mat"])
    for _ in range(300):
        cand = list(words[rng.integers(4, size=rng.integers(1, 9))])
        refs = [list(words[rng.integers(4, size=rng.integers(1, 11))])
                for _ in range(rng.integers(1, 4))]
        for max_n in (1, 2, 4):
            assert MX.bleu(cand, refs, max_n=max_n) == _reference_bleu(cand, refs, max_n)


def test_batched_bleu_rejects_mismatched_or_empty_rows():
    with pytest.raises(ValueError, match="shape"):
        MX.bleu(np.zeros((2, 3), dtype=int), np.zeros((2, 4), dtype=int))
    with pytest.raises(ValueError, match="empty"):
        MX.bleu(np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int))


def test_zero_row_batches_are_named_errors():
    # bleu used to return nan with a RuntimeWarning, ssim to fail inside a reshape
    with pytest.raises(ValueError, match="bleu: empty batch"):
        MX.bleu(np.zeros((0, 8), dtype=int), np.zeros((0, 8), dtype=int))
    with pytest.raises(ValueError, match="ssim: empty batch"):
        MX.ssim(np.zeros((0, 8, 8)), np.zeros((0, 8, 8)))


def _reference_ssim(x, y, window, max_val=1.0):
    """The single-image sliding-window loop, averaged over the window positions."""
    c1, c2 = (0.01 * max_val) ** 2, (0.03 * max_val) ** 2
    h, w = x.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            px, py = x[i:i + window, j:j + window].ravel(), y[i:i + window, j:j + window].ravel()
            ux, uy = px.mean(), py.mean()
            vx, vy = ((px - ux) ** 2).mean(), ((py - uy) ** 2).mean()
            cov = ((px - ux) * (py - uy)).mean()
            vals.append((2 * ux * uy + c1) * (2 * cov + c2)
                        / ((ux**2 + uy**2 + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


@pytest.mark.parametrize("side", [8, 12, 16])
@pytest.mark.parametrize("window", [8, 4])
def test_ssim_per_image_in_a_batch_matches_single_calls_bitwise(side, window):
    rng = np.random.default_rng([side, window])
    x = rng.uniform(size=(5, side, side))
    y = np.clip(x + rng.normal(scale=0.1, size=x.shape), 0, 1)
    per_image = MX._ssim_per_image(x, y, 1.0, window)
    singles = [MX.ssim(a, b, window=window) for a, b in zip(x, y)]
    assert np.array_equal(per_image, singles)
    assert singles == [_reference_ssim(a, b, window) for a, b in zip(x, y)]
    assert MX.ssim(x, y, window=window) == float(per_image.mean())
