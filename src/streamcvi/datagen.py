"""Seeded generators for the three synthetic evaluation streams.

All three use numpy's default_rng (PCG64), so identical seeds give
bit-identical streams across runs and platforms.

  s1: two autoregressive modes driven by Gaussian input, with gradual
      coefficient interpolation between modes (locally linear processes).
  s2: a 2-d Gaussian shifting from one mean/covariance to another in 10
      equal parameter steps, with 1% of samples perturbed by uniform noise.
  s3: Gaussians rotating around a circle in 10 equal angular shifts, with a
      systematic noise Gaussian at the center absorbing a few samples per
      shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# First seed whose five segment-length draws sum to the reference stream
# length of 1955 (see gen_s1); found by exhaustive search from 0.
DEFAULT_S1_SEED = 1422
DEFAULT_S2_SEED = 0
DEFAULT_S3_SEED = 0

S1_COEFFS_M1 = np.array([1.018, 0.0, 1.801, -0.8187])  # x[n-1], x[n-2], y[n-1], y[n-2]
S1_COEFFS_M2 = np.array([1.0, 0.5, 1.5, -0.7])

S2_MU1 = np.array([95.0, 75.0])
S2_MU2 = np.array([5.0, 5.0])
S2_SIGMA1 = np.array([[3.8418, -2.6474], [-2.6474, 4.8478]])
S2_SIGMA2 = np.array([[1.5239, -0.5390], [-0.5390, 1.6467]])

S3_RADIUS = 50.0
S3_CLUSTER_COV = np.diag([4.0, 4.0])
S3_NOISE_COV = np.diag([9.0, 9.0])


@dataclass(frozen=True)
class LabeledStream:
    samples: np.ndarray             # (n, p), read-only
    labels: tuple[int, ...]
    change_events: tuple[int, ...]  # 1-based index of the first shifted sample

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def X(self) -> np.ndarray:
        """The (n, p) samples, one row per point in stream order."""
        return self.samples


def _finish(rows, labels, events) -> LabeledStream:
    samples = np.array(rows, dtype=float)
    samples.flags.writeable = False  # X() hands out this array itself
    return LabeledStream(samples=samples, labels=tuple(labels), change_events=tuple(events))


def gen_s1(seed: int = DEFAULT_S1_SEED) -> LabeledStream:
    """Two alternating autoregressive modes with gradual 5-step transitions.

    Five stationary segments (lengths drawn uniformly from [200, 500]) are
    separated by four transitions of 5 interpolation steps x 10 samples.
    The default seed realizes the reference length of 1955 samples.
    """
    rng = np.random.default_rng(seed)
    seg_lengths = rng.integers(200, 501, size=5)

    x_hist = [0.0, 0.0]  # x[n-1], x[n-2]
    y_hist = [0.0, 0.0]  # y[n-1], y[n-2]
    rows: list[np.ndarray] = []
    labels: list[int] = []
    events: list[int] = []

    def emit(coeffs: np.ndarray, count: int, label: int):
        for _ in range(count):
            x = float(rng.normal(1.0, 1.0))
            y = (coeffs[0] * x_hist[0] + coeffs[1] * x_hist[1]
                 + coeffs[2] * y_hist[0] + coeffs[3] * y_hist[1])
            rows.append(np.array([x, y]))
            labels.append(label)
            x_hist[1], x_hist[0] = x_hist[0], x
            y_hist[1], y_hist[0] = y_hist[0], y

    modes = [S1_COEFFS_M1, S1_COEFFS_M2]
    for seg in range(5):
        src = modes[seg % 2]
        emit(src, int(seg_lengths[seg]), seg % 2)
        if seg < 4:
            dst = modes[(seg + 1) % 2]
            events.append(len(rows) + 1)
            for step in range(1, 6):
                coeffs = src + (step / 5.0) * (dst - src)
                emit(coeffs, 10, (seg + 1) % 2)
    return _finish(rows, labels, events)


def gen_s2(seed: int = DEFAULT_S2_SEED) -> LabeledStream:
    """Shifting 2-d Gaussian: 500 initial samples, then 10 parameter steps of
    200 samples each; 1% of each mode's samples perturbed by U[-10, 10]."""
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    labels: list[int] = []
    events: list[int] = []

    def emit_mode(frac: float, count: int, label: int):
        mu = S2_MU1 + frac * (S2_MU2 - S2_MU1)
        sigma = S2_SIGMA1 + frac * (S2_SIGMA2 - S2_SIGMA1)
        block = rng.multivariate_normal(mu, sigma, size=count)
        n_noisy = max(1, round(0.01 * count))
        noisy = rng.choice(count, size=n_noisy, replace=False)
        block[noisy] += rng.uniform(-10.0, 10.0, size=(n_noisy, 2))
        rows.extend(block)
        labels.extend([label] * count)

    emit_mode(0.0, 500, 0)
    for step in range(1, 11):
        events.append(len(rows) + 1)
        emit_mode(step / 10.0, 200, step)
    return _finish(rows, labels, events)


def gen_s3(seed: int = DEFAULT_S3_SEED) -> LabeledStream:
    """Gaussians rotating around a circle in 10 equal shifts, 200 samples per
    position; each shift moves 1..20 samples into a central noise Gaussian."""
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    labels: list[int] = []
    events: list[int] = []
    center = np.zeros(2)

    for step in range(10):
        if step > 0:
            events.append(len(rows) + 1)
        angle = 2.0 * np.pi * step / 10.0
        mu = center + S3_RADIUS * np.array([np.cos(angle), np.sin(angle)])
        block = rng.multivariate_normal(mu, S3_CLUSTER_COV, size=200)
        n_noise = int(rng.integers(1, 21))
        idx = rng.choice(200, size=n_noise, replace=False)
        block[idx] = rng.multivariate_normal(center, S3_NOISE_COV, size=n_noise)
        rows.extend(block)
        labels.extend([step] * 200)
    return _finish(rows, labels, events)


GENERATORS = {"s1": gen_s1, "s2": gen_s2, "s3": gen_s3}
DEFAULT_SEEDS = {"s1": DEFAULT_S1_SEED, "s2": DEFAULT_S2_SEED, "s3": DEFAULT_S3_SEED}
