"""Loss terms for multi-source adaptation training.

The objective combines three ingredients: cross-entropy on labeled source
batches, a feature-discrepancy penalty (squared-MMD plus correlation
alignment) between source and target feature batches, and a pairwise
class-discrepancy penalty between the per-source classifier outputs on
target batches. All of them are differentiable through the autodiff
engine, including the median-heuristic kernel bandwidth, which is selected
as an order statistic of the tracked pairwise-distance matrix so gradient
checks hold for the complete objective. Each MMD builds one distance matrix
over the stacked source and target rows; it gives the bandwidth and every
kernel block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    ContractError,
    ShapeError,
    Tensor,
    _as_tensor,
    as_scalar,
    concat_rows,
    matmul,
    mul,
    pairwise_sq_dists,
    reciprocal,
    tabs,
    take,
    texp,
    tmean,
    transpose,
    tsum,
    log_sum_exp_rows,
)


class DegenerateBatchError(ValueError):
    """A batch is too small (or empty) for the requested statistic."""


class NumericError(ValueError):
    """A non-finite value reached a place that requires finite numbers."""


DEFAULT_BANDWIDTH_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel family used by the MMD estimator.

    ``base_bandwidth=None`` selects the median heuristic (median pairwise
    squared distance over the two batches concatenated, distinct pairs
    only, falling back to 1.0 when that median is zero); a positive float
    fixes the base bandwidth instead. The kernel value is the mean over
    ``bandwidth_multipliers`` m of exp(-||x - y||^2 / (m * sigma^2)).
    """

    bandwidth_multipliers: tuple = DEFAULT_BANDWIDTH_MULTIPLIERS
    base_bandwidth: float | None = None

    def __post_init__(self):
        if len(self.bandwidth_multipliers) == 0:
            raise ContractError("need at least one bandwidth multiplier")
        if not all(0.0 < m < math.inf for m in self.bandwidth_multipliers):
            raise ContractError(f"bandwidth multipliers must be positive and finite, "
                                f"got {self.bandwidth_multipliers}")
        if self.base_bandwidth is not None and not 0.0 < self.base_bandwidth < math.inf:
            raise ContractError(f"fixed base bandwidth must be positive and finite, got {self.base_bandwidth}")


@dataclass(frozen=True)
class LossWeights:
    """Penalty weights: ``lam`` on feature discrepancy, ``gamma`` on class discrepancy.

    Defaults were tuned on the bundled synthetic benchmark so that at a
    freshly initialized network neither alignment term overwhelms the
    classification signal (larger values collapse the features before the
    classifiers learn anything).
    """

    lam: float = 0.1
    gamma: float = 0.1

    def __post_init__(self):
        for name, v in (("lam", self.lam), ("gamma", self.gamma)):
            if not math.isfinite(v) or v < 0:
                raise ContractError(f"{name} must be finite and non-negative, got {v}")


def _check_batch(t: Tensor, what: str, min_rows: int = 1) -> None:
    if t.ndim != 2:
        raise ShapeError(f"{what} must be a (rows, features) tensor, got {t.shape}")
    if t.shape[0] < min_rows:
        raise DegenerateBatchError(f"{what} needs at least {min_rows} rows, got {t.shape[0]}")


def median_sq_dist_bandwidth(d: Tensor) -> Tensor:
    """Median of the distinct-pair (i < j) entries of a square distance matrix.

    The selection index is decided on values, then the selected entries are
    read back through the graph, so the result stays differentiable wherever
    the median pair is locally stable. Falls back to a constant 1.0 when the
    median is zero.
    """
    n = d.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    pairs = take(d, iu * n + ju)
    order = np.argsort(pairs.data, kind="stable")
    p = order.size
    if p % 2 == 1:
        mid = take(pairs, [order[p // 2]])
    else:
        mid = take(pairs, [order[p // 2 - 1], order[p // 2]])
    sigma_sq = tmean(mid)
    if sigma_sq.item() <= 0.0:
        return as_scalar(1.0)
    return sigma_sq


def mmd_squared(source: Tensor, target: Tensor, cfg: KernelConfig = KernelConfig()) -> Tensor:
    """Biased (all pairs, including self-pairs) squared-MMD estimate.

    One distance matrix over the stacked rows z = [source; target] gives
    both the bandwidth and the kernel matrix K, so the source-source,
    source-target and target-target blocks share one bandwidth; this keeps
    the statistic an exact squared RKHS distance and therefore
    non-negative. The estimate is w^T K w with w = 1/n on source rows and
    -1/m on target rows. Passing the same tensor for both arguments yields
    0.0 exactly.
    """
    source, target = _as_tensor(source), _as_tensor(target)
    _check_batch(source, "source")
    _check_batch(target, "target")
    if source.shape[1] != target.shape[1]:
        raise ShapeError(f"feature dimensions disagree: {source.shape} vs {target.shape}")
    if source is target:  # every weight cancels; kept tracked so backward still reaches it
        return mul(tsum(source), 0.0)
    n, m = source.shape[0], target.shape[0]
    z = concat_rows(source, target)
    d = pairwise_sq_dists(z, z)
    if cfg.base_bandwidth is None:
        sigma_sq = median_sq_dist_bandwidth(d)
    else:
        sigma_sq = as_scalar(cfg.base_bandwidth)
    scaled = mul(d, reciprocal(sigma_sq))
    terms = [texp(mul(scaled, -1.0 / mult)) for mult in cfg.bandwidth_multipliers]
    k = mul(sum(terms[1:], terms[0]), 1.0 / len(terms))
    w = np.concatenate([np.full(n, 1.0 / n), np.full(m, -1.0 / m)])
    return tsum(mul(k, Tensor(np.outer(w, w))))


def covariance(features: Tensor) -> Tensor:
    """Sample covariance (n-1 divisor) of an (n, d) feature batch."""
    features = _as_tensor(features)
    _check_batch(features, "features", min_rows=2)
    n = features.shape[0]
    ones = Tensor(np.ones((1, n)))
    col_sums = matmul(ones, features)
    outer = mul(matmul(transpose(col_sums), col_sums), 1.0 / n)
    return mul(matmul(transpose(features), features) - outer, 1.0 / (n - 1))


def coral_loss(source_feats: Tensor, target_feats: Tensor) -> Tensor:
    """Squared Frobenius distance between feature covariances, over 4*d^2."""
    source_feats, target_feats = _as_tensor(source_feats), _as_tensor(target_feats)
    _check_batch(source_feats, "source_feats", min_rows=2)
    _check_batch(target_feats, "target_feats", min_rows=2)
    if source_feats.shape[1] != target_feats.shape[1]:
        raise ShapeError(
            f"feature dimensions disagree: {source_feats.shape} vs {target_feats.shape}"
        )
    d = source_feats.shape[1]
    diff = covariance(source_feats) - covariance(target_feats)
    return mul(tsum(mul(diff, diff)), 1.0 / (4.0 * d * d))


def feature_discrepancy(
    source_feats: Tensor, target_feats: Tensor, cfg: KernelConfig = KernelConfig()
) -> Tensor:
    """Squared MMD plus correlation alignment, unit weights."""
    return mmd_squared(source_feats, target_feats, cfg) + coral_loss(source_feats, target_feats)


def class_discrepancy(outputs: Sequence[Tensor]) -> Tensor:
    """Mean absolute disagreement between all pairs of classifier outputs.

    Each element of ``outputs`` is a (batch, classes) matrix of finite
    probabilities (rows summing to 1 within 1e-6). The pairwise terms are
    means over batch rows and classes of |p_i - p_j|, averaged over the
    C(N, 2) unordered pairs.
    """
    outputs = [_as_tensor(o) for o in outputs]
    n = len(outputs)
    if n < 2:
        raise ContractError(f"class discrepancy needs at least 2 classifier outputs, got {n}")
    shape = outputs[0].shape
    for k, o in enumerate(outputs):
        if o.ndim != 2 or o.shape != shape:
            raise ShapeError(f"classifier outputs disagree in shape: {o.shape} vs {shape}")
        bad = np.flatnonzero(~np.isfinite(o.data).all(axis=1))
        if bad.size:
            raise ContractError(f"classifier output {k} has non-finite rows {bad.tolist()}")
        row_sums = o.data.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-6):
            raise ContractError("classifier outputs must be probability rows summing to 1")
    acc = None
    for j in range(n - 1):
        for i in range(j + 1, n):
            term = tmean(tabs(outputs[i] - outputs[j]))
            acc = term if acc is None else acc + term
    return mul(acc, 1.0 / math.comb(n, 2))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax.

    Computed in the log-sum-exp stabilized form.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    b, c = logits.shape
    if labels.size != b:
        raise ShapeError(f"{labels.size} labels for a batch of {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(f"labels must lie in [0, {c}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    lse = log_sum_exp_rows(logits)
    picked = take(logits, np.arange(b) * c + labels)
    return tmean(lse - picked)


def total_loss(cl: Tensor, fd: Tensor, cd: Tensor, w: LossWeights) -> Tensor:
    """Weighted sum cl + lam * fd + gamma * cd of scalar loss terms."""
    terms = (("classification", "cl", cl), ("feature discrepancy", "fd", fd),
             ("class discrepancy", "cd", cd))
    for name, short, t in terms:
        t = _as_tensor(t)
        if t.size != 1:
            raise ShapeError(f"{name} loss must be scalar, got shape {t.shape}")
        if not math.isfinite(t.item()):
            raise NumericError(f"{name} loss is not finite: {short} is {t.item()}")
    return _as_tensor(cl) + mul(_as_tensor(fd), w.lam) + mul(_as_tensor(cd), w.gamma)
