"""Adam optimization and the three experimental protocols.

Protocols:
  single    one labeled source adapted to the unlabeled target
  combined  several sources pooled into one, then the single recipe
  multi     one branch per source, with per-pair feature alignment and
            pairwise classifier agreement on target batches

Per iteration the multi recipe draws one batch per source plus one target
batch of the same size, computes per-branch cross-entropy, per-branch
feature discrepancy against the target batch, and the class discrepancy
over all branch outputs on the target batch, then takes one Adam step on

    mean_j CL_j + lam_t * mean_j FD_j + gamma_t * CD.

The target batch goes through the shared extractor once and fans out to
every branch; each source batch goes through it once for its own branch.
The step loss is ``losses.total_loss`` over the three terms (an absent term
is a constant 0), so a non-finite CL, FD or CD raises NumericError before
the update.

The alignment weights ramp linearly from 0 to their configured values over
the run (lam_t = lam * step/total_steps), so the classifiers establish a
supervised signal before the unsupervised alignment pressure peaks;
without the ramp the alignment terms can collapse the features of a
freshly initialized network.

Target labels never enter any training path: training functions accept an
UnlabeledSet for the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .autodiff import (
    ContractError,
    ShapeError,
    Tensor,
    as_scalar,
    backward,
    mul,
    scoped_tape,
    zero_grads,
)
from .data import (
    LabeledSet,
    UnlabeledSet,
    combine_sources,
    epoch_permutation,
    split,
)
from .losses import (
    KernelConfig,
    LossWeights,
    NumericError,
    class_discrepancy,
    cross_entropy,
    feature_discrepancy,
    total_loss,
)
from .model import MsdaModel, build_model, forward_all, forward_branch, predict


@dataclass(frozen=True)
class HyperParams:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch: int = 32
    epochs: int = 10
    weights: LossWeights = field(default_factory=LossWeights)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    seed: int = 0

    def __post_init__(self):
        for name, v in (("lr", self.lr), ("adam_eps", self.adam_eps)):
            if not 0.0 < v < math.inf:
                raise ContractError(f"{name} must be positive and finite, got {v}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise ContractError(f"{name} must lie in [0, 1), got {b}")
        if self.batch < 2:
            raise ContractError(f"batch must be >= 2 (covariances need 2 rows), got {self.batch}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")


class EpochStats(NamedTuple):
    cl: float
    fd: float
    cd: float
    total: float
    val_accuracy: float


RUN_HEADER = "protocol,target,sources,accuracy,seed"


@dataclass
class TrainReport:
    protocol: str  # single | combined | multi
    source_names: list
    target_name: str
    per_epoch: list
    test_accuracy: float | None
    hyper: HyperParams

    @property
    def method(self) -> str:
        """The suite's name for the run: single, or the protocol and its source count."""
        return "single" if self.protocol == "single" else f"{self.protocol}{len(self.source_names)}"

    def run_row(self) -> str:
        acc = -1.0 if self.test_accuracy is None else self.test_accuracy
        return (f"{self.protocol},{self.target_name},{'+'.join(self.source_names)},"
                f"{acc * 100:.2f},{self.hyper.seed}")

    def epoch_rows(self) -> list:
        rows = ["epoch,cl,fd,cd,total,val_accuracy"]
        for e, st in enumerate(self.per_epoch):
            rows.append(
                f"{e},{st.cl:.6f},{st.fd:.6f},{st.cd:.6f},{st.total:.6f},{st.val_accuracy * 100:.2f}"
            )
        return rows


@dataclass
class AdamState:
    m: list
    v: list

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, grads, state: AdamState, hp: HyperParams, t: int):
    """One bias-corrected Adam update, in place. ``t`` counts from 1."""
    if t < 1:
        raise ContractError(f"Adam step index must be >= 1, got {t}")
    c1 = 1.0 - hp.beta1**t
    c2 = 1.0 - hp.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        m *= hp.beta1
        m += (1.0 - hp.beta1) * g
        v *= hp.beta2
        v += (1.0 - hp.beta2) * g * g
        p.data -= hp.lr * (m / c1) / (np.sqrt(v / c2) + hp.adam_eps)
    return params, state


# Images per predict call in evaluate. conv2d's column buffer grows with the
# batch (about 21 MB for a branch conv at 32 images). On a 2-vCPU x86 host at
# one BLAS thread, predict ran at about 960 images/s in batches of 32 and 450
# in batches of 512.
EVAL_BATCH = 32


def evaluate(model: MsdaModel, test: LabeledSet) -> float:
    """Fraction of ensemble predictions matching the ground truth."""
    if test.n == 0:
        raise ContractError("cannot evaluate on an empty set")
    hits = 0
    for lo in range(0, test.n, EVAL_BATCH):
        imgs = Tensor(test.images[lo : lo + EVAL_BATCH])
        labels, _ = predict(model, imgs)
        hits += int(np.sum(np.asarray(labels) == test.labels[lo : lo + EVAL_BATCH]))
    return hits / test.n


def _val_accuracy(model: MsdaModel, val_sets) -> float:
    total = sum(ds.n for ds in val_sets)
    hits = 0.0
    for ds in val_sets:
        hits += evaluate(model, ds) * ds.n
    return hits / total


def _train(model: MsdaModel, sources, target: UnlabeledSet, hp: HyperParams,
           protocol: str, source_names) -> TrainReport:
    lam = hp.weights.lam
    gamma = hp.weights.gamma
    splits = [split(ds, hp.seed) for ds in sources]
    train_sets = [s[0] for s in splits]
    val_sets = [s[1] for s in splits]
    params = model.parameters()
    state = AdamState.for_params(params)

    min_n = min(tr.n for tr in train_sets)
    if hp.batch > min_n:
        raise ContractError(f"batch {hp.batch} exceeds smallest source train split ({min_n})")
    iters_per_epoch = math.ceil(min_n / hp.batch)
    n_target = target.n

    want_fd = lam > 0.0
    want_cd = gamma > 0.0 and model.num_sources >= 2

    total_steps = hp.epochs * iters_per_epoch
    step = 0
    per_epoch = []
    for epoch in range(hp.epochs):
        perms = [
            epoch_permutation(tr.n, f"src:{tr.domain_name}:{j}", hp.seed, epoch)
            for j, tr in enumerate(train_sets)
        ]
        tperm = epoch_permutation(n_target, f"tgt:{target.domain_name}", hp.seed, epoch)
        sums = np.zeros(4)
        counted = 0
        for it in range(iters_per_epoch):
            lo = it * hp.batch
            size = min(hp.batch, min_n - lo)
            if size < 2:
                continue  # a length-1 tail cannot feed a covariance
            with scoped_tape():
                cl_terms, fd_terms = [], []
                out_tgt = None
                if want_fd or want_cd:
                    sel = tperm[np.arange(lo, lo + size) % n_target]
                    out_tgt = forward_all(model, Tensor(target.images[sel]))
                for j, tr in enumerate(train_sets):
                    rows = perms[j][lo : lo + size]
                    out_src = forward_branch(model, Tensor(tr.images[rows]), j)
                    cl_terms.append(cross_entropy(out_src.logits, tr.labels[rows]))
                    if want_fd:
                        fd_terms.append(
                            feature_discrepancy(out_src.features, out_tgt[j].features, hp.kernel)
                        )

                cl = mul(sum(cl_terms[1:], cl_terms[0]), 1.0 / len(cl_terms))
                fd = as_scalar(0.0)
                if fd_terms:
                    fd = mul(sum(fd_terms[1:], fd_terms[0]), 1.0 / len(fd_terms))
                cd = as_scalar(0.0)
                if want_cd:
                    cd = class_discrepancy([out.probs for out in out_tgt])
                ramp = (step + 1) / total_steps
                try:
                    total = total_loss(cl, fd, cd, LossWeights(lam * ramp, gamma * ramp))
                except NumericError as exc:
                    raise NumericError(f"{exc} at epoch {epoch}, step {step + 1}; "
                                       "refusing to update the weights") from exc

                zero_grads(params)
                backward(total)
                step += 1
                adam_step(params, [p.grad for p in params], state, hp, step)
                sums += (cl.item(), fd.item(), cd.item(), total.item())
                counted += 1
        means = sums / max(counted, 1)
        per_epoch.append(EpochStats(*means, _val_accuracy(model, val_sets)))

    return TrainReport(
        protocol=protocol,
        source_names=list(source_names),
        target_name=target.domain_name,
        per_epoch=per_epoch,
        test_accuracy=None,
        hyper=hp,
    )


def train_multi_source(model: MsdaModel, sources, target_train: UnlabeledSet, hp: HyperParams) -> TrainReport:
    """Branch-per-source adaptation with feature and classifier alignment."""
    if len(sources) < 2:
        raise ContractError(f"multi-source training needs >= 2 sources, got {len(sources)}")
    if model.num_sources != len(sources):
        raise ContractError(
            f"model has {model.num_sources} branches but {len(sources)} sources were given"
        )
    return _train(model, sources, target_train, hp, "multi", [s.domain_name for s in sources])


def train_single_source(model: MsdaModel, source: LabeledSet, target_train: UnlabeledSet, hp: HyperParams) -> TrainReport:
    """Classic one-source adaptation; the class-discrepancy term is absent."""
    if model.num_sources != 1:
        raise ContractError(f"single-source training needs a 1-branch model, got {model.num_sources}")
    return _train(model, [source], target_train, hp, "single", [source.domain_name])


def train_source_combined(model: MsdaModel, sources, target_train: UnlabeledSet, hp: HyperParams) -> TrainReport:
    """Pool the sources into one set, then run the single-source recipe."""
    if len(sources) < 2:
        raise ContractError(f"source-combined training needs >= 2 sources, got {len(sources)}")
    if model.num_sources != 1:
        raise ContractError("source-combined training uses a 1-branch model")
    pooled = combine_sources(list(sources))
    return _train(model, [pooled], target_train, hp, "combined",
                  [s.domain_name for s in sources])


# ---------------------------------------------------------------------------
# protocol suite


@dataclass
class SuiteResult:
    target: str
    anchor: str
    runs: list  # one TrainReport per run
    method_averages: dict


PROTOCOLS = ("single", "combined", "multi")
METHOD_ORDER = ("single", "combined2", "combined3", "multi2", "multi3")


def run_protocol(protocol: str, source_sets, target_train: UnlabeledSet,
                 target_test: LabeledSet, hp: HyperParams) -> tuple:
    """Train a fresh model under one of PROTOCOLS and score it on ``target_test``.

    Returns (model, report); the model has one branch per source under ``multi``."""
    n = len(source_sets) if protocol == "multi" else 1
    model = build_model(n, 2, (1,) + source_sets[0].images.shape[2:], seed=hp.seed)
    if protocol == "single":
        report = train_single_source(model, source_sets[0], target_train, hp)
    elif protocol == "combined":
        report = train_source_combined(model, source_sets, target_train, hp)
    elif protocol == "multi":
        report = train_multi_source(model, source_sets, target_train, hp)
    else:
        raise ContractError(f"unknown protocol {protocol!r}")
    report.test_accuracy = evaluate(model, target_test)
    return model, report


def run_protocol_suite(sources: dict, target_train: UnlabeledSet, target_test: LabeledSet,
                       hp: HyperParams, anchor: str | None = None) -> SuiteResult:
    """Anchored enumeration of all protocols against one fixed target.

    ``sources`` maps each non-target domain name to its set, in roster
    order. With five of them this is 1 single run, 4 + 6 source-combined
    runs (anchor paired with each other domain, anchor plus each pair),
    and the same 4 + 6 in multi mode: 21 runs.
    """
    if len(sources) < 3:
        raise ContractError(f"suite needs >= 3 non-target domains, got {len(sources)}")
    anchor = anchor or next(iter(sources))
    if anchor not in sources:
        raise ContractError(f"anchor {anchor!r} must be a non-target roster domain")

    rest = [n for n in sources if n != anchor]
    combos = [(anchor, r) for r in rest] + [(anchor, a, b) for a, b in combinations(rest, 2)]
    jobs = [("single", (anchor,))] + [(p, c) for p in ("combined", "multi") for c in combos]
    runs = []
    for protocol, combo in jobs:
        _, report = run_protocol(protocol, [sources[n] for n in combo], target_train, target_test, hp)
        runs.append(report)

    averages = {}
    for method in METHOD_ORDER:
        accs = [r.test_accuracy for r in runs if r.method == method]
        if accs:
            averages[method] = float(np.mean(accs))
    return SuiteResult(target=target_train.domain_name, anchor=anchor, runs=runs,
                       method_averages=averages)


def render_runs_csv(result: SuiteResult) -> str:
    lines = [RUN_HEADER] + [r.run_row() for r in result.runs]
    for method in METHOD_ORDER:
        if method in result.method_averages:
            avg = result.method_averages[method]
            lines.append(f"average,{result.target},{method},{avg * 100:.2f},")
    return "\n".join(lines) + "\n"


def render_summary_csv(result: SuiteResult) -> str:
    lines = ["method,average"]
    for method in METHOD_ORDER:
        if method in result.method_averages:
            lines.append(f"{method},{result.method_averages[method] * 100:.2f}")
    return "\n".join(lines) + "\n"
