"""Multi-source domain adaptation lab on synthetic stamp-legibility data.

The package is organized as:

    autodiff   dense float64 tensors with reverse-mode differentiation
    losses     cross-entropy, squared MMD, CORAL, class discrepancy
    model      shared extractor + per-source branches and classifiers
    data       synthetic multi-domain dataset generator and file formats
    trainer    Adam, the single/combined/multi protocols, results tables
    cam        class activation heatmaps and PGM export
    cli        `msda` command line (generate | train | suite | cam)
"""

import importlib

from . import autodiff, cam, data, losses, model, trainer
from .autodiff import ComputationTape, Tensor, backward, finite_difference_check, no_grad
from .data import DomainSpec, LabeledSet, UnlabeledSet, default_roster, generate_domain, split
from .losses import (
    KernelConfig,
    LossWeights,
    class_discrepancy,
    coral_loss,
    covariance,
    cross_entropy,
    feature_discrepancy,
    gram,
    mmd_squared,
    total_loss,
)
from .model import BranchOutput, MsdaModel, build_model, forward_all, forward_branch, predict
from .trainer import (
    HyperParams,
    TrainReport,
    evaluate,
    run_protocol_suite,
    train_multi_source,
    train_single_source,
    train_source_combined,
)
from .cam import Heatmap, aggregate_cams, compute_cam, compute_cams, export_pgm

__all__ = [
    "autodiff", "cam", "cli", "data", "losses", "model", "trainer",
    "ComputationTape", "Tensor", "backward", "finite_difference_check", "no_grad",
    "DomainSpec", "LabeledSet", "UnlabeledSet", "default_roster", "generate_domain", "split",
    "KernelConfig", "LossWeights", "class_discrepancy", "coral_loss", "covariance",
    "cross_entropy", "feature_discrepancy", "gram", "mmd_squared", "total_loss",
    "BranchOutput", "MsdaModel", "build_model", "forward_all", "forward_branch", "predict",
    "HyperParams", "TrainReport", "evaluate", "run_protocol_suite",
    "train_multi_source", "train_single_source", "train_source_combined",
    "Heatmap", "aggregate_cams", "compute_cam", "compute_cams", "export_pgm",
]
__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use: ``python -m msdalab.cli`` warns when the
    # package has already imported the module it is about to run
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
