"""Class activation maps for the branched model.

A branch ends in global average pooling followed by two affine maps
(feature affine, then classifier). Because both are linear, they compose
into one effective weight vector per class over the pre-GAP feature maps;
the raw activation map is the weighted sum of those maps, and its global
average equals the class logit minus the composed bias exactly. Heatmaps
are min-max normalized per map and can be aggregated across branches by
pixelwise mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, ShapeError, Tensor, no_grad
from .model import MsdaModel, all_feature_maps, feature_maps


@dataclass
class Heatmap:
    """Normalized class-evidence map.

    ``values`` lie in [0, 1] (all 0.5 when the raw map was constant);
    ``branch`` is a branch index or "aggregate"; ``source_image_shape`` is
    the (h, w) of the input the map explains.
    """

    values: np.ndarray
    branch: int | str
    class_index: int
    source_image_shape: tuple


def class_weight_vector(model: MsdaModel, class_index: int, branch: int):
    """Effective per-map weights and bias for one class of one branch.

    Composes the branch feature affine with the classifier column so that
    logit = sum_k w[k] * GAP(map_k) + bias.
    """
    if not 0 <= branch < model.num_sources:
        raise ContractError(f"branch index {branch} out of range for {model.num_sources}")
    if not 0 <= class_index < model.num_classes:
        raise ContractError(f"class index {class_index} out of range for {model.num_classes}")
    w_fc = model.params[f"branch{branch}.fc.weight"].data
    b_fc = model.params[f"branch{branch}.fc.bias"].data
    w_cls = model.params[f"branch{branch}.cls.weight"].data[:, class_index]
    b_cls = model.params[f"branch{branch}.cls.bias"].data[class_index]
    return w_fc @ w_cls, float(b_fc @ w_cls + b_cls)


def _check_one_image(image: Tensor) -> None:
    if image.ndim != 4 or image.shape[0] != 1:
        raise ShapeError(f"expected a single image (1, c, h, w), got {image.shape}")


def _class_map(model: MsdaModel, maps: np.ndarray, class_index: int, branch: int):
    """Weighted sum of one image's (k, h', w') branch maps, plus the composed bias."""
    weights, bias = class_weight_vector(model, class_index, branch)
    return np.tensordot(weights, maps, axes=(0, 0)), bias


def raw_class_map(model: MsdaModel, image: Tensor, class_index: int, branch: int):
    """Unnormalized class-evidence map plus the composed bias.

    The global average of the returned map equals the class logit minus
    the returned bias.
    """
    _check_one_image(image)
    with no_grad():
        maps = feature_maps(model, image, branch).data[0]
    return _class_map(model, maps, class_index, branch)


def _normalize(raw: np.ndarray) -> np.ndarray:
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.full_like(raw, 0.5)
    return (raw - lo) / (hi - lo)


def _heatmap(raw: np.ndarray, class_index: int, branch: int, image: Tensor) -> Heatmap:
    return Heatmap(
        values=_normalize(raw),
        branch=branch,
        class_index=class_index,
        source_image_shape=tuple(image.shape[2:]),
    )


def compute_cam(model: MsdaModel, image: Tensor, class_index: int, branch: int) -> Heatmap:
    """Normalized heatmap of one class for one branch on one image."""
    raw, _ = raw_class_map(model, image, class_index, branch)
    return _heatmap(raw, class_index, branch, image)


def compute_cams(model: MsdaModel, image: Tensor, class_index: int) -> list:
    """``compute_cam`` for every branch, from one shared-extractor pass.

    Element ``j`` equals ``compute_cam(model, image, class_index, j)``.
    """
    _check_one_image(image)
    maps = all_feature_maps(model, image)[0]
    k = maps.shape[0] // model.num_sources
    return [_heatmap(_class_map(model, maps[j * k : (j + 1) * k], class_index, j)[0],
                     class_index, j, image)
            for j in range(model.num_sources)]


def aggregate_cams(maps: list) -> Heatmap:
    """Pixelwise mean of normalized heatmaps, renormalized."""
    if not maps:
        raise ContractError("nothing to aggregate")
    first = maps[0]
    for hm in maps:
        if hm.values.shape != first.values.shape:
            raise ShapeError(f"heatmap shapes disagree: {hm.values.shape} vs {first.values.shape}")
        if hm.class_index != first.class_index:
            raise ContractError("cannot aggregate heatmaps of different classes")
    mean = np.mean([hm.values for hm in maps], axis=0)
    return Heatmap(
        values=_normalize(mean),
        branch="aggregate",
        class_index=first.class_index,
        source_image_shape=first.source_image_shape,
    )


def upsample_nearest(values: np.ndarray, out_shape: tuple) -> np.ndarray:
    """Nearest-neighbor upsample so the map overlays the source image."""
    h_in, w_in = values.shape
    h, w = out_shape
    rows = (np.arange(h) * h_in) // h
    cols = (np.arange(w) * w_in) // w
    return values[np.ix_(rows, cols)]


def export_pgm(hm: Heatmap, path) -> None:
    """Write the heatmap as a plain-text (P2) PGM at source-image size."""
    up = upsample_nearest(hm.values, hm.source_image_shape)
    pixels = np.rint(255.0 * up).astype(int)
    h, w = pixels.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines += [" ".join(map(str, row)) for row in pixels.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pgm(path) -> np.ndarray:
    """Parse a plain P2 PGM with maxval 255 back into an integer array.

    Raises ContractError, naming the file, unless the body holds exactly
    width x height integers in 0..maxval.
    """
    with open(path, "r", encoding="ascii") as fh:
        tokens = " ".join(line.split("#", 1)[0] for line in fh).split()
    if len(tokens) < 4 or tokens[0] != "P2":
        raise ContractError(f"not a plain PGM: {path}")
    try:
        w, h, maxval = (int(t) for t in tokens[1:4])
        values = np.array(tokens[4:], dtype=np.int64)
    except ValueError as exc:
        raise ContractError(f"non-integer token in PGM {path}: {exc}") from None
    if maxval != 255:
        raise ContractError(f"expected maxval 255, got {maxval}")
    if w < 1 or h < 1 or values.size != w * h:
        raise ContractError(f"PGM pixel count mismatch in {path}: "
                            f"header says {w}x{h}, body has {values.size} values")
    if values.min() < 0 or values.max() > maxval:
        raise ContractError(f"PGM pixel value outside 0..{maxval} in {path}")
    return values.reshape(h, w)
