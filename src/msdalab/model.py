"""Shared-extractor / per-source-branch convolutional model.

One feature extractor is shared by every domain; each labeled source gets
its own branch (conv + relu, global average pool, affine) and its own
affine classifier. Target predictions average the branch softmax outputs.

Architecture (valid convolutions, no padding):
    shared:   conv 3x3 -> 8 maps, relu; conv 3x3 -> 16 maps, relu
    branch j: conv 3x3 -> 16 maps, relu; GAP; affine 16 -> 16
    head j:   affine 16 -> num_classes

A batch that every branch sees (the target batch in training, and every
batch in ``predict``) goes through the shared extractor once and fans out
to the branches (``forward_all``). The branch kernels are stacked on the
output-channel axis for every such batch, under grad too, so all branch
convolutions run as one convolution. Source batches, which only their own
branch sees, keep ``forward_branch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ContractError,
    ShapeError,
    Tensor,
    add,
    add_channel_bias,
    center_per_sample,
    concat,
    conv2d,
    global_avg_pool,
    matmul,
    no_grad,
    relu,
    slice_cols,
    softmax_rows,
    uniform_parameter,
)
from .data import read_header
from .seeding import rng_for

SHARED_MAPS_1 = 8
SHARED_MAPS_2 = 16
BRANCH_MAPS = 16
FEATURE_DIM = 16
KERNEL = 3
CONV_STAGES = 3  # two shared + one per branch


@dataclass
class BranchOutput:
    """Activations of one branch: features feed the alignment losses,
    probs feed the class-discrepancy loss."""

    features: Tensor
    logits: Tensor
    probs: Tensor


class MsdaModel:
    """Parameter registry plus forward passes for the branched CNN."""

    def __init__(self, num_sources: int, num_classes: int, image_spec: tuple, params: dict):
        self.num_sources = num_sources
        self.num_classes = num_classes
        self.image_spec = tuple(int(v) for v in image_spec)
        self.params = params  # insertion-ordered name -> Tensor

    def parameters(self) -> list:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]


def build_model(num_sources: int, num_classes: int, image_spec=(1, 28, 28), seed: int = 0) -> MsdaModel:
    """Deterministically initialized model.

    Weights are fan-in scaled uniform, biases zero. The image must admit
    three valid 3x3 convolutions (height and width >= 7). The forward pass
    subtracts each sample's mean intensity before the first convolution so
    the stack keys on structure rather than absolute brightness.
    """
    if num_sources < 1:
        raise ContractError(f"need at least one source branch, got {num_sources}")
    if num_classes < 2:
        raise ContractError(f"need at least two classes, got {num_classes}")
    channels, h, w = (int(v) for v in image_spec)
    shrink = CONV_STAGES * (KERNEL - 1)
    if h - shrink < 1 or w - shrink < 1:
        raise ShapeError(f"image {h}x{w} too small for {CONV_STAGES} valid {KERNEL}x{KERNEL} convolutions")

    rng = rng_for(seed, "model-init")
    params: dict = {}

    def conv_block(prefix: str, c_in: int, c_out: int):
        params[f"{prefix}.weight"] = uniform_parameter(
            (c_out, c_in, KERNEL, KERNEL), c_in * KERNEL * KERNEL, rng
        )
        params[f"{prefix}.bias"] = Tensor(np.zeros(c_out), requires_grad=True)

    def affine_block(prefix: str, d_in: int, d_out: int):
        params[f"{prefix}.weight"] = uniform_parameter((d_in, d_out), d_in, rng)
        params[f"{prefix}.bias"] = Tensor(np.zeros(d_out), requires_grad=True)

    conv_block("shared.conv1", channels, SHARED_MAPS_1)
    conv_block("shared.conv2", SHARED_MAPS_1, SHARED_MAPS_2)
    for j in range(num_sources):
        conv_block(f"branch{j}.conv", SHARED_MAPS_2, BRANCH_MAPS)
        affine_block(f"branch{j}.fc", BRANCH_MAPS, FEATURE_DIM)
        affine_block(f"branch{j}.cls", FEATURE_DIM, num_classes)
    return MsdaModel(num_sources, num_classes, image_spec, params)


def _check_input(model: MsdaModel, x: Tensor) -> None:
    c, h, w = model.image_spec
    if x.ndim != 4 or x.shape[1:] != (c, h, w):
        raise ShapeError(f"expected input (batch, {c}, {h}, {w}), got {x.shape}")


def _shared_forward(model: MsdaModel, x: Tensor) -> Tensor:
    p = model.params
    h = relu(add_channel_bias(conv2d(center_per_sample(x), p["shared.conv1.weight"]), p["shared.conv1.bias"]))
    return relu(add_channel_bias(conv2d(h, p["shared.conv2.weight"]), p["shared.conv2.bias"]))


def _branch_maps(model: MsdaModel, shared: Tensor, j: int) -> Tensor:
    p = model.params
    return relu(add_channel_bias(conv2d(shared, p[f"branch{j}.conv.weight"]), p[f"branch{j}.conv.bias"]))


def _stacked_maps(model: MsdaModel, shared: Tensor) -> Tensor:
    """Every branch's maps from one convolution with the stacked branch kernels."""
    p = model.params
    convs = [f"branch{j}.conv" for j in range(model.num_sources)]
    kernel = concat([p[f"{c}.weight"] for c in convs])
    bias = concat([p[f"{c}.bias"] for c in convs])
    return relu(add_channel_bias(conv2d(shared, kernel), bias))


def _branch_head(model: MsdaModel, pooled: Tensor, j: int) -> BranchOutput:
    """Affine feature map and classifier of branch ``j`` on its pooled maps."""
    p = model.params
    features = add(matmul(pooled, p[f"branch{j}.fc.weight"]), p[f"branch{j}.fc.bias"])
    logits = add(matmul(features, p[f"branch{j}.cls.weight"]), p[f"branch{j}.cls.bias"])
    return BranchOutput(features=features, logits=logits, probs=softmax_rows(logits))


def feature_maps(model: MsdaModel, x: Tensor, j: int) -> Tensor:
    """Last pre-GAP convolutional activation of branch ``j``, (b, k, h', w')."""
    _check_branch(model, j)
    _check_input(model, x)
    return _branch_maps(model, _shared_forward(model, x), j)


def _check_branch(model: MsdaModel, j: int) -> None:
    if not 0 <= j < model.num_sources:
        raise ContractError(f"branch index {j} out of range for {model.num_sources} branches")


def forward_branch(model: MsdaModel, x: Tensor, j: int) -> BranchOutput:
    """Run input images through the shared extractor and branch ``j``."""
    return _branch_head(model, global_avg_pool(feature_maps(model, x, j)), j)


def forward_all(model: MsdaModel, x: Tensor) -> list:
    """``forward_branch`` for every branch, with one shared-extractor pass
    and one stacked branch convolution.

    Element ``j`` equals ``forward_branch(model, x, j)`` exactly.
    """
    _check_input(model, x)
    pooled = global_avg_pool(_stacked_maps(model, _shared_forward(model, x)))
    k = BRANCH_MAPS
    return [_branch_head(model, slice_cols(pooled, j * k, (j + 1) * k), j)
            for j in range(model.num_sources)]


def all_feature_maps(model: MsdaModel, x: Tensor) -> np.ndarray:
    """Pre-GAP maps of every branch, untracked, (b, branches * k, h', w').

    Channels ``j*k .. (j+1)*k - 1`` equal ``feature_maps(model, x, j)``. The
    shared extractor and the stacked branch convolution each run once.
    """
    _check_input(model, x)
    with no_grad():
        return _stacked_maps(model, _shared_forward(model, x)).data


def predict(model: MsdaModel, x: Tensor):
    """Ensemble prediction over branches.

    Returns (labels, avg_probs) where avg_probs is the uniform mean of the
    branch softmax outputs and labels is the per-row argmax, ties broken
    toward the lower class index. A row that is not finite (one NaN pixel
    makes it so) raises ContractError naming the rows, instead of being
    labelled.
    """
    with no_grad():
        outs = forward_all(model, x)
    acc = sum((out.probs.data for out in outs[1:]), outs[0].probs.data)
    avg = Tensor(acc / model.num_sources)
    bad = np.flatnonzero(~np.isfinite(avg.data).all(axis=1))
    if bad.size:
        raise ContractError(f"non-finite class probabilities in rows {bad.tolist()}")
    labels = [int(i) for i in np.argmax(avg.data, axis=1)]
    return labels, avg


# ---------------------------------------------------------------------------
# checkpoint format: text header, then raw little-endian float64 blocks
#
#   MSDACKPT 1
#   num_sources <N>
#   num_classes <c>
#   image <channels> <h> <w>
#   center_input 1          (fixed: every model centres its input)
#   param <name> <ndim> <d0> ... <byte offset>
#   ...
#   END\n
#   <binary parameter data in header order>

_MAGIC = "MSDACKPT 1"
_META_ARITY = {"num_sources": 1, "num_classes": 1, "image": 3, "center_input": 1}


def save_checkpoint(model: MsdaModel, path) -> None:
    lines = [_MAGIC,
             f"num_sources {model.num_sources}",
             f"num_classes {model.num_classes}",
             "image " + " ".join(str(v) for v in model.image_spec),
             "center_input 1"]
    blobs = []
    offset = 0
    for name, t in model.params.items():
        blob = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        fields = ["param", name, str(t.ndim), *[str(d) for d in t.shape], str(offset)]
        lines.append(" ".join(fields))
        blobs.append(blob)
        offset += len(blob)
    header = "\n".join(lines) + "\nEND\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> MsdaModel:
    """Read a file written by ``save_checkpoint``. A malformed or missing header
    line, a ``center_input`` value other than 1, a missing, repeated or unknown
    parameter, an offset gap and a short or long body raise ContractError.
    Header lines with other keys are ignored."""
    header, body = read_header(path, _MAGIC)
    meta = {}
    entries = []
    for line in header:
        fields = line.split()
        try:
            if fields[0] == "param":  # param <name> <ndim> <d0> ... <offset>
                values = [int(v) for v in fields[2:]]
                if not 0 <= values[0] == len(values) - 2:
                    raise ValueError
                entries.append((fields[1], tuple(values[1:-1]), values[-1]))
            elif fields[0] in _META_ARITY:
                meta[fields[0]] = [int(v) for v in fields[1:]]
                if len(meta[fields[0]]) != _META_ARITY[fields[0]]:
                    raise ValueError
        except (IndexError, ValueError):
            raise ContractError(f"{path}: malformed header line {line!r}") from None
    for key in ("num_sources", "num_classes", "image"):
        if key not in meta:
            raise ContractError(f"{path}: header has no {key!r} line")
    if meta.get("center_input", [1]) != [1]:
        raise ContractError(f"{path}: center_input is {meta['center_input'][0]}, but every model "
                            "centres its input (center_input 1)")
    model = build_model(meta["num_sources"][0], meta["num_classes"][0], tuple(meta["image"]), seed=0)
    loaded = set()
    end = 0
    for name, dims, offset in entries:
        if name not in model.params:
            raise ContractError(f"{path}: unknown parameter {name!r}")
        if name in loaded:
            raise ContractError(f"{path}: parameter {name!r} appears twice")
        loaded.add(name)
        if model.params[name].shape != dims:
            raise ShapeError(f"{path}: parameter {name} has shape {dims}, expected {model.params[name].shape}")
        if offset != end:
            raise ContractError(f"{path}: parameter {name!r} starts at byte {offset}, expected {end}")
        count = model.params[name].size
        end = offset + 8 * count
        if end > len(body):
            raise ContractError(f"{path}: body of {len(body)} bytes ends inside parameter {name!r}")
        values = np.frombuffer(body, dtype="<f8", count=count, offset=offset).reshape(dims)
        model.params[name].data = values.astype(np.float64, copy=True)
        model.params[name].grad = np.zeros_like(model.params[name].data)
    for name in model.params:
        if name not in loaded:
            raise ContractError(f"{path}: no parameter {name!r}")
    if end != len(body):
        raise ContractError(f"{path}: {len(body) - end} bytes follow the last parameter "
                            f"{entries[-1][0]!r}")
    return model
