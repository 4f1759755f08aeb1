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
to the branches (``forward_all``). Without a tape, ``all_feature_maps``
also stacks the branch kernels on the output-channel axis, so all branch
convolutions run as one convolution.
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
    conv2d,
    global_avg_pool,
    matmul,
    no_grad,
    relu,
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

    def __init__(self, num_sources: int, num_classes: int, image_spec: tuple, params: dict,
                 center_input: bool = True):
        self.num_sources = num_sources
        self.num_classes = num_classes
        self.image_spec = tuple(int(v) for v in image_spec)
        self.params = params  # insertion-ordered name -> Tensor
        self.center_input = center_input

    def parameters(self) -> list:
        return list(self.params.values())

    def param_names(self) -> list:
        return list(self.params.keys())

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]


def build_model(num_sources: int, num_classes: int, image_spec=(1, 28, 28), seed: int = 0,
                center_input: bool = True) -> MsdaModel:
    """Deterministically initialized model.

    Weights are fan-in scaled uniform, biases zero. The image must admit
    three valid 3x3 convolutions (height and width >= 7). ``center_input``
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
    return MsdaModel(num_sources, num_classes, image_spec, params, center_input=center_input)


def _check_input(model: MsdaModel, x: Tensor) -> None:
    c, h, w = model.image_spec
    if x.ndim != 4 or x.shape[1:] != (c, h, w):
        raise ShapeError(f"expected input (batch, {c}, {h}, {w}), got {x.shape}")


def _shared_forward(model: MsdaModel, x: Tensor) -> Tensor:
    p = model.params
    if model.center_input:
        x = center_per_sample(x)
    h = relu(add_channel_bias(conv2d(x, p["shared.conv1.weight"]), p["shared.conv1.bias"]))
    return relu(add_channel_bias(conv2d(h, p["shared.conv2.weight"]), p["shared.conv2.bias"]))


def _branch_maps(model: MsdaModel, shared: Tensor, j: int) -> Tensor:
    p = model.params
    return relu(add_channel_bias(conv2d(shared, p[f"branch{j}.conv.weight"]), p[f"branch{j}.conv.bias"]))


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
    """``forward_branch`` for every branch, with one shared-extractor pass.

    Element ``j`` equals ``forward_branch(model, x, j)`` exactly.
    """
    _check_input(model, x)
    shared = _shared_forward(model, x)
    return [_branch_head(model, global_avg_pool(_branch_maps(model, shared, j)), j)
            for j in range(model.num_sources)]


def all_feature_maps(model: MsdaModel, x: Tensor) -> np.ndarray:
    """Pre-GAP maps of every branch, untracked, (b, branches * k, h', w').

    Channels ``j*k .. (j+1)*k - 1`` equal ``feature_maps(model, x, j)``. The
    branch kernels are stacked on the output-channel axis, so the shared
    extractor and the branch convolutions each run once.
    """
    _check_input(model, x)
    p = model.params
    convs = [f"branch{j}.conv" for j in range(model.num_sources)]
    with no_grad():
        shared = _shared_forward(model, x)
        kernel = Tensor(np.concatenate([p[f"{c}.weight"].data for c in convs]))
        bias = Tensor(np.concatenate([p[f"{c}.bias"].data for c in convs]))
        return relu(add_channel_bias(conv2d(shared, kernel), bias)).data


def predict(model: MsdaModel, x: Tensor):
    """Ensemble prediction over branches.

    Returns (labels, avg_probs) where avg_probs is the uniform mean of the
    branch softmax outputs and labels is the per-row argmax, ties broken
    toward the lower class index. A row that is not finite (one NaN pixel
    makes it so) raises ContractError naming the rows, instead of being
    labelled.
    """
    pooled = all_feature_maps(model, x).mean(axis=(2, 3))
    with no_grad():
        acc = None
        for j in range(model.num_sources):
            cols = pooled[:, j * BRANCH_MAPS : (j + 1) * BRANCH_MAPS]
            probs = _branch_head(model, Tensor(cols), j).probs
            acc = probs if acc is None else add(acc, probs)
        avg = Tensor(acc.data / model.num_sources)
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
#   param <name> <ndim> <d0> ... <byte offset>
#   ...
#   END\n
#   <binary parameter data in header order>

_MAGIC = "MSDACKPT 1"


def save_checkpoint(model: MsdaModel, path) -> None:
    lines = [_MAGIC,
             f"num_sources {model.num_sources}",
             f"num_classes {model.num_classes}",
             "image " + " ".join(str(v) for v in model.image_spec),
             f"center_input {int(model.center_input)}"]
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
    header, body = read_header(path, _MAGIC)
    meta = {}
    entries = []
    for line in header:
        fields = line.split()
        if fields[0] == "param":
            name = fields[1]
            ndim = int(fields[2])
            dims = tuple(int(v) for v in fields[3 : 3 + ndim])
            offset = int(fields[3 + ndim])
            entries.append((name, dims, offset))
        else:
            meta[fields[0]] = fields[1:]
    model = build_model(
        int(meta["num_sources"][0]),
        int(meta["num_classes"][0]),
        tuple(int(v) for v in meta["image"]),
        seed=0,
        center_input=bool(int(meta.get("center_input", ["1"])[0])),
    )
    for name, dims, offset in entries:
        count = int(np.prod(dims)) if dims else 1
        values = np.frombuffer(body, dtype="<f8", count=count, offset=offset).reshape(dims)
        if name not in model.params:
            raise ContractError(f"checkpoint has unknown parameter {name!r}")
        if model.params[name].shape != dims:
            raise ShapeError(f"checkpoint parameter {name} has shape {dims}, expected {model.params[name].shape}")
        model.params[name].data = values.astype(np.float64, copy=True)
        model.params[name].grad = np.zeros_like(model.params[name].data)
    return model
