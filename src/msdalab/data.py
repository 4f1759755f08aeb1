"""Synthetic multi-domain stamp-legibility datasets.

Each domain imitates one production site photographing the same printed
date stamp under its own conditions: background brightness, box blur,
sensor noise, label rotation and print contrast. Images are 28x28 single
channel in [0, 1]. Labels are binary: 0 = legible stamp (OK), 1 = degraded
stamp (NOT-OK). A NOT-OK image carries the same glyph, spoiled by one of
three defects (extra blur, weak print, partial occlusion) before the
domain conditions are applied, so that the task is legibility, not glyph
identity.

Generation is a pure function of (spec, n, seed); every spec field
influences the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d

from .autodiff import ContractError, ShapeError
from .seeding import rng_for

IMAGE_SIDE = 28
IMAGE_SHAPE = (1, IMAGE_SIDE, IMAGE_SIDE)

# the glyph lives in the top-left image quadrant
QUADRANT = 14
GLYPH_BOX = 11
GLYPH_BASE = (2, 2)
OFFSET_JITTER = 1
BACKGROUND_JITTER = 0.15  # multiplicative, per sample
OCCLUSION_SIDE = 6  # 36 of 121 box pixels, ~30%
WEAK_PRINT_FACTOR = 0.4
EXTRA_BLUR_FACTOR = 2.0


@dataclass(frozen=True)
class DomainSpec:
    """Rendering parameters of one synthetic capture site."""

    name: str
    background_level: float = 0.3
    blur_radius: float = 0.5
    noise_sigma: float = 0.05
    rotation_degrees: float = 0.0
    glyph_contrast: float = 0.85

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ContractError(f"domain name must be a non-empty token, got {self.name!r}")
        if not 0.0 <= self.background_level <= 1.0:
            raise ContractError(f"background_level must be in [0, 1], got {self.background_level}")
        for name, v in (("blur_radius", self.blur_radius), ("noise_sigma", self.noise_sigma)):
            if not 0.0 <= v < math.inf:
                raise ContractError(f"{name} must be finite and >= 0, got {v}")
        if not math.isfinite(self.rotation_degrees):
            raise ContractError(f"rotation_degrees must be finite, got {self.rotation_degrees}")
        if not 0.0 < self.glyph_contrast <= 1.0:
            raise ContractError(f"glyph_contrast must be in (0, 1], got {self.glyph_contrast}")


def default_roster() -> list[DomainSpec]:
    """Six capture sites with deliberately spread conditions."""
    return [
        DomainSpec("Ab", background_level=0.15, blur_radius=0.35, noise_sigma=0.04, rotation_degrees=-2.0, glyph_contrast=0.95),
        DomainSpec("Bu", background_level=0.18, blur_radius=0.45, noise_sigma=0.07, rotation_degrees=4.0, glyph_contrast=0.88),
        DomainSpec("Bo", background_level=0.26, blur_radius=0.55, noise_sigma=0.09, rotation_degrees=-5.0, glyph_contrast=0.80),
        DomainSpec("Li", background_level=0.17, blur_radius=0.55, noise_sigma=0.05, rotation_degrees=2.0, glyph_contrast=0.82),
        DomainSpec("Wi", background_level=0.20, blur_radius=0.50, noise_sigma=0.08, rotation_degrees=-7.0, glyph_contrast=0.85),
        DomainSpec("Os", background_level=0.24, blur_radius=0.52, noise_sigma=0.06, rotation_degrees=6.0, glyph_contrast=0.78),
    ]


@dataclass
class LabeledSet:
    """Images (n, 1, 28, 28) in [0, 1] with int64 labels (0 OK / 1 NOT-OK)."""

    images: np.ndarray
    labels: np.ndarray
    domain_name: str

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"images {self.images.shape} and labels {self.labels.shape} disagree"
            )

    @property
    def n(self) -> int:
        return self.images.shape[0]


@dataclass
class UnlabeledSet:
    """Images only; what training is allowed to see of the target domain."""

    images: np.ndarray
    domain_name: str

    @property
    def n(self) -> int:
        return self.images.shape[0]


def strip_labels(ds: LabeledSet) -> UnlabeledSet:
    return UnlabeledSet(images=ds.images, domain_name=ds.domain_name)


def glyph_mask() -> np.ndarray:
    """Bar-and-dots stamp pattern on an 11x11 box (values 0/1)."""
    m = np.zeros((GLYPH_BOX, GLYPH_BOX))
    m[1:3, 0:11] = 1.0  # date bar
    m[6:8, 0:2] = 1.0   # day group
    m[6:8, 4:6] = 1.0   # month group
    m[6:8, 8:10] = 1.0  # year group
    return m


def _box_blur(img: np.ndarray, radius: float) -> np.ndarray:
    """Separable box blur with fractional radius (outer taps weighted)."""
    if radius <= 0.0:
        return img.copy()
    h = int(np.floor(radius))
    frac = radius - h
    weights = np.ones(2 * h + 1)
    if frac > 0.0:
        weights = np.concatenate([[frac], weights, [frac]])
    weights = weights / weights.sum()
    out = convolve1d(img, weights, axis=0, mode="nearest")
    return convolve1d(out, weights, axis=1, mode="nearest")


@lru_cache(maxsize=64)
def _rotation_map(h: int, w: int, degrees: float):
    """Pixels of an (h, w) image that a rotation about its center keeps,
    and the source pixel of each; read-only, since every caller shares them."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = np.deg2rad(degrees)
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = rows - cy, cols - cx
    src_r = np.rint(np.cos(th) * dy + np.sin(th) * dx + cy).astype(np.intp)
    src_c = np.rint(-np.sin(th) * dy + np.cos(th) * dx + cx).astype(np.intp)
    inside = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    arrays = (inside, src_r[inside], src_c[inside])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _rotate_nearest(img: np.ndarray, degrees: float, fill: float) -> np.ndarray:
    """Nearest-neighbor rotation about the image center; outside -> fill."""
    if degrees == 0.0:
        return img.copy()
    inside, src_r, src_c = _rotation_map(*img.shape, float(degrees))
    out = np.full_like(img, fill)
    out[inside] = img[src_r, src_c]
    return out


def _render_sample(spec: DomainSpec, rng: np.random.Generator, not_ok: bool, mask: np.ndarray) -> np.ndarray:
    offset = rng.integers(-OFFSET_JITTER, OFFSET_JITTER + 1, size=2)
    bg_scale = rng.uniform(1.0 - BACKGROUND_JITTER, 1.0 + BACKGROUND_JITTER)
    defect = int(rng.integers(0, 3))
    occ = rng.integers(0, GLYPH_BOX - OCCLUSION_SIDE + 1, size=2)
    noise = rng.normal(0.0, spec.noise_sigma, size=(IMAGE_SIDE, IMAGE_SIDE))

    r0 = GLYPH_BASE[0] + int(offset[0])
    c0 = GLYPH_BASE[1] + int(offset[1])
    layer = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
    layer[r0 : r0 + GLYPH_BOX, c0 : c0 + GLYPH_BOX] = mask * spec.glyph_contrast

    if not_ok:
        if defect == 0:
            layer = _box_blur(layer, EXTRA_BLUR_FACTOR * spec.blur_radius)
        elif defect == 1:
            layer = layer * WEAK_PRINT_FACTOR
        else:
            layer[r0 + occ[0] : r0 + occ[0] + OCCLUSION_SIDE,
                  c0 + occ[1] : c0 + occ[1] + OCCLUSION_SIDE] = 0.0

    bg = min(spec.background_level * bg_scale, 1.0)
    img = bg + layer * (1.0 - bg)
    img = _rotate_nearest(img, spec.rotation_degrees, fill=bg)
    img = _box_blur(img, spec.blur_radius)
    img = img + noise
    return np.clip(img, 0.0, 1.0)


def generate_domain(spec: DomainSpec, n: int, seed: int) -> LabeledSet:
    """Render a balanced labeled set: first n/2 OK, then n/2 NOT-OK."""
    if n < 2 or n % 2 != 0:
        raise ContractError(f"n must be even and >= 2, got {n}")
    rng = rng_for(seed, "domain", spec.name)
    mask = glyph_mask()
    half = n // 2
    images = np.empty((n, 1, IMAGE_SIDE, IMAGE_SIDE))
    for i in range(n):
        images[i, 0] = _render_sample(spec, rng, not_ok=i >= half, mask=mask)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return LabeledSet(images=images, labels=labels, domain_name=spec.name)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split(ds: LabeledSet, seed: int, stratified: bool = True):
    """70/10/20 train/val/test partition, label-stratified by default.

    Pass ``stratified=False`` for target domains: their labels are not
    supposed to influence anything upstream of final evaluation, so their
    partition must not depend on them.
    """
    if ds.n < 10:
        raise ContractError(f"split needs at least 10 samples, got {ds.n}")
    rng = rng_for(seed, "split", ds.domain_name)
    groups = [np.flatnonzero(ds.labels == lbl) for lbl in np.unique(ds.labels)] if stratified \
        else [np.arange(ds.n)]
    train_idx, val_idx, test_idx = [], [], []
    for idx in groups:
        idx = rng.permutation(idx)
        m = idx.size
        n_test = _round_half_up(0.2 * m)
        n_val = _round_half_up(0.1 * m)
        n_train = m - n_val - n_test
        train_idx.append(idx[:n_train])
        val_idx.append(idx[n_train : n_train + n_val])
        test_idx.append(idx[n_train + n_val :])

    def subset(parts):
        sel = np.concatenate(parts)
        return LabeledSet(ds.images[sel], ds.labels[sel], ds.domain_name)

    return subset(train_idx), subset(val_idx), subset(test_idx)


def combine_sources(sets: list) -> LabeledSet:
    """Concatenate several labeled sets into one pooled source domain."""
    if len(sets) < 2:
        raise ContractError(f"combine_sources needs at least 2 sets, got {len(sets)}")
    shape = sets[0].images.shape[1:]
    for ds in sets:
        if ds.images.shape[1:] != shape:
            raise ShapeError(f"image shapes disagree: {ds.images.shape[1:]} vs {shape}")
    name = "combined(" + "+".join(ds.domain_name for ds in sets) + ")"
    return LabeledSet(
        np.concatenate([ds.images for ds in sets]),
        np.concatenate([ds.labels for ds in sets]),
        name,
    )


def epoch_permutation(n: int, name: str, seed: int, epoch: int) -> np.ndarray:
    """Shuffle order for one epoch, keyed by (seed, name, epoch)."""
    return rng_for(seed, "batches", name, epoch).permutation(n)


# ---------------------------------------------------------------------------
# dataset files: text header plus raw little-endian blocks
#
#   MSDADATA 1
#   name <domain>
#   n <count>
#   shape <c> <h> <w>
#   labels <count of 0s> <count of 1s> ...
#   END\n
#   <pixels float64 LE><labels int64 LE>

_MAGIC = "MSDADATA 1"


def _label_counts(labels: np.ndarray) -> list:
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return [int((labels == k).sum()) for k in range(n_classes)]


def write_dataset(ds: LabeledSet, path) -> None:
    counts = _label_counts(ds.labels)
    header = "\n".join(
        [
            _MAGIC,
            f"name {ds.domain_name}",
            f"n {ds.n}",
            "shape " + " ".join(str(v) for v in ds.images.shape[1:]),
            "labels " + " ".join(str(c) for c in counts),
        ]
    ) + "\nEND\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(ds.images, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())


def read_header(path, magic: str) -> tuple[list[str], bytes]:
    """Read a file framed as a text header ended by a whole ``END`` line,
    then a binary body. Returns the header lines after ``magic``, and the body."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\nEND\n")
    if end < 0:
        raise ContractError(f"{path}: header has no END line")
    try:
        header = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: header byte {exc.start} is {raw[exc.start]:#04x}, "
                            "not ASCII") from None
    first = header[0] if header else ""
    if first != magic:
        raise ContractError(f"{path}: bad magic {first!r}, expected {magic!r}")
    return header[1:], raw[end + len(b"\nEND\n") :]


def read_dataset(path) -> LabeledSet:
    """Read a file written by ``write_dataset``.

    Raises ContractError, naming the file and the field, for a missing or
    malformed header line, a body whose length disagrees with ``n`` and
    ``shape``, labels outside {0, 1}, or label counts that disagree with
    the ``labels`` line.
    """
    header, body = read_header(path, _MAGIC)
    meta = {fields[0]: fields[1:] for fields in map(str.split, header) if fields}

    def ints(key: str) -> list:
        if key not in meta:
            raise ContractError(f"{path}: header has no {key!r} line")
        try:
            return [int(v) for v in meta[key]]
        except ValueError:
            raise ContractError(f"{path}: {key!r} line is not integers: {meta[key]}") from None

    if not meta.get("name"):
        raise ContractError(f"{path}: header has no 'name' line")
    name = meta["name"][0]
    n_field, shape, counts = ints("n"), tuple(ints("shape")), ints("labels")
    if len(n_field) != 1:
        raise ContractError(f"{path}: 'n' line needs one integer, got {meta['n']}")
    n = n_field[0]
    pixel_count = n * int(np.prod(shape))
    expected = pixel_count * 8 + n * 8
    if len(body) != expected:
        raise ContractError(f"{path}: body has {len(body)} bytes, but 'n' {n} and 'shape' "
                            f"{shape} need {expected}")
    images = np.frombuffer(body, dtype="<f8", count=pixel_count).reshape((n, *shape))
    labels = np.frombuffer(body, dtype="<i8", count=n, offset=pixel_count * 8).astype(np.int64)
    outside = np.flatnonzero((labels != 0) & (labels != 1))
    if outside.size:
        raise ContractError(f"{path}: 'labels' outside {{0, 1}} at rows {outside[:10].tolist()}")
    if _label_counts(labels) != counts:
        raise ContractError(f"{path}: 'labels' line says {counts}, body has {_label_counts(labels)}")
    return LabeledSet(images.astype(np.float64, copy=True), labels, name)
