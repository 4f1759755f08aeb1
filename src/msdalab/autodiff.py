"""Dense float64 tensors with reverse-mode automatic differentiation.

Small on purpose: exactly the operations the adaptation models and losses
need. Everything runs in 64-bit so finite-difference gradient checks are
reliable. Convolution is valid (unpadded) only, and the only implicit
broadcast allowed between tensors is adding a row bias to a matrix; any
other shape mismatch raises ShapeError instead of silently broadcasting.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ContractError(ValueError):
    """An operation was called in a way its contract forbids."""


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``grad`` holds the accumulated same-shape gradient. A tensor created
    with ``requires_grad`` (a leaf) starts with a zero buffer; the output
    of a tracked operation starts with ``None`` and ``backward`` gives it
    an array on first write. ``backward`` adds to it and never clears it
    (call ``zero_grad``). The array may be shared with other nodes'
    gradients, so it is replaced rather than written in place.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar; the free functions do the real work
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _Record:
    """One tracked primitive: its output, inputs, and adjoint rule."""

    __slots__ = ("out", "parents", "fn")

    def __init__(self, out: Tensor, parents: tuple, fn: Callable):
        self.out = out
        self.parents = parents
        # fn(out_grad) -> tuple of per-parent gradient arrays (None where untracked)
        self.fn = fn


class ComputationTape:
    """Ordered record of tracked operations; replayed in reverse by backward."""

    def __init__(self):
        self.records: list[_Record] = []

    def record(self, out: Tensor, parents: tuple, fn: Callable) -> None:
        self.records.append(_Record(out, parents, fn))

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


_TAPE = ComputationTape()
_GRAD_ENABLED = True


def active_tape() -> ComputationTape:
    """The tape new tracked operations record onto."""
    return _TAPE


@contextlib.contextmanager
def scoped_tape():
    """Swap in a fresh tape; on exit the previous tape is restored.

    Training loops wrap each forward/backward cycle in one of these so the
    graph of an iteration is dropped wholesale.
    """
    global _TAPE
    prev = _TAPE
    _TAPE = ComputationTape()
    try:
        yield _TAPE
    finally:
        _TAPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable recording; ops run forward-only and return untracked tensors."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _emit(out_data, parents: tuple, fn: Callable) -> Tensor:
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True  # grad stays None until backward writes it
        _TAPE.record(out, parents, fn)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into the grad buffer of every tracked node.

    ``loss`` must be a single-element tensor produced by tracked operations
    on the active tape. Repeated calls without zeroing keep accumulating.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad; nothing to differentiate")

    records = _TAPE.records
    last = next((i for i in range(len(records) - 1, -1, -1) if records[i].out is loss), None)
    if last is None:
        raise ContractError("loss was not produced by tracked operations on the active tape")

    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}

    # An adjoint array may be held by several nodes at once (``add`` hands
    # the same ``g`` to both parents, and it is also ``out.grad``), so it is
    # stored by reference and never updated in place.
    def put(t: Tensor, g) -> None:
        if not t.requires_grad:
            return
        g = np.asarray(g, dtype=np.float64)
        key = id(t)
        prev = adjoint.get(key)
        if prev is None:
            adjoint[key] = g
            holders[key] = t
        else:
            adjoint[key] = prev + g

    # tape order is topological: walking it backwards from the loss reaches
    # every node after all its consumers; records no adjoint reached are skipped
    for rec in reversed(records[: last + 1]):
        g = adjoint.pop(id(rec.out), None)
        if g is None:
            continue
        _accumulate(rec.out, g)
        for parent, pg in zip(rec.parents, rec.fn(g)):
            if pg is not None:
                put(parent, pg)

    # whatever is left belongs to leaves (parameters, inputs)
    for key, g in adjoint.items():
        _accumulate(holders[key], g)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. Shapes must match, or ``b`` is a scalar or a
    length-n row bias added to an (m, n) matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        return _emit(a.data + b.data, (a, b), lambda g: (g, g))
    if b.ndim == 0:
        return _emit(a.data + b.data, (a, b), lambda g: (g, np.asarray(g.sum())))
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return _emit(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _emit(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match or ``b`` is a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        return _emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
    if b.ndim == 0:
        return _emit(a.data * b.data, (a, b), lambda g: (g * b.data, np.asarray((g * a.data).sum())))
    raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")


def reciprocal(a: Tensor) -> Tensor:
    """1/a for single-element tensors (used for dividing by tracked scalars)."""
    a = _as_tensor(a)
    if a.size != 1:
        raise ShapeError(f"reciprocal is scalar-only, got shape {a.shape}")
    inv = 1.0 / a.data
    return _emit(inv, (a,), lambda g: (-g * inv * inv,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return _emit(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got {a.shape}")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None, scalar output) or one axis."""
    a = _as_tensor(a)
    if axis is None:
        return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))
    ax = axis

    def back(g):
        return (np.broadcast_to(np.expand_dims(g, ax), a.shape).copy(),)

    return _emit(a.data.sum(axis=ax), (a,), back)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    return mul(tsum(a, axis), 1.0 / n)


def texp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g: (g * out,))


def tlog(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _emit(np.log(a.data), (a,), lambda g: (g / a.data,))


def tabs(a: Tensor) -> Tensor:
    """Elementwise |a|; the subgradient at 0 is taken to be 0."""
    a = _as_tensor(a)
    return _emit(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); derivative at exactly 0 is 0. NaN passes through."""
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)
    return _emit(out, (x,), lambda g: (g * (out > 0),))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of an (m, c) tensor; every output row sums to 1."""
    x = _as_tensor(x)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"softmax_rows needs an (m, c) tensor with c >= 1, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def back(g):
        return ((g - (g * s).sum(axis=1, keepdims=True)) * s,)

    return _emit(s, (x,), back)


def log_sum_exp_rows(x: Tensor) -> Tensor:
    """Numerically stable log(sum(exp(row))) for each row of an (m, c) tensor."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"log_sum_exp_rows needs a rank-2 tensor, got {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    denom = e.sum(axis=1, keepdims=True)
    out = (m + np.log(denom)).reshape(-1)
    soft = e / denom

    def back(g):
        return (g[:, None] * soft,)

    return _emit(out, (x,), back)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes of a (b, c, h, w) tensor, giving (b, c)."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool needs a (b, c, h, w) tensor, got {x.shape}")
    b, c, h, w = x.shape
    scale = 1.0 / (h * w)

    def back(g):
        return (np.broadcast_to((g * scale)[:, :, None, None], x.shape).copy(),)

    return _emit(x.data.mean(axis=(2, 3)), (x,), back)


def center_per_sample(x: Tensor) -> Tensor:
    """Subtract each sample's mean over (channel, h, w) from a 4-d batch."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"center_per_sample needs a (b, c, h, w) tensor, got {x.shape}")
    mean = x.data.mean(axis=(1, 2, 3), keepdims=True)

    def back(g):
        return (g - g.mean(axis=(1, 2, 3), keepdims=True),)

    return _emit(x.data - mean, (x,), back)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """Valid (unpadded) 2-d convolution.

    Args:
        x: input of shape (batch, c_in, h, w).
        kernel: filters of shape (c_out, c_in, kh, kw).
        stride: positive step between windows.

    Returns:
        (batch, c_out, h', w') with h' = floor((h - kh)/stride) + 1.

    Layout: ``x`` is copied once, channel-major, into a (c_in, b*h*w + reach)
    buffer with ``reach = (kh-1)*w + kw-1`` zero columns at the end. Tap
    (i, j) of every output position is then the contiguous slice starting at
    ``i*w + j``, so ``cols`` (c_in*kh*kw, b*h*w) is built from kh*kw slice
    copies and the forward pass is one GEMM. Outputs are computed at every
    input position and cropped to the valid, strided ones. ``cols`` holds
    about c_in*kh*kw*b*h*w float64 (8 bytes each) and lives on the tape
    until the graph is dropped, since dK needs it.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input and kernel, got {x.shape} and {kernel.shape}")
    b, cin, h, w = x.shape
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {kcin}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    if not isinstance(stride, int) or stride < 1:
        raise ContractError(f"conv2d: stride must be a positive integer, got {stride!r}")

    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    n = b * h * w
    offsets = [i * w + j for i in range(kh) for j in range(kw)]
    flat = np.empty((cin, n + offsets[-1]))  # offsets[-1] is the reach
    flat[:, :n].reshape(cin, b, h, w)[...] = x.data.transpose(1, 0, 2, 3)
    flat[:, n:] = 0.0
    cols = np.empty((cin, kh * kw, n))
    for t, off in enumerate(offsets):
        cols[:, t] = flat[:, off : off + n]
    cols = cols.reshape(cin * kh * kw, n)
    wmat = kernel.data.reshape(cout, cin * kh * kw)
    # rows and columns of the valid, strided outputs inside the full grid
    valid = (slice(None), slice(None), slice(0, stride * oh, stride), slice(0, stride * ow, stride))
    full = (wmat @ cols).reshape(cout, b, h, w)
    out = np.ascontiguousarray(full[valid].transpose(1, 0, 2, 3))

    def back(g):
        g_full = np.zeros((cout, b, h, w))
        g_full[valid] = g.transpose(1, 0, 2, 3)
        g_full = g_full.reshape(cout, n)
        gk = gx = None
        if kernel.requires_grad:
            gk = (g_full @ cols.T).reshape(kernel.shape)
        if x.requires_grad:
            gcols = (wmat.T @ g_full).reshape(cin, kh * kw, n)
            # a valid output at p reads x at p + off < n, so the tail of each
            # shifted slice holds only invalid outputs, whose adjoint is zero
            gflat = gcols[:, 0].copy()
            for t, off in enumerate(offsets[1:], start=1):
                gflat[:, off:] += gcols[:, t, : n - off]
            gx = np.ascontiguousarray(gflat.reshape(cin, b, h, w).transpose(1, 0, 2, 3))
        return (gx, gk)

    return _emit(out, (x, kernel), back)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias (c,) to a (b, c, h, w) activation."""
    x, bias = _as_tensor(x), _as_tensor(bias)
    if x.ndim != 4 or bias.ndim != 1 or bias.shape[0] != x.shape[1]:
        raise ShapeError(f"add_channel_bias: got activation {x.shape} and bias {bias.shape}")
    return _emit(x.data + bias.data[None, :, None, None], (x, bias), lambda g: (g, g.sum(axis=(0, 2, 3))))


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack two (n, d) / (m, d) tensors into an (n+m, d) tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    n = a.shape[0]
    return _emit(np.concatenate([a.data, b.data], axis=0), (a, b), lambda g: (g[:n], g[n:]))


def take(a: Tensor, flat_indices) -> Tensor:
    """Gather elements by flat (row-major) index into a 1-d tensor."""
    a = _as_tensor(a)
    idx = np.asarray(flat_indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.size):
        raise ShapeError(f"take: index out of range for {a.size} elements")
    flat = a.data.reshape(-1)

    def back(g):
        gx = np.zeros_like(flat)
        np.add.at(gx, idx, g)
        return (gx.reshape(a.shape),)

    return _emit(flat[idx].copy(), (a,), back)


def pairwise_sq_dists(x: Tensor, y: Tensor) -> Tensor:
    """All squared Euclidean distances between rows of x (n, d) and y (m, d).

    When both arguments are the same tensor the diagonal is exactly zero.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"pairwise_sq_dists: incompatible shapes {x.shape} and {y.shape}")
    xx = (x.data * x.data).sum(axis=1)
    yy = (y.data * y.data).sum(axis=1)
    d = np.maximum(xx[:, None] + yy[None, :] - 2.0 * (x.data @ y.data.T), 0.0)
    if x is y:
        np.fill_diagonal(d, 0.0)

    def back(g):
        rx = g.sum(axis=1)
        ry = g.sum(axis=0)
        gx = gy = None
        if x.requires_grad:
            gx = 2.0 * (rx[:, None] * x.data - g @ y.data)
        if y.requires_grad:
            gy = 2.0 * (ry[:, None] * y.data - g.T @ x.data)
        return (gx, gy)

    return _emit(d, (x, y), back)


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    tensor computed from ``params``. Existing grad buffers are cleared.

    Returns:
        max over all parameter coordinates of
        |analytic - numeric| / max(1, |analytic|).
    """
    if not eps > 0.0:
        raise ContractError(f"finite_difference_check: eps must be positive, got {eps}")
    params = list(params)
    zero_grads(params)
    with scoped_tape():
        backward(f())
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = f().item()
                flat[i] = orig - eps
                down = f().item()
                flat[i] = orig
                numeric = (up - down) / (2.0 * eps)
                err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
                if err > worst:
                    worst = err
    return worst


def as_scalar(value: float) -> Tensor:
    """Untracked 0-d constant."""
    return Tensor(np.asarray(float(value)))


def parameter(data) -> Tensor:
    """Tracked tensor initialized from ``data`` (copied)."""
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def uniform_parameter(shape: tuple, fan_in: int, rng: np.random.Generator) -> Tensor:
    """Fan-in scaled uniform init, U(-b, b) with b = sqrt(6 / fan_in).

    The sqrt(6) factor keeps activation variance roughly stable through
    relu stacks, which matters here because training budgets are short.
    """
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
