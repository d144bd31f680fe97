"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps one contiguous float
array, every operation records on its output a backward closure that
takes the output's gradient, and ``Tensor.backward()`` walks the tape in
reverse topological order.  A closure holds the op's inputs and the
buffers its gradient needs, never its own output, so a dropped graph is
freed by reference counting.  ``backward()`` still consumes the graph:
every node it walked drops its parents and its closure, so intermediate
tensors and captured buffers are freed as soon as backpropagation ends,
even while the caller holds the loss.  Only the operations the detection
pipeline needs exist; there is no broadcasting and no GPU path.  Padding
always replicates edges (``conv2d``'s ``pad`` and ``replicate_pad``), so
constant inputs stay constant through every padded convolution.
``no_grad`` stops recording in the current thread only.  Training runs
in float32; gradient-check tests rebuild the same graphs in float64.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, ShapeError

_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar("sanlab_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / constant targets).

    The switch is a context variable, so it holds for this thread (or
    asyncio task) only; other threads keep recording.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """N-dimensional float array, optionally tracked by the autodiff tape.

    ``data`` is row-major; ``grad`` (same shape) is populated by
    ``backward()`` for every tensor with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad) and _grad_enabled.get()
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        The graph is consumed: every node walked loses its parents and its
        backward closure, so intermediate tensors and the buffers the
        closures captured are freed now, not when the caller drops the
        loss.  Calling ``backward()`` again on this graph only resets
        this scalar's own gradient.  Gradients stay on the tensors that
        received them.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        for node in topo:
            node._parents = ()
            node._backward = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable tensor plus its SGD momentum buffer."""

    __slots__ = ("momentum", "name")

    def __init__(self, data, name: str = ""):
        super().__init__(data)
        self.requires_grad = True  # independent of any no_grad scope
        self.momentum = np.zeros_like(self.data)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or '<anon>'}, shape={self.shape})"


def _result(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result; records the tape only when a parent needs grad."""
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# convolution


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _edge_pad(x: np.ndarray, p: int) -> np.ndarray:
    """x with its last two axes padded by p replicated edge elements."""
    n, c, h, w = x.shape
    # interior once, then border columns from the edge columns, then border
    # rows from the padded edge rows: each output element is written once
    out = np.empty((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    body = out[:, :, p : p + h]
    body[:, :, :, p : p + w] = x
    body[:, :, :, :p] = x[:, :, :, :1]
    body[:, :, :, p + w :] = x[:, :, :, w - 1 :]
    out[:, :, :p] = out[:, :, p : p + 1]
    out[:, :, p + h :] = out[:, :, p + h - 1 : p + h]
    return out


def _edge_fold(gp: np.ndarray, p: int) -> np.ndarray:
    """Gradient of `_edge_pad`: border rows, then border columns, folded
    onto the edge they copy (one edge row serves both sides when h == 1)."""
    h = gp.shape[2] - 2 * p
    w = gp.shape[3] - 2 * p
    g = gp[:, :, p : p + h].copy()
    g[:, :, 0] += gp[:, :, :p].sum(axis=2)
    g[:, :, h - 1] += gp[:, :, p + h :].sum(axis=2)
    gx = g[:, :, :, p : p + w].copy()
    gx[:, :, :, 0] += g[:, :, :, :p].sum(axis=3)
    gx[:, :, :, w - 1] += g[:, :, :, p + w :].sum(axis=3)
    return gx


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Columns (n, c*kh*kw, ho*wo) of an already padded map."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, xp_shape, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Sum columns back onto a padded map of shape xp_shape."""
    n, c = xp_shape[:2]
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    xp = np.zeros(xp_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    return xp


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with KCkhkw kernels plus bias.

    ``pad`` replicates edges: the result equals `replicate_pad` followed
    by an unpadded conv, bit for bit, in value and in every gradient, but
    the padded map is scratch, not a tape tensor.  A 1x1, stride-1,
    unpadded conv reads x itself as its columns.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    k, cw, kh, kw = w.shape
    if c != cw:
        raise ShapeError(f"conv2d channel mismatch: input has {c} channels, kernel expects {cw}")
    if b.shape != (k,):
        raise ShapeError(f"conv2d bias must have shape ({k},), got {b.shape}")
    if kh < 1 or kw < 1 or stride < 1 or pad < 0:
        raise ShapeError(f"conv2d invalid geometry kh={kh} kw={kw} stride={stride} pad={pad}")
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(wd, kw, stride, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {h}x{wd} kernel {kh}x{kw} stride {stride} pad {pad}")

    pointwise = kh == kw == stride == 1 and pad == 0
    if pointwise:
        cols = x.data.reshape(n, c, h * wd)
    else:
        xp = _edge_pad(x.data, pad) if pad else x.data
        cols = _im2col(xp, kh, kw, stride, ho, wo)  # (n, c*kh*kw, ho*wo)
        xp_shape = xp.shape
    wm = w.data.reshape(k, c * kh * kw)
    out_data = np.matmul(wm, cols).reshape(n, k, ho, wo)
    out_data += b.data.reshape(1, k, 1, 1)

    def backward(grad_out: np.ndarray):
        g = grad_out.reshape(n, k, ho * wo)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2)))
        if w.requires_grad:
            dwm = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
            w._accumulate(dwm.reshape(w.shape))
        if x.requires_grad:
            dcols = np.matmul(wm.T, g)
            if pointwise:
                x._accumulate(dcols.reshape(x.shape))
            else:
                gp = _col2im(dcols, xp_shape, kh, kw, stride, ho, wo)
                x._accumulate(_edge_fold(gp, pad) if pad else gp)

    return _result(out_data, (x, w, b), backward)


# ---------------------------------------------------------------------------
# pointwise and reduction ops


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""

    def backward(grad_out: np.ndarray):
        x._accumulate(grad_out * (x.data > 0))

    return _result(np.maximum(x.data, 0), (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial plane: NCHW -> NC11."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW, got {x.shape}")
    n, c, h, w = x.shape

    def backward(grad_out: np.ndarray):
        x._accumulate(np.broadcast_to(grad_out / (h * w), x.shape))

    return _result(x.data.mean(axis=(2, 3), keepdims=True), (x,), backward)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two identically shaped tensors."""
    _require_same_shape("add", a, b)

    def backward(grad_out: np.ndarray):
        if a.requires_grad:
            a._accumulate(grad_out)
        if b.requires_grad:
            b._accumulate(grad_out)

    return _result(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)

    def backward(grad_out: np.ndarray):
        if a.requires_grad:
            a._accumulate(grad_out)
        if b.requires_grad:
            b._accumulate(-grad_out)

    return _result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (used for constant loss masks)."""
    _require_same_shape("mul", a, b)

    def backward(grad_out: np.ndarray):
        if a.requires_grad:
            a._accumulate(grad_out * b.data)
        if b.requires_grad:
            b._accumulate(grad_out * a.data)

    return _result(a.data * b.data, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""

    def backward(grad_out: np.ndarray):
        x._accumulate(grad_out * c)

    return _result(x.data * x.data.dtype.type(c), (x,), backward)


def scale_by(x: Tensor, alpha: Tensor) -> Tensor:
    """Multiply a tensor by a scalar tensor (trainable fusion gate)."""
    if alpha.data.size != 1:
        raise ShapeError(f"scale_by expects a scalar multiplier, got shape {alpha.shape}")
    a = alpha.data.reshape(())

    def backward(grad_out: np.ndarray):
        if x.requires_grad:
            x._accumulate(grad_out * a)
        if alpha.requires_grad:
            alpha._accumulate(np.sum(grad_out * x.data).reshape(alpha.shape).astype(alpha.dtype))

    return _result(x.data * a, (x, alpha), backward)


def sum_all(x: Tensor) -> Tensor:
    """Reduce to a 0-d scalar tensor."""

    def backward(grad_out: np.ndarray):
        x._accumulate(np.broadcast_to(grad_out, x.shape))

    return _result(x.data.sum(), (x,), backward)


def sum_rows(x: Tensor) -> Tensor:
    """Per-row sums, (N, ...) -> (N,); row i equals ``sum_all`` of x[i]."""
    n = x.shape[0]

    def backward(grad_out: np.ndarray):
        x._accumulate(np.broadcast_to(grad_out.reshape((n,) + (1,) * (x.data.ndim - 1)), x.shape))

    return _result(x.data.reshape(n, -1).sum(axis=1), (x,), backward)


def sum_in_order(x: Tensor) -> Tensor:
    """Left-to-right sum of a 1-d tensor to a 0-d scalar.

    Rounds exactly like a chain of ``add`` over the entries, which the
    pairwise summation of ``sum_all`` does not.
    """
    if x.data.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"sum_in_order expects a non-empty 1-d tensor, got {x.shape}")

    def backward(grad_out: np.ndarray):
        x._accumulate(np.broadcast_to(grad_out, x.shape))

    return _result(np.asarray(np.add.accumulate(x.data)[-1]), (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.data.size)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(grad_out: np.ndarray):
        x._accumulate(grad_out.reshape(x.shape))

    return _result(x.data.reshape(shape), (x,), backward)


def concat0(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along axis 0 (RoI batching)."""
    if not tensors:
        raise ShapeError("concat0 needs at least one tensor")
    tail = tensors[0].shape[1:]
    for t in tensors:
        if t.shape[1:] != tail:
            raise ShapeError(f"concat0 trailing-shape mismatch: {t.shape[1:]} vs {tail}")
    sizes = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad_out: np.ndarray):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(grad_out[lo:hi])

    return _result(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), backward)


def replicate_pad(x: Tensor, p: int) -> Tensor:
    """Edge-replication padding of the two spatial axes of an NCHW tensor.

    Keeps constant inputs constant through padded convolutions, so feature
    vectors of constant images are scale-invariant.  ``conv2d(pad=p)``
    pads the same way without this tape node.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"replicate_pad expects NCHW, got {x.shape}")
    if p < 0:
        raise ShapeError(f"pad must be non-negative, got {p}")
    if p == 0:
        return x

    def backward(grad_out: np.ndarray):
        x._accumulate(_edge_fold(grad_out, p))

    return _result(_edge_pad(x.data, p), (x,), backward)


def _occurrence_passes(idx: np.ndarray) -> list:
    """Split the positions of ``idx`` into passes of distinct indices.

    Pass k holds, in position order, the k-th occurrence of every index
    that occurs more than k times.  A pass that holds every position is
    the full slice.
    """
    passes: list[list[int]] = []
    seen: dict[int, int] = {}
    for pos, i in enumerate(idx.tolist()):
        k = seen.get(i, 0)
        seen[i] = k + 1
        if k == len(passes):
            passes.append([])
        passes[k].append(pos)
    return [slice(None) if len(sel) == len(idx) else sel for sel in passes]


def take0(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows along axis 0; gradient scatter-adds back.

    The scatter adds each row's gradients in occurrence order, one pass of
    distinct indices per occurrence (a single pass when the indices are
    unique), so the gradient is bitwise that of ``np.add.at``.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take0 index out of range for axis of size {x.shape[0]}")

    def backward(grad_out: np.ndarray):
        g = np.zeros_like(x.data)
        for sel in _occurrence_passes(idx):
            g[idx[sel]] += grad_out[sel]
        x._accumulate(g)

    return _result(x.data[idx], (x,), backward)


def slice1d(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-d tensor; gradient scatters back."""
    if x.data.ndim != 1:
        raise ShapeError(f"slice1d expects a 1-d tensor, got {x.shape}")

    def backward(grad_out: np.ndarray):
        g = np.zeros_like(x.data)
        g[start:stop] = grad_out
        x._accumulate(g)

    return _result(x.data[start:stop].copy(), (x,), backward)


def detach(x: Tensor) -> Tensor:
    """Value-identical tensor that blocks all backward flow through it."""
    return Tensor(x.data, requires_grad=False)


# ---------------------------------------------------------------------------
# resizing (forward only)


@functools.lru_cache(maxsize=256)
def _resample_axis(size: int, out_size: int, dtype):
    """Source rows (lo, hi) and weights of hi for each output row.

    Cached, so all three are read-only.  Training uses a dozen sizes (crops
    snap to the backbone stride); analysis renders windows of arbitrary
    size, hence the bound.
    """
    # align-corners-false convention: sample source at (i + 0.5) * size/out - 0.5
    pos = (np.arange(out_size, dtype=np.float64) + 0.5) * (size / out_size) - 0.5
    pos = np.clip(pos, 0.0, size - 1.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, size - 1)
    frac = (pos - lo).astype(dtype)
    for a in (lo, hi, frac):
        a.flags.writeable = False
    return lo, hi, frac


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear interpolation to (out_h, out_w).

    Forward-only by design: the result never participates in gradients
    (it feeds the constant reference-scale pathway).  Each output element
    is (1-fy) * top + fy * bottom, where top and bottom interpolate its
    two source rows along x; the x pass runs once on every source row and
    the rows are gathered from its result.  A same-size resize returns a
    copy, which is what the formula gives on finite inputs.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects NCHW, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be positive, got {out_h}x{out_w}")
    d = x.data
    n, c, h, w = d.shape
    if (h, w) == (out_h, out_w):
        return Tensor(d.copy())
    y0, y1, fy = _resample_axis(h, out_h, d.dtype)
    x0, x1, fx = _resample_axis(w, out_w, d.dtype)
    rows = d[:, :, :, x0] * (1 - fx) + d[:, :, :, x1] * fx
    out = rows[:, :, y0] * (1 - fy)[:, None] + rows[:, :, y1] * fy[:, None]
    return Tensor(out)


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean of -log softmax(logits)[u] over the batch; max-stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (N, K+1) logits, got {logits.shape}")
    n, k1 = logits.shape
    if len(labels) != n:
        raise ShapeError(f"softmax_cross_entropy got {n} rows but {len(labels)} labels")
    idx = np.asarray(labels, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= k1):
        bad = idx[(idx < 0) | (idx >= k1)][0]
        raise ShapeError(f"label {bad} out of range [0, {k1 - 1}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    log_p = z - np.log(sez)
    loss = -log_p[np.arange(n), idx].mean()

    def backward(grad_out: np.ndarray):
        p = ez / sez
        p[np.arange(n), idx] -= 1
        logits._accumulate(grad_out * p / n)

    return _result(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


def smooth_l1(x: Tensor) -> Tensor:
    """Huber-style robust penalty: 0.5 x^2 inside |x|<1, |x|-0.5 outside."""
    a = np.abs(x.data)
    out_data = np.where(a < 1, 0.5 * x.data * x.data, a - 0.5)

    def backward(grad_out: np.ndarray):
        x._accumulate(grad_out * np.clip(x.data, -1, 1))

    return _result(out_data.astype(x.dtype), (x,), backward)


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(params: Iterable[Parameter], lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """In-place SGD update with momentum and decoupled-from-nothing weight decay.

    buf <- momentum * buf + grad + weight_decay * w;  w <- w - lr * buf.
    Gradients are consumed (reset to None).
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise GraphError(f"sgd_step: parameter {p.name or '<anon>'} has no gradient")
    for p in params:
        g = p.grad
        if weight_decay:
            g = g + weight_decay * p.data
        p.momentum *= momentum
        p.momentum += g
        p.data -= lr * p.momentum
        p.grad = None
