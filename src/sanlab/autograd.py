"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps one contiguous float
array, every operation records on its output a backward closure that
takes the output's gradient, and ``Tensor.backward()`` walks the tape in
reverse topological order.  A closure holds the op's inputs and the
buffers its gradient needs, never its own output, so a dropped graph is
freed by reference counting.  ``backward()`` still consumes the graph:
each node drops its parents, its closure and the gradient it received as
soon as it has passed that gradient on, so captured buffers and
intermediate gradients are freed while backpropagation runs and
intermediate tensors once it ends, even while the caller holds the loss.
Only the operations the detection pipeline needs exist; there is no
broadcasting and no GPU path.  Padding always replicates edges
(``conv2d``'s ``pad`` and ``replicate_pad``), so constant inputs stay
constant through every padded convolution.
``no_grad`` stops recording in the current thread only.  Training runs
in float32; gradient-check tests rebuild the same graphs in float64.

Importing this module sets two glibc malloc parameters for the whole
process, and so for every program that imports sanlab: blocks below
32 MiB come from the heap instead of fresh ``mmap`` regions
(``M_MMAP_THRESHOLD``), and free heap is handed back to the OS only above
64 MiB (``M_TRIM_THRESHOLD``).  A training step frees its whole tape at the
end; with glibc's defaults, whether that memory is returned and then
faulted in again by the next step depends on the heap's history (about
900 page faults per ``san=off`` step, or none).  The two values are the
ceilings glibc's own adaptive thresholds climb to on 64-bit systems, so
setting them at import only makes the steady state independent of that
history.  No output changes.  On other C libraries nothing is set.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, ShapeError

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_heap_mapped() -> None:
    """Raise glibc's mmap and trim thresholds to their adaptive ceilings
    (see the module docstring); a no-op without glibc."""
    if os.name != "posix":
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_heap_mapped()

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
        """Add gradient g, of this tensor's shape.  A first one is stored in one
        pass as 0 + g in a new array of this tensor's dtype and layout: the
        bits of ``zeros_like`` then ``+=``, so -0.0 lands as +0.0."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.add(g, 0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        The graph is consumed: every node walked loses its parents and its
        backward closure right after its closure has run, so the buffers
        the closures captured are freed during the walk and intermediate
        tensors at its end, not when the caller drops the loss.  An op's
        output also drops its gradient once the closure has read it, so
        after the walk only leaves (inputs and `Parameter`s) and this
        scalar hold one.  Calling ``backward()`` again on this graph only
        resets this scalar's own gradient.
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
                if node is not self:
                    node.grad = None
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
    """Gradient of `_edge_pad`, summed into gp in place: border rows, then
    border columns, folded onto the edge they copy (one edge row serves
    both sides when h == 1).  Returns the view of gp's interior."""
    h = gp.shape[2] - 2 * p
    w = gp.shape[3] - 2 * p
    gp[:, :, p] += gp[:, :, :p].sum(axis=2)
    gp[:, :, p + h - 1] += gp[:, :, p + h :].sum(axis=2)
    g = gp[:, :, p : p + h]
    g[:, :, :, p] += g[:, :, :, :p].sum(axis=3)
    g[:, :, :, p + w - 1] += g[:, :, :, p + w :].sum(axis=3)
    return g[:, :, :, p : p + w]


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Columns (n, c*kh*kw, ho*wo) of an already padded map: one contiguous
    copy of an (n, c, kh, kw, ho, wo) strided view of xp's buffer."""
    n, c = xp.shape[:2]
    xp = np.ascontiguousarray(xp)  # a no-op on the padded maps conv2d passes
    strides = (*xp.strides, stride * xp.strides[2], stride * xp.strides[3])
    view = np.ndarray((n, c, kh, kw, ho, wo), xp.dtype, buffer=xp, strides=strides)
    return view.copy().reshape(n, c * kh * kw, ho * wo)


def _padded_input_grad(g: np.ndarray, w: np.ndarray, xp_shape, s: int, ho: int, wo: int) -> np.ndarray:
    """Input gradient on the padded map xp_shape from output gradient g
    (n, k, ho*wo) and kernels w.  g is widened with zeros to hp x wp =
    ho + (kh-1)//s by wo + (kw-1)//s, so its product with the kernel rows in
    (i, j, c) order gives each tap of an image one contiguous run, added
    into parity plane (i % s, j % s) at offset (i//s)*wp + j//s: a padded
    element sums its taps in (i, j) order from +0, and zero columns add +-0.
    A 1x1 output keeps numpy's one-column GEMV, whose sums are not GEMM's."""
    n, (k, c, kh, kw) = g.shape[0], w.shape
    gp = np.zeros(xp_shape, dtype=g.dtype)
    if ho * wo == 1:
        gp[:, :, :kh, :kw] += np.matmul(w.reshape(k, -1).T, g).reshape(n, c, kh, kw)
        return gp
    hp, wp = ho + (kh - 1) // s, wo + (kw - 1) // s
    gz = np.zeros((n, k, hp, wp), dtype=g.dtype)
    gz[:, :, :ho, :wo] = g.reshape(n, k, ho, wo)
    size = c * hp * wp
    wt = w.transpose(0, 2, 3, 1).reshape(k, kh * kw * c).T
    dcols = np.matmul(wt, gz.reshape(n, k, hp * wp)).reshape(n, kh * kw, size)
    planes = np.zeros((n, s, s, size), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            off = (i // s) * wp + j // s
            planes[:, i % s, j % s, off:] += dcols[:, i * kw + j, : size - off]
    for a in range(s):
        for b in range(s):
            dst = gp[:, :, a::s, b::s][:, :, :hp, :wp]
            dst[...] = planes[:, a, b].reshape(n, c, hp, wp)[:, :, : dst.shape[2], : dst.shape[3]]
    return gp


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0, relu: bool = False) -> Tensor:
    """Cross-correlation of NCHW input with KCkhkw kernels plus bias, then
    with ``relu`` set max(0, .) in place on the result.

    ``pad`` replicates edges: the result equals `replicate_pad` followed
    by an unpadded conv, bit for bit, in value and in every gradient, but
    the padded map is scratch, not a tape tensor.  A 1x1, stride-1,
    unpadded conv reads x itself as its columns.  The node holds x only
    when x takes a gradient.  The weight and bias gradients are summed
    over the batch in batch order and then added to what the tensor holds,
    so one pass over N items gives the bits of N one-item passes when the
    tensor holds no gradient yet, but not on top of an existing one.

    With ``relu`` the result is bit for bit `relu` of the plain conv, in
    value and in every gradient, from one output buffer instead of two:
    the backward masks its gradient by ``out > 0`` (true exactly where the
    pre-activation was) and adds 0, as `relu`'s hand-off through
    `Tensor._accumulate` does, so a masked -0.0 reaches the sums as +0.0.

    The backward sums the input gradient by kernel-tap planes, one
    contiguous add per tap (`_padded_input_grad`), then folds the border
    (`_edge_fold`); a float64 BLAS may round the wider product differently.
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
    if relu:
        np.maximum(out_data, 0, out=out_data)
    dx = x if x.requires_grad else None

    def backward(grad_out: np.ndarray):
        if relu:
            grad_out = grad_out * (out_data > 0)
            grad_out += 0
        g = grad_out.reshape(n, k, ho * wo)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2)))
        if w.requires_grad:
            dwm = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
            w._accumulate(dwm.reshape(w.shape))
        if dx is not None:
            if pointwise:
                dx._accumulate(np.matmul(wm.T, g).reshape(dx.shape))
            else:
                gp = _padded_input_grad(g, w.data, xp_shape, stride, ho, wo)
                dx._accumulate(_edge_fold(gp, pad) if pad else gp)

    return _result(out_data, (w, b) if dx is None else (x, w, b), backward)


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
        x._accumulate(_edge_fold(grad_out.copy(), p))

    return _result(_edge_pad(x.data, p), (x,), backward)


def take0(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows along axis 0; gradient scatter-adds back with ``np.add.at``,
    each row's gradients in occurrence order."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take0 index out of range for axis of size {x.shape[0]}")

    def backward(grad_out: np.ndarray):
        g = np.zeros_like(x.data)
        np.add.at(g, idx, grad_out)
        x._accumulate(g)

    return _result(x.data[idx], (x,), backward)


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


def bilinear_resize(
    x: Tensor, out_h: int, out_w: int, window: tuple[tuple[int, int], tuple[int, int]] | None = None
) -> Tensor:
    """Bilinear interpolation to (out_h, out_w), or the window of it.

    Forward-only by design: the result never participates in gradients
    (it feeds the constant reference-scale pathway).  Each output element
    is (1-fy) * top + fy * bottom, where top and bottom interpolate its
    two source rows along x; the x pass runs once on every source row and
    the rows are gathered from its result.  A same-size resize returns a
    copy, which is what the formula gives on finite inputs.

    ``window``, output rows [r0, r1) and columns [c0, c1) as
    ``((r0, r1), (c0, c1))``, computes only that part of the full result:
    it slices the cached plan of each axis and runs the x pass on the
    source rows the window reads.  Every element is elementwise
    arithmetic on its own source pixels, so the window is bit for bit the
    same slice of the full resize.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects NCHW, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be positive, got {out_h}x{out_w}")
    (r0, r1), (c0, c1) = window or ((0, out_h), (0, out_w))
    if not (0 <= r0 < r1 <= out_h and 0 <= c0 < c1 <= out_w):
        raise ShapeError(f"bilinear_resize window {window} is empty or outside the {out_h}x{out_w} output")
    d = x.data
    n, c, h, w = d.shape
    if (h, w) == (out_h, out_w):
        return Tensor(d[:, :, r0:r1, c0:c1].copy())
    y0, y1, fy = _resample_axis(h, out_h, d.dtype)
    x0, x1, fx = _resample_axis(w, out_w, d.dtype)
    if window is not None:
        y0, y1, fy, x0, x1, fx = y0[r0:r1], y1[r0:r1], fy[r0:r1], x0[c0:c1], x1[c0:c1], fx[c0:c1]
        top = int(y0[0])  # both source-row indices ascend with the output row
        d = d[:, :, top : int(y1[-1]) + 1]
        y0, y1 = y0 - top, y1 - top
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
