"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
artifact uses PyTorch; PyTorch is unavailable in this environment, so we
implement the subset of tensor algebra that RNTrajRec and its baselines
need: broadcasting arithmetic, matrix products, element-wise nonlinear
functions, reductions, indexing/gather, concatenation, and segment
(scatter) operations for batched graph neural networks.

The design mirrors the classic tape-based approach:

* a :class:`Tensor` wraps a ``numpy.ndarray`` and remembers the tensors it
  was computed from (``_parents``) together with a closure (``_backward``)
  that propagates the output gradient to the parents;
* :meth:`Tensor.backward` topologically sorts the graph once and runs the
  closures in reverse order.

Only float64/float32 data participates in differentiation; integer tensors
(indices) are carried as plain arrays.

Every op the modules use also runs on plain ndarrays: the elementwise
ops, ``mean``, ``concat``, ``stack``, ``gather_rows`` and the segment ops
take a Tensor or an array and return the input's type, and an ndarray left
of an operator with a Tensor on the right stays one under :class:`no_grad`.  Module forwards are
written once against these ops, so inference on arrays does exactly the
numpy arithmetic the tape would record, and nothing else.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

DEFAULT_DTYPE = np.float64

# Thread-local autograd switch (serving decodes in worker threads while the
# main thread may train, so the flag must not leak across threads).
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Whether new operations record the autograd graph on this thread."""
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager disabling autograd-graph construction (inference).

    Inside the block every op produced by :meth:`Tensor._make` is a plain
    constant tensor: no parent links, no backward closures, no graph
    retention; an ndarray left of a Tensor operand stays an ndarray.  The
    *values* computed are bit-identical — only the bookkeeping is skipped —
    so inference paths (the encoder on plain arrays, greedy decoding, the
    serving scheduler) use this for a pure-speed win.  Re-entrant and
    thread-local.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD_STATE.enabled = self._previous


def _as_array(value: ArrayLike, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing numpy broadcasting.

    Broadcasting replicates values along new leading axes and along axes of
    size one; its adjoint therefore sums over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size one in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def array_of(value):
    """The values of ``value``: a Tensor's array, anything else itself."""
    return value.data if isinstance(value, Tensor) else value


def as_tensor(value) -> "Tensor":
    """``value`` as a Tensor (a plain array becomes a constant)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of the clipped input ``c``:
    ``1 / (1 + e)`` where ``c ≥ 0``, ``e / (1 + e)`` elsewhere, ``e =
    exp(-|c|) ≤ 1`` — both ``max(e, c ≥ 0) / (1 + e)``: branch-free, bit-equal
    to an ``np.where`` select and several times cheaper on mixed-sign rows.
    The clip is spelled as its ufunc definition (bit-equal to ``np.clip``)."""
    clipped = np.minimum(np.maximum(x, -60.0), 60.0)
    exp_neg = np.exp(-np.abs(clipped))
    return np.maximum(exp_neg, clipped >= 0) / (1.0 + exp_neg)


def leaky_relu_array(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """``x`` where positive, ``slope · x`` elsewhere: for ``0 < slope ≤ 1``
    exactly ``max(x, slope · x)`` (signed zeros and infinities included),
    branch-free and several times cheaper than ``np.where``."""
    return np.maximum(x, slope * x) if 0.0 < slope <= 1.0 else np.where(x > 0, x, slope * x)


def _unary(forward, backward):
    """An elementwise op from its array ``forward`` and its adjoint
    ``backward(grad, x, out, *args)``: on a plain array the op is the
    ``forward`` call alone, on a Tensor the same call plus one tape node."""
    def op(x, *args):
        if not isinstance(x, Tensor):
            return forward(x, *args)
        out_data = forward(x.data, *args)

        def back(grad: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(backward(grad, x.data, out_data, *args))

        return Tensor._make(out_data, (x,), back)
    return op


def _reflected(tensor_op, array_op):
    """``other ⊕ tensor`` for a non-Tensor ``other``: an ndarray under
    ``no_grad`` meets the tensor's array and stays an ndarray (a layer's
    input decides its output's type); anything else takes the Tensor op."""
    def op(self, other):
        if isinstance(other, np.ndarray) and not is_grad_enabled():
            return array_op(other, self.data)
        return tensor_op(self, other)
    return op


def _binary(forward, adjoint_a, adjoint_b):
    """A broadcasting binary op ``a ⊕ b`` from its array ``forward`` and
    each operand's adjoint ``adjoint(grad, a, b)``: the Tensor method and
    its reflected twin (whose non-Tensor left operand is a constant)."""
    def op(self, other):
        other = as_tensor(other)
        out_data = forward(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(adjoint_a(grad, self.data, other.data), self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(adjoint_b(grad, self.data, other.data), other.shape))

        return Tensor._make(out_data, (self, other), backward)
    return op, _reflected(lambda self, other: op(Tensor(other), self), forward)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    # ``ndarray ⊕ Tensor`` defers to the reflected operators below instead
    # of silently building a numpy object array.
    __array_ufunc__ = None

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, name={self.name!r})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        # The thread-local switch first: inference never builds the
        # generator over ``parents``.
        if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate ``grad`` (default: ones) from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    __add__, __radd__ = _binary(np.add, lambda grad, a, b: grad, lambda grad, a, b: grad)
    __sub__, __rsub__ = _binary(np.subtract, lambda grad, a, b: grad, lambda grad, a, b: -grad)
    __mul__, __rmul__ = _binary(np.multiply, lambda grad, a, b: grad * b,
                                lambda grad, a, b: grad * a)
    __truediv__, __rtruediv__ = _binary(np.true_divide, lambda grad, a, b: grad / b,
                                        lambda grad, a, b: -grad * a / (b**2))

    __neg__ = _unary(np.negative, lambda grad, x, out: -grad)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    ga = np.multiply.outer(grad, other.data) if grad.ndim else grad * other.data
                else:
                    ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(_match_matmul(ga, self.data), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    gb = np.multiply.outer(self.data, grad) if grad.ndim else self.data * grad
                else:
                    gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(unbroadcast(_match_matmul(gb, other.data), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmatmul__ = _reflected(lambda self, other: Tensor(other) @ self, np.matmul)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(np.argsort(axes)))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_index_adjoint(grad, index, self.data))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum times the reciprocal count.  Written against ``sum`` and
        ``shape`` alone, so ``Tensor.mean(array)`` is the array path (an
        ndarray's own ``mean`` divides, which rounds differently)."""
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly across ties so the op stays well-defined.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / denom)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities: each is also the functional form, so
    # ``Tensor.exp(array)`` is ``np.exp(array)``.
    # ------------------------------------------------------------------
    exp = _unary(np.exp, lambda grad, x, out: grad * out)
    log = _unary(np.log, lambda grad, x, out: grad / x)
    sqrt = _unary(np.sqrt, lambda grad, x, out: grad * 0.5 / out)
    tanh = _unary(np.tanh, lambda grad, x, out: grad * (1.0 - out**2))
    sigmoid = _unary(sigmoid_array, lambda grad, x, out: grad * out * (1.0 - out))
    relu = _unary(lambda x: x * (x > 0), lambda grad, x, out: grad * (x > 0))
    leaky_relu = _unary(leaky_relu_array,
                        lambda grad, x, out, slope=0.01: grad * np.where(x > 0, 1.0, slope))
    clip = _unary(np.clip, lambda grad, x, out, low, high: grad * ((x >= low) & (x <= high)))


def _match_matmul(grad: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Collapse batched-matmul gradients back to the operand's rank."""
    if grad.ndim == target.ndim:
        return grad
    extra = grad.ndim - target.ndim
    if extra > 0:
        return grad.sum(axis=tuple(range(extra)))
    return grad


# ----------------------------------------------------------------------
# Free functions that need access to several tensors at once
# ----------------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = list(tensors)
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.stack(tensors, axis=axis)
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    condition = np.asarray(condition)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * (~condition), b.shape))

    return Tensor._make(out_data, (a, b), backward)


class Segments:
    """A row → bucket assignment, and the index arrays the segment ops
    derive from it, each built on first use and then kept: the flat
    ``id · width + column`` scatter index per row width, the stable sort
    order and group starts of a segment maximum, the bucket counts and
    their inverses of a segment mean.

    Build one per id array and pass it to every op over those ids — a
    sub-graph batch holds one over its ``graph_ids`` and one over its edge
    targets, so a forward's readouts, norms and GAT layers share them.  The
    ids are checked against ``num_segments`` once, here.
    """

    def __init__(self, ids: np.ndarray, num_segments: int) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= num_segments):
            raise IndexError(f"segment ids outside [0, {num_segments})")
        self.ids, self.num_segments = ids, int(num_segments)
        self._flat = {1: ids}

    def flat(self, width: int) -> np.ndarray:
        """The bincount index that scatters rows of ``width`` values."""
        flat = self._flat.get(width)
        if flat is None:
            flat = self._flat[width] = (self.ids[:, None] * width + np.arange(width)).reshape(-1)
        return flat

    @cached_property
    def counts(self) -> np.ndarray:
        return np.bincount(self.ids, minlength=self.num_segments)

    @cached_property
    def inverse_counts(self) -> np.ndarray:
        """``1 / max(count, 1)`` per bucket (an empty bucket's mean is 0)."""
        return 1.0 / np.maximum(self.counts.astype(np.float64), 1.0)

    @cached_property
    def groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stable row order, each non-empty bucket's first position in it,
        the non-empty buckets)."""
        counts = self.counts
        filled = np.flatnonzero(counts)
        return np.argsort(self.ids, kind="stable"), (np.cumsum(counts) - counts)[filled], filled


def _segments(ids, num_segments: Optional[int]) -> Segments:
    """The one form of ids segment ops run on: raw ids are wrapped."""
    return ids if isinstance(ids, Segments) else Segments(ids, num_segments)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add gradient.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + table.shape[1:]``.  Given a :class:`Segments` over
    ``len(table)`` buckets instead, the gradient reuses its scatter index.
    This is the primitive behind :class:`repro.nn.layers.Embedding` and
    graph gather operations.
    """
    ids = indices.ids if isinstance(indices, Segments) else np.asarray(indices, dtype=np.int64)
    if not isinstance(table, Tensor):
        return table.take(ids, axis=0)  # fancy indexing's bytes, faster

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            rows = indices if isinstance(indices, Segments) else \
                Segments(ids.reshape(-1), len(table.data))
            table._accumulate(scatter_sum_array(grad.reshape((-1,) + table.shape[1:]), rows))

    return Tensor._make(table.data.take(ids, axis=0), (table,), backward)


def _index_adjoint(grad: np.ndarray, index, like: np.ndarray) -> np.ndarray:
    """``grad`` scatter-added back through ``like[index]``.  Integer-array
    indices go through the flat bincount of :func:`scatter_sum_array`
    (input order, the bytes of ``np.add.at``); any other index through
    ``np.add.at``."""
    arrays = index if isinstance(index, tuple) else (index,)
    if all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in arrays):
        lead = like.shape[:len(arrays)]
        flat = np.ravel_multi_index(tuple(np.broadcast_arrays(*arrays)), lead, mode="wrap")
        rows = grad.reshape((flat.size,) + like.shape[len(arrays):])
        return scatter_sum_array(rows, Segments(flat.reshape(-1), int(np.prod(lead)))
                                 ).reshape(like.shape)
    full = np.zeros_like(like)
    np.add.at(full, index, grad)
    return full


def scatter_sum_array(values: np.ndarray, segments,
                      num_segments: Optional[int] = None) -> np.ndarray:
    """Plain-array scatter-add of rows into buckets (``segments``: a
    :class:`Segments`, or raw ids plus ``num_segments``).

    float64 rows of any rank go through one flat ``np.bincount`` over
    ``id · width + column``: like ``np.add.at`` it adds each bucket's
    contributions in input order, so the floating-point result is
    bit-identical, but its C loop is several times faster at every shape
    GNN attention and pooling use.  Other dtypes keep ``np.add.at``.
    """
    segments = _segments(segments, num_segments)
    shape = (segments.num_segments,) + values.shape[1:]
    if values.dtype != np.float64 or len(values) == 0:
        out = np.zeros(shape, dtype=values.dtype)
        np.add.at(out, segments.ids, values)
        return out
    width = values[0].size
    return np.bincount(segments.flat(width), weights=values.reshape(-1),
                       minlength=segments.num_segments * width).reshape(shape)


def segment_sum(values: Tensor, segments, num_segments: Optional[int] = None) -> Tensor:
    """Sum rows of ``values`` into buckets.

    The adjoint of a segment sum is a gather, which keeps batched GNN
    message passing differentiable without per-graph Python loops.
    """
    segments = _segments(segments, num_segments)
    out_data = scatter_sum_array(array_of(values), segments)
    if not isinstance(values, Tensor):
        return out_data

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad.take(segments.ids, axis=0))

    return Tensor._make(out_data, (values,), backward)


def segment_mean(values: Tensor, segments, num_segments: Optional[int] = None) -> Tensor:
    """Average rows of ``values`` per segment (empty segments yield zero)."""
    segments = _segments(segments, num_segments)
    scale = segments.inverse_counts.reshape((-1,) + (1,) * (values.ndim - 1))
    return segment_sum(values, segments) * scale


def segment_max_array(values: np.ndarray, segments,
                      num_segments: Optional[int] = None) -> np.ndarray:
    """Per-bucket maximum of rows, 0 where a bucket is empty or its maximum
    is not finite — the stabilizing shift of a segment softmax.  The
    stable sort groups the rows and ``np.maximum.reduceat`` reduces the
    non-empty groups (a maximum is exact in any order)."""
    segments = _segments(segments, num_segments)
    order, starts, filled = segments.groups
    out = np.zeros((segments.num_segments,) + values.shape[1:], dtype=values.dtype)
    out[filled] = np.maximum.reduceat(values.take(order, axis=0), starts, axis=0)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_softmax(scores: Tensor, segments, num_segments: Optional[int] = None) -> Tensor:
    """Softmax over rows grouped by segment (for GAT attention)."""
    segments = _segments(segments, num_segments)
    # Shift by the per-segment max for numerical stability (constant wrt grad).
    shifted = scores - segment_max_array(array_of(scores), segments).take(segments.ids, axis=0)
    exp = Tensor.exp(shifted)
    denom = segment_sum(exp, segments)
    return exp / (gather_rows(denom, segments) + 1e-12)
