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
"""

from __future__ import annotations

import threading
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
    retention.  The *values* computed are bit-identical — only the
    bookkeeping is skipped — so inference paths (greedy decoding, the
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


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

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

    def detach(self) -> "Tensor":
        """A view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

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
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
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
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, a, b))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

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
    # Elementwise nonlinearities (used by functional.py wrappers)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic function (clip both tails; both
        # np.where branches are evaluated, so each must stay finite).
        clipped = np.clip(self.data, -60.0, 60.0)
        exp_neg = np.exp(-np.abs(clipped))
        out_data = np.where(clipped >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, slope))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)


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


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add gradient.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + table.shape[1:]``.  This is the primitive behind
    :class:`repro.nn.layers.Embedding` and graph gather operations.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = table.data[indices]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, *table.shape[1:]))
            table._accumulate(full)

    return Tensor._make(out_data, (table,), backward)


def scatter_sum_array(values: np.ndarray, segment_ids: np.ndarray,
                      num_segments: int) -> np.ndarray:
    """Plain-array scatter-add of rows into ``num_segments`` buckets.

    float64 rows of any rank go through one flat ``np.bincount`` over
    ``id · width + column``: like ``np.add.at`` it adds each bucket's
    contributions in input order, so the floating-point result is
    bit-identical, but its C loop is several times faster at every shape
    GNN attention and pooling use.  Other dtypes keep ``np.add.at``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if values.dtype != np.float64 or len(values) == 0:
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        np.add.at(out, segment_ids, values)
        return out
    width = values[0].size
    flat = segment_ids if values.ndim == 1 else (
        segment_ids[:, None] * width + np.arange(width)).reshape(-1)
    out = np.bincount(flat, weights=values.reshape(-1),
                      minlength=num_segments * width)
    if len(out) > num_segments * width:  # minlength is a floor: match add.at's error
        raise IndexError(f"segment id {int(segment_ids.max())} out of range "
                         f"for {num_segments} segments")
    return out.reshape((num_segments,) + values.shape[1:])


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    The adjoint of a segment sum is a gather, which keeps batched GNN
    message passing differentiable without per-graph Python loops.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = scatter_sum_array(values.data, segment_ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (values,), backward)


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Average rows of ``values`` per segment (empty segments yield zero)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(values.dtype)
    counts = np.maximum(counts, 1.0)
    total = segment_sum(values, segment_ids, num_segments)
    shape = (num_segments,) + (1,) * (values.ndim - 1)
    return total * Tensor(1.0 / counts.reshape(shape))


def segment_max_array(values: np.ndarray, segment_ids: np.ndarray,
                      num_segments: int) -> np.ndarray:
    """Per-bucket maximum of rows, 0 where a bucket is empty or its maximum
    is not finite — the stabilizing shift of a segment softmax.  A stable
    sort groups the rows and ``np.maximum.reduceat`` reduces the non-empty
    groups (a maximum is exact in any order)."""
    counts = np.bincount(segment_ids, minlength=num_segments)
    filled = np.flatnonzero(counts)
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    out[filled] = np.maximum.reduceat(
        values[np.argsort(segment_ids, kind="stable")],
        (np.cumsum(counts) - counts)[filled], axis=0)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over rows grouped by ``segment_ids`` (for GAT attention)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Shift by the per-segment max for numerical stability (constant wrt grad).
    shifted = scores - Tensor(
        segment_max_array(scores.data, segment_ids, num_segments)[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    denom_per_row = gather_rows(denom, segment_ids)
    return exp / (denom_per_row + 1e-12)
