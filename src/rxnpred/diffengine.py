"""Minimal reverse-mode autodiff over dense 2-D float64 tensors.

Every operation records its parents and one gradient rule on the output node,
``bwd(g, i)``: parent ``i``'s gradient given the output's gradient ``g``.
``backward`` runs a reverse topological sweep from a scalar root and alone
decides which parents get a gradient (those that lead to a ``requires_grad``
leaf; no other is computed) and how it is stored (:meth:`DTensor.accumulate`).
Reductions that sum over graph elements (``segment_sum``, ``sum_rows``) add
their addends in value order per column, which makes forward results bitwise
invariant under input row permutations. Includes Xavier initialization, an
Adam optimizer with per-epoch learning-rate decay, a plain-text checkpoint
format, and a finite-difference gradient checker.

Checkpoint format (byte-exact): first line ``REXGEN-CKPT v1``; then zero or
more metadata lines ``# key=value`` sorted by key; then per tensor, sorted by
name: one line ``name rows cols`` followed by ``rows`` lines of ``cols``
decimal floats (``repr`` round-trip precision), row-major.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "AdamState",
    "DTensor",
    "ParamStore",
    "SegmentPlan",
    "ShapeError",
    "adam_step",
    "add",
    "backward",
    "concat_cols",
    "constant",
    "dot",
    "gather_rows",
    "grad_check",
    "log",
    "matmul",
    "matvec",
    "mul",
    "no_grad",
    "read_lines",
    "relu",
    "reshape",
    "scale",
    "segment_sum",
    "sigmoid",
    "softmax_logloss",
    "stack_rows",
    "sub",
    "sum_rows",
    "tanh",
    "xavier",
]

CKPT_HEADER = "REXGEN-CKPT v1"
LOG_CLAMP = 1e-12
GRAD_CHECK_SAMPLES = 50  # coordinates of each tensor that grad_check perturbs
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    pass


class DTensor:
    """A 2-D float64 value node. An op result holds its ``parents`` and
    ``bwd(g, i)``, parent ``i``'s gradient given its own gradient ``g``;
    leaves with ``requires_grad`` keep the gradients they get."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, values: np.ndarray, requires_grad: bool = False, parents: tuple = (),
                 bwd: Callable[[np.ndarray, int], np.ndarray] | None = None):
        if values.ndim != 2:
            raise ShapeError(f"DTensor must be 2-D, got shape {values.shape}")
        self.values = values
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._bwd = bwd

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient, writing into no array another node holds.

        A leaf stores its first gradient as ``g + 0.0``, a copy with ``-0.0``
        turned into ``+0.0`` as a sum onto zeros gives, and adds later ones
        into that copy. An op result keeps the ``g`` it gets, which its op may
        also have handed to another parent, and adds later ones out of place.
        """
        if self.grad is None:
            self.grad = g + 0.0 if self.requires_grad else g
        elif self.requires_grad:
            self.grad += g
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        return f"DTensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> DTensor:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim == 0:
        arr = arr.reshape(1, 1)
    return DTensor(arr.copy())


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Inside the block, operations record no backward graph: results are
    plain constants, so intermediates are freed as soon as they go unused."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _track(values: np.ndarray, parents: tuple, bwd: Callable) -> DTensor:
    """The op result ``values``, recorded as a backward node when gradients
    are enabled and some parent is a grad leaf or a recorded result."""
    if _grad_enabled and any(_need(p) for p in parents):
        return DTensor(values, parents=parents, bwd=bwd)
    return DTensor(values)


def _need(t: DTensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _check_same(a: DTensor, b: DTensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def add(a: DTensor, b: DTensor) -> DTensor:
    """Elementwise sum; also accepts a (1, c) row vector broadcast over rows."""
    if a.shape == b.shape:
        return _track(a.values + b.values, (a, b), lambda g, i: g)
    if b.shape == (1, a.shape[1]):
        return _track(a.values + b.values, (a, b),
                      lambda g, i: g.sum(axis=0, keepdims=True) if i else g)
    raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")


def sub(a: DTensor, b: DTensor) -> DTensor:
    _check_same(a, b, "sub")
    return _track(a.values - b.values, (a, b), lambda g, i: -g if i else g)


def mul(a: DTensor, b: DTensor) -> DTensor:
    """Elementwise (Hadamard) product."""
    _check_same(a, b, "mul")
    return _track(a.values * b.values, (a, b), lambda g, i: g * (a if i else b).values)


def scale(a: DTensor, s: float) -> DTensor:
    return _track(a.values * s, (a,), lambda g, i: g * s)


# Rows per GEMM in :func:`_mm`, a multiple of every OpenBLAS dgemm micro-kernel height.
_ROW_BLOCK = 32


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in which each output row depends only on its row of ``a`` and on ``b``.

    ``a`` is copied into a C-contiguous buffer, padded with ``+0.0`` rows to a
    multiple of :data:`_ROW_BLOCK`, and ``np.matmul`` runs one GEMM per block.
    Every GEMM has the same shape whatever the number of rows, so BLAS sums
    each row the same way: a row's bits do not depend on the other rows, how
    many there are, their order, or ``a``'s memory layout (the ``blas-rows``
    self-check tests this on the running machine). Like einsum, it warns
    neither on overflow nor on a padding row's ``0 * inf``.
    """
    m, k = a.shape
    padded = -(-m // _ROW_BLOCK) * _ROW_BLOCK
    buf = np.empty((padded, k))
    buf[:m] = a
    buf[m:] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(buf.reshape(padded // _ROW_BLOCK, _ROW_BLOCK, k), b)
    return out.reshape(padded, b.shape[1])[:m]


def _mm_seq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each element a sequential sum over ``a``'s columns in order
    (unoptimized einsum). The ``X.T @ G`` weight gradients use it: they sum
    over items, and the ``±0.0`` terms of items that carry no gradient leave
    such a sum unchanged, however many there are."""
    return np.einsum("ij,jk->ik", a, b, optimize=False)


def matmul(a: DTensor, b: DTensor) -> DTensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return _track(_mm(a.values, b.values), (a, b),
                  lambda g, i: _mm_seq(a.values.T, g) if i else _mm(g, b.values.T))


def matvec(a: DTensor, v: DTensor) -> DTensor:
    """Matrix times column vector; thin wrapper over :func:`matmul`."""
    if v.shape[1] != 1:
        raise ShapeError(f"matvec: second operand must be a column, got {v.shape}")
    return matmul(a, v)


def relu(a: DTensor) -> DTensor:
    mask = a.values > 0
    return _track(a.values * mask, (a,), lambda g, i: g * mask)


def sigmoid(a: DTensor) -> DTensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _track(out, (a,), lambda g, i: g * out * (1.0 - out))


def tanh(a: DTensor) -> DTensor:
    out = np.tanh(a.values)
    return _track(out, (a,), lambda g, i: g * (1.0 - out * out))


def log(a: DTensor) -> DTensor:
    """Natural log clamped below at 1e-12; zero gradient inside the clamp."""
    clamped = np.maximum(a.values, LOG_CLAMP)
    return _track(np.log(clamped), (a,),
                  lambda g, i: g * np.where(a.values >= LOG_CLAMP, 1.0 / clamped, 0.0))


def concat_cols(a: DTensor, b: DTensor) -> DTensor:
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    ca = a.shape[1]
    return _track(np.concatenate([a.values, b.values], axis=1), (a, b),
                  lambda g, i: g[:, ca:] if i else g[:, :ca])


def reshape(a: DTensor, rows: int, cols: int) -> DTensor:
    if rows * cols != a.values.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as ({rows}, {cols})")
    return _track(a.values.reshape(rows, cols).copy(), (a,), lambda g, i: g.reshape(a.shape))


def gather_rows(a: DTensor, indices: Sequence[int] | np.ndarray) -> DTensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and idx.view(np.uintp).max() >= a.shape[0]:  # negative ones read as huge
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    return _track(a.values.take(idx, axis=0), (a,),
                  lambda g, i: _scatter_add(idx, g, a.shape[0]))


def _scatter_add(ids: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Row ``i`` of ``values`` added onto row ``ids[i]`` of an ``(n_rows, cols)``
    array of ``+0.0``, in row order: bitwise ``np.add.at(zeros, ids, values)``,
    :func:`gather_rows`' backward. One ``np.bincount`` over the
    (row, column) cells adds each cell's values in that order, a few times
    faster than ``np.add.at``. Values holding a NaN go to ``np.add.at`` itself:
    which of two NaNs a sum keeps differs between numpy's vector and scalar
    loops, while the only NaN a NaN-free sum can make, ``inf + -inf``, is
    always the same one."""
    cols = values.shape[1]
    if np.isnan(values).any():
        out = np.zeros((n_rows, cols))
        np.add.at(out, ids, values)
        return out
    cells = (ids[:, None] * cols + np.arange(cols)).reshape(-1)
    return np.bincount(cells, values.reshape(-1), minlength=n_rows * cols).reshape(n_rows, cols)


class SegmentPlan:
    """The grouping of a segment-id array, computed once for every sum over it.

    ``order`` lists the rows segment by segment, in row order within each
    (a stable sort); ``counts`` and ``starts`` give each segment's length and
    offset in ``order``; column ``s`` of the padded (width, n_segments)
    ``index`` lists segment ``s``'s rows in that order, then ``len(ids)``
    (a ``+0.0`` row) up to ``width``, the longest segment's length.
    """

    __slots__ = ("ids", "n_segments", "order", "counts", "starts", "index")

    def __init__(self, ids: Sequence[int] | np.ndarray, n_segments: int):
        seg = np.asarray(ids, dtype=np.intp)
        if seg.ndim != 1:
            raise ShapeError(f"segment_sum: segment ids must be 1-D, got shape {seg.shape}")
        if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
            raise ShapeError(f"segment_sum: segment id out of range [0, {n_segments})")
        self.ids = seg
        self.n_segments = n_segments
        self.order = np.argsort(seg, kind="stable")
        self.counts = np.bincount(seg, minlength=n_segments)
        self.starts = np.cumsum(self.counts) - self.counts
        by_seg = seg[self.order]
        self.index = np.full((int(self.counts.max()) if seg.size else 0, n_segments), seg.size)
        self.index[np.arange(seg.size) - self.starts[by_seg], by_seg] = self.order

    def _padded_rows(self, values: np.ndarray) -> np.ndarray:
        """(width, n_segments, cols): row k of every segment, ``+0.0`` past its end."""
        return np.concatenate([values, np.zeros((1, values.shape[1]))])[self.index]

    def sorted_sums(self, values: np.ndarray) -> np.ndarray:
        """Each segment's rows summed per column in value-sorted order onto
        ``+0.0``; see :func:`segment_sum`."""
        out = np.zeros((self.n_segments, values.shape[1]))
        if len(self.index) in _SORTING_NETWORKS and np.isfinite(values).all():
            rows = list(self._padded_rows(values))
            for i, j in _SORTING_NETWORKS[len(rows)]:
                rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
            for row in rows:
                out += row
        else:
            for size in np.unique(self.counts[self.counts > 0]):
                ids = np.flatnonzero(self.counts == size)
                block = values[self.order[self.starts[ids][:, None] + np.arange(size)]]
                block.sort(axis=1)
                out[ids] = block.sum(axis=1)
        return out


def segment_sum(a: DTensor, segments: Sequence[int] | np.ndarray | SegmentPlan,
                n_segments: int) -> DTensor:
    """Sum rows of ``a`` into ``n_segments`` buckets given per-row segment ids,
    or a :class:`SegmentPlan` of them, which saves regrouping the ids.

    Empty segments yield zero rows. Each segment is summed per column in
    value-sorted order onto ``+0.0``, so the result does not depend on the
    order rows arrive in; it equals :func:`sum_rows` on the segment alone
    (sequential per column, pairwise for a single column). When no segment
    has more than 4 rows and ``a`` is finite, as in a molecule's neighbor
    sums, no sort runs: each segment is padded with ``+0.0`` rows to the
    longest one, and a compare-exchange network of ``np.minimum`` and
    ``np.maximum`` orders all segments at once (the first two rows need no
    order, as ``a + b == b + a``). That gives the sorted sums: equal values
    are interchangeable, and a sum that starts at ``+0.0`` never reads
    ``-0.0``, so neither the padding nor how ``+0.0`` and ``-0.0`` are
    ordered moves it. Otherwise segments of equal size are value-sorted by
    ``np.sort`` as one (segments, size, cols) block; with an infinity or a
    NaN in ``a``, which NaN a sum returns depends on the order.
    """
    plan = segments if isinstance(segments, SegmentPlan) else SegmentPlan(segments, n_segments)
    if plan.ids.shape != (a.shape[0],):
        raise ShapeError(f"segment_sum: got {plan.ids.size} ids for {a.shape[0]} rows")
    if plan.n_segments != n_segments:
        raise ShapeError(f"segment_sum: plan has {plan.n_segments} segments, "
                         f"expected {n_segments}")
    return _track(plan.sorted_sums(a.values), (a,), lambda g, i: g[plan.ids])


# Compare-exchange pairs that sort a segment of 1 to 4 rows per column, up to
# the order of the first two rows, which the sum does not see (a + b == b + a).
_SORTING_NETWORKS = {1: (), 2: (), 3: ((0, 1), (1, 2)),
                     4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def sum_rows(a: DTensor) -> DTensor:
    """Column sums as a (1, cols) row; row-order invariant (value-sorted)."""
    return _track(np.sort(a.values, axis=0).sum(axis=0, keepdims=True), (a,),
                  lambda g, i: np.repeat(g, a.shape[0], axis=0))


def dot(a: DTensor, b: DTensor) -> DTensor:
    """Full contraction of two same-shape tensors into a 1x1 scalar."""
    _check_same(a, b, "dot")
    return _track(np.array([[float(np.sum(a.values * b.values))]]), (a, b),
                  lambda g, i: g[0, 0] * (a if i else b).values)


def stack_rows(tensors: Sequence[DTensor]) -> DTensor:
    """Stack (r_i, c) tensors, usually single rows, into a (sum r_i, c) tensor."""
    if not tensors:
        raise ShapeError("stack_rows: empty input")
    cols = tensors[0].shape[1]
    for t in tensors:
        if t.shape[1] != cols:
            raise ShapeError(f"stack_rows: expected {cols} columns, got {t.shape}")
    bounds = np.cumsum([0] + [t.shape[0] for t in tensors])
    return _track(np.concatenate([t.values for t in tensors], axis=0), tuple(tensors),
                  lambda g, i: g[bounds[i]:bounds[i + 1]])


def softmax_logloss(scores: DTensor, lists: Sequence[tuple[int, int]]) -> DTensor:
    """Negative log softmax probability of each list's target within its
    list, summed over the lists. ``lists`` gives each list's (target, length)
    in order, and the lists cut the column of scores into consecutive rows."""
    rows = sum(length for _, length in lists)
    if scores.shape != (rows, 1) or not rows:
        raise ShapeError(f"softmax_logloss: need a nonempty column of the lists' {rows} rows, "
                         f"got {scores.shape}")
    out, start = 0.0, 0
    dscores = np.empty_like(scores.values)           # softmax minus the one-hot target
    for target, length in lists:
        if not 0 <= target < length:
            raise ShapeError(f"softmax_logloss: target {target} is outside its list of {length}")
        s = scores.values[start:start + length, 0]
        shift = s - s.max()
        log_z = math.log(np.exp(shift).sum())
        out += log_z - shift[target]
        dscores[start:start + length, 0] = np.exp(shift - log_z)
        dscores[start + target, 0] -= 1.0
        start += length
    return _track(np.array([[out]]), (scores,), lambda g, i: g[0, 0] * dscores)


# ---------------------------------------------------------------------------
# Backward sweep
# ---------------------------------------------------------------------------

def backward(loss: DTensor) -> None:
    """Run the reverse sweep from a 1x1 root, accumulating exact gradients
    into every reachable ``requires_grad`` leaf.

    Each node hands ``bwd(g, i)`` to :meth:`DTensor.accumulate` of each
    parent ``i`` that leads to such a leaf, in parent order, and computes no
    other parent's gradient. Gradients on op results are freed once
    consumed; leaf gradients add onto whatever is already there (zero them
    between steps).
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward: root must be 1x1, got {loss.shape}")
    topo: list[DTensor] = []
    seen: set[int] = set()
    stack: list[tuple[DTensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.accumulate(np.ones((1, 1)))
    for node in reversed(topo):
        if node.grad is None:
            continue
        for i, parent in enumerate(node._parents):
            if _need(parent):
                parent.accumulate(node._bwd(node.grad, i))
        if not node.requires_grad:
            node.grad = None


# ---------------------------------------------------------------------------
# Parameters, optimizer, checkpoints
# ---------------------------------------------------------------------------

def xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def read_lines(path, encoding: str) -> list[str]:
    """The lines of the text file ``path`` in ``encoding``. A byte that does
    not decode raises ``ValueError`` naming the file and the line it is on."""
    try:
        return Path(path).read_bytes().decode(encoding).splitlines()
    except UnicodeDecodeError as err:
        # the bytes the codec read (after a "utf-8-sig" byte-order mark) and
        # the line the bad byte starts, numbered as str.splitlines numbers them
        data = err.object
        lineno = len((data[:err.start].decode(err.encoding) + "_").splitlines())
        raise ValueError(f"{path}:{lineno}: byte 0x{data[err.start]:02x} is not "
                         f"{err.encoding} text") from None


class ParamStore:
    """Named map of trainable tensors plus string metadata.

    Names must be unique and contain no whitespace (the checkpoint format is
    line oriented). A store read by :meth:`load` remembers its file in
    ``path``, and its load-time errors name that file.
    """

    def __init__(self, metadata: dict[str, str] | None = None):
        self.params: dict[str, DTensor] = {}
        self.metadata: dict[str, str] = dict(metadata or {})
        self.path: str | None = None

    def create(self, name: str, rows: int, cols: int,
               rng: np.random.Generator | None = None, init: str = "xavier") -> DTensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already exists")
        if any(ch.isspace() for ch in name):
            raise ValueError(f"parameter name {name!r} may not contain whitespace")
        if init == "xavier":
            if rng is None:
                raise ValueError("xavier init needs an rng")
            values = xavier(rng, rows, cols)
        elif init == "zeros":
            values = np.zeros((rows, cols))
        else:
            raise ValueError(f"unknown init {init!r}")
        tensor = DTensor(values, requires_grad=True)
        self.params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> DTensor:
        return self.params[name]

    @property
    def where(self) -> str:
        """``"<path>: "`` for a loaded store, else empty: how its errors start."""
        return f"{self.path}: " if self.path else ""

    def expect(self, name: str, rows: int, cols: int) -> DTensor:
        """The tensor ``name``; ``ValueError`` unless it exists with shape (rows, cols)."""
        where = self.where
        if name not in self.params:
            raise ValueError(f"{where}missing tensor {name!r}, expected shape {(rows, cols)}")
        shape = self.params[name].shape
        if shape != (rows, cols):
            raise ValueError(f"{where}tensor {name!r} has shape {shape}, expected {(rows, cols)}")
        return self.params[name]

    def meta(self, key: str, parse: Callable[[str], object] = str,
             allowed: Sequence[str] | None = None):
        """Metadata ``key`` through ``parse``; ``ValueError`` naming the key when
        it is missing, ``parse`` rejects it, or it is not in ``allowed`` (if given)."""
        where = self.where
        raw = self.metadata.get(key)
        if raw is None:
            raise ValueError(f"{where}missing metadata {key!r}")
        if allowed is not None and raw not in allowed:
            raise ValueError(f"{where}metadata {key}={raw!r} is not supported; "
                             f"expected {' or '.join(map(repr, allowed))}")
        try:
            return parse(raw)
        except ValueError:
            raise ValueError(f"{where}metadata {key}={raw!r} is not a valid "
                             f"{parse.__name__}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grads(self) -> None:
        for tensor in self.params.values():
            tensor.grad = None

    def clone_values(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            self.params[name].values = arr.copy()

    # -- checkpoint serialization -------------------------------------------

    def save(self, path) -> None:
        lines = [CKPT_HEADER]
        for key in sorted(self.metadata):
            value = self.metadata[key]
            if "\n" in key or "\n" in value or "=" in key:
                raise ValueError(f"metadata entry {key!r} is not line-safe")
            lines.append(f"# {key}={value}")
        for name in sorted(self.params):
            tensor = self.params[name]
            rows, cols = tensor.shape
            lines.append(f"{name} {rows} {cols}")
            for row in tensor.values:
                lines.append(" ".join(repr(float(x)) for x in row))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "ParamStore":
        lines = read_lines(path, "ascii")
        if not lines or lines[0] != CKPT_HEADER:
            raise ValueError(f"{path}: not a {CKPT_HEADER!r} checkpoint")
        store = cls()
        store.path = str(path)
        i = 1
        while i < len(lines) and lines[i].startswith("# "):
            key, sep, value = lines[i][2:].partition("=")
            if not sep:
                raise ValueError(f"{path}:{i + 1}: expected '# key=value', got {lines[i]!r}")
            if key in store.metadata:
                raise ValueError(f"{path}:{i + 1}: duplicate metadata key {key!r}")
            store.metadata[key] = value
            i += 1
        while i < len(lines):
            if not lines[i].strip():
                i += 1
                continue
            try:
                name, rows_s, cols_s = lines[i].split()
                rows, cols = int(rows_s), int(cols_s)
                if rows < 0 or cols < 0:
                    raise ValueError("negative tensor shape")
            except ValueError as exc:
                raise ValueError(f"{path}:{i + 1}: bad tensor header {lines[i]!r}") from exc
            if name in store.params:
                raise ValueError(f"{path}:{i + 1}: duplicate tensor {name!r}")
            if i + rows >= len(lines):
                raise ValueError(f"{path}:{len(lines) + 1}: truncated, tensor {name!r} "
                                 f"has {len(lines) - 1 - i} of {rows} rows")
            # Rows are read first, so the array is as big as the file, not the header.
            values = []
            for r, line in enumerate(lines[i + 1:i + 1 + rows]):
                row = line.split()
                if len(row) != cols:
                    raise ValueError(f"{path}:{i + 2 + r}: expected {cols} values, "
                                     f"got {len(row)}")
                try:
                    values.append([float(x) for x in row])
                except ValueError as exc:
                    raise ValueError(f"{path}:{i + 2 + r}: bad value in {line!r}") from exc
            data = np.array(values, dtype=float).reshape(rows, cols)
            finite = np.isfinite(data).all(axis=1)
            if not finite.all():
                raise ValueError(f"{path}:{i + 2 + int(np.argmin(finite))}: non-finite "
                                 f"value in tensor {name!r}")
            store.params[name] = DTensor(data, requires_grad=True)
            i += rows + 1
        return store


class AdamState:
    """Adam with bias correction and a multiplicative per-epoch lr decay."""

    def __init__(self, store: ParamStore, lr: float = 1e-3, decay: float = 0.9):
        self.lr = lr
        self.decay = decay
        self.step_count = 0
        self.m = {name: np.zeros_like(t.values) for name, t in store.params.items()}
        self.v = {name: np.zeros_like(t.values) for name, t in store.params.items()}

    def end_epoch(self) -> None:
        self.lr *= self.decay


def adam_step(store: ParamStore, state: AdamState) -> None:
    """One Adam update from the currently accumulated gradients.

    Parameters without a gradient are skipped entirely (their moments do not
    advance), so a zero-work step leaves the store untouched.
    """
    state.step_count += 1
    t = state.step_count
    for name in store.names():
        tensor = store.params[name]
        if tensor.grad is None:
            continue
        g = tensor.grad
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        tensor.values = tensor.values - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if not np.all(np.isfinite(tensor.values)):
            raise FloatingPointError(f"parameter {name!r} became non-finite during Adam step")


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[ParamStore], DTensor], store: ParamStore,
               h: float = 1e-5, rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    Samples up to :data:`GRAD_CHECK_SAMPLES` coordinates of each tensor (all of
    them when smaller) and returns the worst relative error
    ``|a - n| / max(1e-8, |a| + |n|)``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rng = rng or np.random.default_rng(0)
    store.zero_grads()
    loss = f(store)
    backward(loss)
    analytic = {name: (store[name].grad.copy() if store[name].grad is not None
                       else np.zeros_like(store[name].values))
                for name in store.names()}

    worst = 0.0
    for name in store.names():
        tensor = store[name]
        size = tensor.values.size
        if size <= GRAD_CHECK_SAMPLES:
            flat_indices = np.arange(size)
        else:
            flat_indices = rng.choice(size, size=GRAD_CHECK_SAMPLES, replace=False)
        flat = tensor.values.reshape(-1)
        for fi in flat_indices:
            original = flat[fi]
            flat[fi] = original + h
            up = f(store).item()
            flat[fi] = original - h
            down = f(store).item()
            flat[fi] = original
            numeric = (up - down) / (2.0 * h)
            a = analytic[name].reshape(-1)[fi]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
