"""Minimal reverse-mode autodiff over dense 2-D float64 tensors.

Every operation records a backward rule on the output node; ``backward`` runs
a reverse topological sweep from a scalar root. Reductions that sum over
graph elements (``segment_sum``, ``sum_rows``) add their addends in value
order per column, which makes forward results bitwise invariant under input
row permutations. Includes Xavier initialization, an Adam optimizer with
per-epoch learning-rate decay, a plain-text checkpoint format, and a
finite-difference gradient checker.

Checkpoint format (byte-exact): first line ``REXGEN-CKPT v1``; then zero or
more metadata lines ``# key=value`` sorted by key; then per tensor, sorted by
name: one line ``name rows cols`` followed by ``rows`` lines of ``cols``
decimal floats (``repr`` round-trip precision), row-major.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "AdamState",
    "DTensor",
    "ParamStore",
    "ShapeError",
    "add",
    "backward",
    "concat_cols",
    "constant",
    "dot",
    "gather_matmul",
    "gather_rows",
    "grad_check",
    "log",
    "matmul",
    "matvec",
    "mul",
    "no_grad",
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
    """A 2-D float64 value node; leaves with ``requires_grad`` accumulate grads."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, values: np.ndarray, requires_grad: bool = False,
                 parents: tuple = (), bwd: Callable[[np.ndarray], None] | None = None):
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
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

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
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
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
    if a.shape != b.shape:
        if b.shape == (1, a.shape[1]):
            out = a.values + b.values

            def bwd(g: np.ndarray) -> None:
                if _need(a):
                    a.accumulate(g)
                if _need(b):
                    b.accumulate(g.sum(axis=0, keepdims=True))

            return _track(out, (a, b), bwd)
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g)
        if _need(b):
            b.accumulate(g)

    return _track(a.values + b.values, (a, b), bwd)


def sub(a: DTensor, b: DTensor) -> DTensor:
    _check_same(a, b, "sub")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g)
        if _need(b):
            b.accumulate(-g)

    return _track(a.values - b.values, (a, b), bwd)


def mul(a: DTensor, b: DTensor) -> DTensor:
    """Elementwise (Hadamard) product."""
    _check_same(a, b, "mul")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g * b.values)
        if _need(b):
            b.accumulate(g * a.values)

    return _track(a.values * b.values, (a, b), bwd)


def scale(a: DTensor, s: float) -> DTensor:
    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g * s)

    return _track(a.values * s, (a,), bwd)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum (unoptimized) keeps each output element an independent sequential
    # sum, so row values are bitwise stable under row reordering; BLAS kernels
    # are not, which would break exact permutation-equivariance guarantees.
    return np.einsum("ij,jk->ik", a, b, optimize=False)


def matmul(a: DTensor, b: DTensor) -> DTensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(_mm(g, b.values.T))
        if _need(b):
            b.accumulate(_mm(a.values.T, g))

    return _track(_mm(a.values, b.values), (a, b), bwd)


def matvec(a: DTensor, v: DTensor) -> DTensor:
    """Matrix times column vector; thin wrapper over :func:`matmul`."""
    if v.shape[1] != 1:
        raise ShapeError(f"matvec: second operand must be a column, got {v.shape}")
    return matmul(a, v)


def relu(a: DTensor) -> DTensor:
    mask = a.values > 0

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g * mask)

    return _track(a.values * mask, (a,), bwd)


def sigmoid(a: DTensor) -> DTensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g * out * (1.0 - out))

    return _track(out, (a,), bwd)


def tanh(a: DTensor) -> DTensor:
    out = np.tanh(a.values)

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g * (1.0 - out * out))

    return _track(out, (a,), bwd)


def log(a: DTensor) -> DTensor:
    """Natural log clamped below at 1e-12; zero gradient inside the clamp."""
    clamped = np.maximum(a.values, LOG_CLAMP)

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g * np.where(a.values >= LOG_CLAMP, 1.0 / clamped, 0.0))

    return _track(np.log(clamped), (a,), bwd)


def concat_cols(a: DTensor, b: DTensor) -> DTensor:
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g[:, :ca])
        if _need(b):
            b.accumulate(g[:, ca:])

    return _track(np.concatenate([a.values, b.values], axis=1), (a, b), bwd)


def reshape(a: DTensor, rows: int, cols: int) -> DTensor:
    if rows * cols != a.values.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as ({rows}, {cols})")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g.reshape(a.shape))

    return _track(a.values.reshape(rows, cols).copy(), (a,), bwd)


def gather_rows(a: DTensor, indices: Sequence[int] | np.ndarray) -> DTensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            acc = np.zeros_like(a.values)
            np.add.at(acc, idx, g)
            a.accumulate(acc)

    return _track(a.values[idx].reshape(len(idx), a.shape[1]), (a,), bwd)


def gather_matmul(a: DTensor, w: DTensor, indices: Sequence[int] | np.ndarray) -> DTensor:
    """Rows ``indices`` of ``a @ w``, projecting each row of ``a`` once.

    Values and gradients are bitwise equal to
    ``matmul(gather_rows(a, indices), w)``: :func:`_mm` computes every output
    row on its own, and the backward pass repeats that pair's arithmetic.
    """
    if a.shape[1] != w.shape[0]:
        raise ShapeError(f"gather_matmul: inner dims differ, {a.shape} @ {w.shape}")
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_matmul: index out of range for {a.shape[0]} rows")

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            acc = np.zeros_like(a.values)
            np.add.at(acc, idx, _mm(g, w.values.T))
            a.accumulate(acc)
        if _need(w):
            w.accumulate(_mm(a.values[idx].T, g))

    # The gathered rows are C-contiguous, so project a C-contiguous ``a`` too.
    return _track(_mm(np.ascontiguousarray(a.values), w.values)[idx], (a, w), bwd)


def segment_sum(a: DTensor, segments: Sequence[int] | np.ndarray, n_segments: int) -> DTensor:
    """Sum rows of ``a`` into ``n_segments`` buckets given per-row segment ids.

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
    seg = np.asarray(segments, dtype=np.intp)
    if seg.shape != (a.shape[0],):
        raise ShapeError(f"segment_sum: got {seg.shape[0] if seg.ndim else 0} ids "
                         f"for {a.shape[0]} rows")
    if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
        raise ShapeError(f"segment_sum: segment id out of range [0, {n_segments})")
    out = np.zeros((n_segments, a.shape[1]))
    if seg.size:
        order = np.argsort(seg, kind="stable")
        counts = np.bincount(seg, minlength=n_segments)
        starts = np.cumsum(counts) - counts
        width = int(counts.max())
        if width in _SORTING_NETWORKS and np.isfinite(a.values).all():
            # rows[k] holds row k of every segment; index a.shape[0] is the
            # +0.0 padding row
            by_seg = seg[order]
            idx = np.full((width, n_segments), a.shape[0])
            idx[np.arange(seg.size) - starts[by_seg], by_seg] = order
            rows = list(np.concatenate([a.values, np.zeros((1, a.shape[1]))])[idx])
            for i, j in _SORTING_NETWORKS[width]:
                rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
            for row in rows:
                out += row
        else:
            for size in np.unique(counts[counts > 0]):
                ids = np.flatnonzero(counts == size)
                block = a.values[order[starts[ids][:, None] + np.arange(size)]]
                block.sort(axis=1)
                out[ids] = block.sum(axis=1)

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(g[seg])

    return _track(out, (a,), bwd)


# Compare-exchange pairs that sort a segment of 1 to 4 rows per column, up to
# the order of the first two rows, which the sum does not see (a + b == b + a).
_SORTING_NETWORKS = {1: (), 2: (), 3: ((0, 1), (1, 2)),
                     4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def sum_rows(a: DTensor) -> DTensor:
    """Column sums as a (1, cols) row; row-order invariant (value-sorted)."""
    out = np.sort(a.values, axis=0).sum(axis=0, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        if _need(a):
            a.accumulate(np.repeat(g, a.shape[0], axis=0))

    return _track(out, (a,), bwd)


def dot(a: DTensor, b: DTensor) -> DTensor:
    """Full contraction of two same-shape tensors into a 1x1 scalar."""
    _check_same(a, b, "dot")
    out = np.array([[float(np.sum(a.values * b.values))]])

    def bwd(g: np.ndarray) -> None:
        s = g[0, 0]
        if _need(a):
            a.accumulate(s * b.values)
        if _need(b):
            b.accumulate(s * a.values)

    return _track(out, (a, b), bwd)


def stack_rows(tensors: Sequence[DTensor]) -> DTensor:
    """Stack (r_i, c) tensors, usually single rows, into a (sum r_i, c) tensor."""
    if not tensors:
        raise ShapeError("stack_rows: empty input")
    cols = tensors[0].shape[1]
    for t in tensors:
        if t.shape[1] != cols:
            raise ShapeError(f"stack_rows: expected {cols} columns, got {t.shape}")
    out = np.concatenate([t.values for t in tensors], axis=0)
    ends = np.cumsum([t.shape[0] for t in tensors])

    def bwd(g: np.ndarray) -> None:
        for t, end in zip(tensors, ends):
            if _need(t):
                t.accumulate(g[end - t.shape[0]:end])

    return _track(out, tuple(tensors), bwd)


def softmax_logloss(scores: DTensor, target_index: int) -> DTensor:
    """Negative log softmax probability of ``target_index`` over a column of scores."""
    if scores.shape[1] != 1 or scores.shape[0] == 0:
        raise ShapeError(f"softmax_logloss: need a nonempty column, got {scores.shape}")
    if not 0 <= target_index < scores.shape[0]:
        raise ShapeError(f"softmax_logloss: target {target_index} out of range")
    s = scores.values[:, 0]
    shift = s - s.max()
    log_z = math.log(np.exp(shift).sum())
    out = np.array([[log_z - shift[target_index]]])
    softmax = np.exp(shift - log_z)

    def bwd(g: np.ndarray) -> None:
        if _need(scores):
            grad = softmax.copy()
            grad[target_index] -= 1.0
            scores.accumulate(g[0, 0] * grad.reshape(-1, 1))

    return _track(out, (scores,), bwd)


# ---------------------------------------------------------------------------
# Backward sweep
# ---------------------------------------------------------------------------

def backward(loss: DTensor) -> None:
    """Run the reverse sweep from a 1x1 root, accumulating exact gradients
    into every reachable ``requires_grad`` leaf.

    Gradients on intermediate nodes are freed once consumed; leaf gradients
    add onto whatever is already there (zero them between steps).
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
        if node._bwd is not None:
            node._bwd(node.grad)
        if not node.requires_grad:
            node.grad = None


# ---------------------------------------------------------------------------
# Parameters, optimizer, checkpoints
# ---------------------------------------------------------------------------

def xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


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

    def expect(self, name: str, rows: int, cols: int) -> DTensor:
        """The tensor ``name``; ``ValueError`` unless it exists with shape (rows, cols)."""
        where = f"{self.path}: " if self.path else ""
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
        where = f"{self.path}: " if self.path else ""
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
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CKPT_HEADER:
            raise ValueError(f"{path}: not a {CKPT_HEADER!r} checkpoint")
        store = cls()
        store.path = str(path)
        i = 1
        while i < len(lines) and lines[i].startswith("# "):
            key, _, value = lines[i][2:].partition("=")
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
            if i + rows >= len(lines):
                raise ValueError(f"{path}:{len(lines) + 1}: truncated, tensor {name!r} "
                                 f"has {len(lines) - 1 - i} of {rows} rows")
            data = np.empty((rows, cols))
            for r, line in enumerate(lines[i + 1:i + 1 + rows]):
                row = line.split()
                if len(row) != cols:
                    raise ValueError(f"{path}:{i + 2 + r}: expected {cols} values, "
                                     f"got {len(row)}")
                try:
                    data[r] = [float(x) for x in row]
                except ValueError as exc:
                    raise ValueError(f"{path}:{i + 2 + r}: bad value in {line!r}") from exc
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
