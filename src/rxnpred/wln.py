"""Neural relabeling network over molecular graphs.

Atoms exchange messages along bonds for a fixed number of rounds, then a
rank-1 comparison against learned reference edges produces per-atom vectors.
Two message forms are supported:

* ``concat`` (default): the message from ``u`` along bond ``(u, v)`` is
  ``relu(V [h_u, f_uv])``.
* ``gated``: the message is ``relu((Vh h_u) * (Vf f_uv))`` with an elementwise
  product, which guarantees that all-zero input features propagate to exactly
  zero atom vectors (used by the difference-graph scorer so that a do-nothing
  candidate scores exactly zero).

Layer weights ``U1, U2, V`` are shared across rounds; there are no bias
terms. A ``concat`` network first projects its input into the hidden size; a
``gated`` one takes hidden-size input as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import diffengine as de
from .chemgraph import (BOND_FEATURE_DIM, EditDelta, MolGraph, delta_union_arrays,
                        union_arrays)
from .diffengine import DTensor, ParamStore

__all__ = ["FIXED_METADATA", "GraphInputs", "WLNParams", "delta_inputs", "embed_atoms",
           "embed_from_features", "graph_inputs", "model_metadata", "union_inputs"]

# Single-valued settings that model checkpoints record (each network adds
# ``<prefix>.activation`` and ``<prefix>.project``). Loading refuses any other
# value, so a file made for another network fails instead of scoring as this one.
FIXED_METADATA = {"activation": "relu", "include_charge": "0"}


def model_metadata(store: ParamStore, kind: str, variants: tuple[str, str]) -> tuple[str, int]:
    """The variant and hidden size of a model checkpoint of ``kind``, after
    checking its single-valued settings."""
    if store.metadata.get("kind") != kind:
        raise ValueError(f"checkpoint is not a {kind} model")
    for key, value in FIXED_METADATA.items():
        store.meta(key, allowed=(value,))
    return store.meta("variant", allowed=variants), store.meta("hidden", int)


@dataclass
class WLNParams:
    """Weights of one relabeling network; tensors live in a ParamStore."""

    u1: DTensor
    u2: DTensor
    w0: DTensor
    w1: DTensor
    w2: DTensor
    depth: int
    hidden: int
    in_dim: int
    variant: str = "concat"          # "concat" | "gated"
    w_in: DTensor | None = None      # input projection (concat only)
    v: DTensor | None = None         # concat message weights, (hidden+bond, hidden)
    vh: DTensor | None = None        # gated message weights over h_u
    vf: DTensor | None = None        # gated message weights over f_uv

    @classmethod
    def create(cls, store: ParamStore, prefix: str, in_dim: int, hidden: int,
               depth: int, rng: np.random.Generator, variant: str = "concat") -> "WLNParams":
        _check_positive(depth, "depth")
        _check_positive(hidden, "hidden")
        if not _projects(variant) and in_dim != hidden:
            raise ValueError(f"a gated network takes its input unprojected, so in_dim "
                             f"({in_dim}) must equal hidden ({hidden})")
        tensors = {_FIELDS[name]: store.create(f"{prefix}.{name}", *shape, rng)
                   for name, shape in _tensor_shapes(in_dim, hidden, variant).items()}
        for key, value in (("depth", depth), ("hidden", hidden), ("in_dim", in_dim),
                           ("variant", variant), ("activation", "relu"),
                           ("project", int(_projects(variant)))):
            store.metadata[f"{prefix}.{key}"] = str(value)
        return cls(**tensors, depth=depth, hidden=hidden, in_dim=in_dim, variant=variant)

    @classmethod
    def from_store(cls, store: ParamStore, prefix: str, in_dim: int, hidden: int
                   ) -> "WLNParams":
        """The network under ``prefix``, which its model expects to take
        ``in_dim`` features to ``hidden``: its metadata must say so, and
        tensor shapes must match its sizes."""
        variant = store.meta(f"{prefix}.variant", allowed=("concat", "gated"))
        for key, expected in (("in_dim", in_dim), ("hidden", hidden)):
            got = store.meta(f"{prefix}.{key}", int)
            if got != expected:
                raise ValueError(f"{store.where}metadata {prefix}.{key}={got} does not match "
                                 f"the model's {expected}")
        depth = store.meta(f"{prefix}.depth", int)
        _check_positive(depth, f"{store.where}metadata {prefix}.depth")
        store.meta(f"{prefix}.activation", allowed=("relu",))
        store.meta(f"{prefix}.project", allowed=(str(int(_projects(variant))),))
        tensors = {_FIELDS[name]: store.expect(f"{prefix}.{name}", *shape)
                   for name, shape in _tensor_shapes(in_dim, hidden, variant).items()}
        return cls(**tensors, depth=depth, hidden=hidden, in_dim=in_dim, variant=variant)

    def weights(self) -> list[DTensor]:
        """The tensors this network has."""
        return [t for t in (self.w_in, self.u1, self.u2, self.v, self.vh, self.vf,
                            self.w0, self.w1, self.w2) if t is not None]


# Tensor name suffix -> WLNParams field.
_FIELDS = {"U1": "u1", "U2": "u2", "W0": "w0", "W1": "w1", "W2": "w2",
           "Win": "w_in", "V": "v", "Vh": "vh", "Vf": "vf"}


def _check_positive(value: int, name: str) -> None:
    """Raise ``ValueError`` unless a network size (rounds, width) is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _projects(variant: str) -> bool:
    """Whether a network of this message variant projects its input."""
    if variant not in ("concat", "gated"):
        raise ValueError(f"unknown message variant {variant!r}")
    return variant == "concat"


def _tensor_shapes(in_dim: int, hidden: int, variant: str) -> dict[str, tuple[int, int]]:
    """Shape of each tensor of one network, by name suffix, in creation order."""
    shapes = {"U1": (hidden, hidden), "U2": (hidden, hidden), "W0": (hidden, hidden),
              "W1": (BOND_FEATURE_DIM, hidden), "W2": (hidden, hidden)}
    if _projects(variant):  # concat
        shapes.update(Win=(in_dim, hidden), V=(hidden + BOND_FEATURE_DIM, hidden))
    else:
        shapes.update(Vh=(hidden, hidden), Vf=(BOND_FEATURE_DIM, hidden))
    return shapes


@dataclass
class GraphInputs:
    """Directed-edge view of a graph plus constant feature tensors."""

    n_atoms: int
    src: np.ndarray           # sender atom per directed edge (2 per bond)
    dst: np.ndarray           # receiver atom per directed edge
    features: DTensor         # (n_atoms, feature_dim)
    edge_features: DTensor    # (2 * n_bonds, BOND_FEATURE_DIM)

    @cached_property
    def src_plan(self) -> de.SegmentPlan:
        """Directed edges grouped by sender: the backward of gathering senders."""
        return de.SegmentPlan(self.src, self.n_atoms)

    @cached_property
    def dst_plan(self) -> de.SegmentPlan:
        """Directed edges grouped by receiver: the neighbor sums, the final
        sum and the backward of gathering receivers."""
        return de.SegmentPlan(self.dst, self.n_atoms)


def graph_inputs(g: MolGraph) -> GraphInputs:
    return union_inputs([(g, range(g.n_atoms))])


def union_inputs(parts: Iterable[tuple[MolGraph, Sequence[int]]]) -> GraphInputs:
    """Inputs for the disjoint union of ``(graph, atoms)`` parts.

    Each part contributes the listed atoms of its graph, in order, numbered
    after the previous parts' atoms. The atoms must form whole connected
    components, so no bond leaves a part; messages never cross parts and
    every atom embeds exactly as it would in its own graph. The rows come
    from each graph's codes (:func:`~rxnpred.chemgraph.union_arrays`).
    """
    return _inputs(*union_arrays(parts))


def delta_inputs(deltas: Sequence[EditDelta]) -> GraphInputs:
    """:func:`union_inputs` of the deltas' edit-local products, built from
    their reactants' codes and the edits
    (:func:`~rxnpred.chemgraph.delta_union_arrays`) without any graph."""
    return _inputs(*delta_union_arrays(deltas))


def _inputs(features: np.ndarray, src: np.ndarray, dst: np.ndarray,
            edge_features: np.ndarray) -> GraphInputs:
    return GraphInputs(len(features), src, dst, de.constant(features),
                       de.constant(edge_features))


def embed_from_features(gi: GraphInputs, x: DTensor, p: WLNParams) -> DTensor:
    """Run the relabeling rounds and final comparison on given node features.

    Returns the (n_atoms, hidden) atom-vector tensor; isolated atoms come out
    as zero rows (their neighbor sum is empty). The result is one autodiff
    node. Its forward calls the ``diffengine`` ops under ``no_grad``, so op
    patches and counters see each call; when a gradient is needed, it keeps
    the arrays :func:`_embed_backward` reads, and otherwise nothing. Values
    and gradients are bitwise those of the same ops recorded one node each
    (``selfcheck.composed_embed``), as long as ``x``'s own graph does not
    read ``p``'s tensors.
    """
    if x.shape[1] != p.in_dim:
        raise de.ShapeError(f"feature dim {x.shape[1]} != expected {p.in_dim}")
    weights = p.weights()
    record = de.records_grad(x, *weights)
    fe = gi.edge_features
    hs: list[DTensor] = []        # each round's input, then the last round's output
    rounds: list[tuple] = []      # each round's (message factors, messages, neighbor sums)
    with de.no_grad():
        h = de.matmul(x, p.w_in) if p.w_in is not None else x
        for _ in range(p.depth):
            h_src = de.gather_rows(h, gi.src)
            if p.variant == "concat":
                factors: tuple = ()
                msg = de.relu(de.matmul(de.concat_cols(h_src, fe), p.v))
            else:
                factors = (de.matmul(h_src, p.vh), de.matmul(fe, p.vf))
                msg = de.relu(de.mul(*factors))
            neigh = de.segment_sum(msg, gi.dst_plan, gi.n_atoms)
            if record:
                hs.append(h)
                rounds.append((factors, msg, neigh))
            h = de.relu(de.add(de.matmul(h, p.u1), de.matmul(neigh, p.u2)))
        c0 = de.matmul(de.gather_rows(h, gi.src), p.w0)
        c1 = de.matmul(fe, p.w1)
        m1 = de.mul(c0, c1)
        c2 = de.matmul(de.gather_rows(h, gi.dst), p.w2)
        out = de.segment_sum(de.mul(m1, c2), gi.dst_plan, gi.n_atoms)
    if not record:
        return out
    hs.append(h)

    def bwd(g: np.ndarray) -> None:
        _embed_backward(g, gi, x, p, hs, rounds, (c0, c1, m1, c2))

    return DTensor(out.values, parents=(x, *weights), bwd=bwd)


def _embed_backward(g: np.ndarray, gi: GraphInputs, x: DTensor, p: WLNParams,
                    hs: list[DTensor], rounds: list[tuple], last: tuple) -> None:
    """The backward of :func:`embed_from_features`: each composed op's rule,
    with the same kernels on the same array layouts, in the order in which
    ``diffengine.backward`` runs the composed graph.

    That sweep takes the final comparison first, then rounds D..1, so
    ``U1``, ``U2``, ``V`` and ``Vh`` receive one contribution per round in
    that order. The gated ``fe @ Vf`` products hang off constants only, so
    the sweep reaches them last, in rounds 1..D. A round's input receives
    the ``h @ U1`` term first and the gather's scatter-add second; the
    gated network's input ``x`` receives them as two contributions.
    Intermediate gradients skip accumulate's ``+ 0.0``: each reaches a leaf
    only through ``_mm`` (input gradients), ``_mm_seq`` (weight gradients)
    or a scatter-add, which all sum onto ``+0.0``, so the sign of a zero
    never shows, and ``±0.0 * inf`` is the same NaN.
    """
    mm, mm_seq, need = de._mm, de._mm_seq, de._need
    src, dst, fe = gi.src, gi.dst, gi.edge_features.values
    c0, c1, m1, c2 = (t.values for t in last)
    h = hs[-1].values
    g_cmp = g[dst]                      # compared = (c0 * c1) * c2
    g_m1, g_c2 = g_cmp * c2, g_cmp * m1
    g_c0 = g_m1 * c1
    g_h = gi.src_plan.scatter_add(mm(g_c0, p.w0.values.T))
    if need(p.w0):
        p.w0.accumulate(mm_seq(h[src].T, g_c0))
    if need(p.w1):
        p.w1.accumulate(mm_seq(fe.T, g_m1 * c0))
    g_gd = mm(g_c2, p.w2.values.T)
    if need(p.w2):
        p.w2.accumulate(mm_seq(h[dst].T, g_c2))
    g_h += gi.dst_plan.scatter_add(g_gd)

    vf_terms = []
    for r in reversed(range(p.depth)):
        (factors, msg, neigh), h_in = rounds[r], hs[r].values
        g_add = g_h * (hs[r + 1].values > 0)
        inner = r > 0 or p.w_in is not None        # h_in is a result of this node
        if inner:
            g_h = mm(g_add, p.u1.values.T)
        elif need(x):
            x.accumulate(mm(g_add, p.u1.values.T))
        if need(p.u1):
            p.u1.accumulate(mm_seq(h_in.T, g_add))
        if need(p.u2):
            p.u2.accumulate(mm_seq(neigh.values.T, g_add))
        g_msg = mm(g_add, p.u2.values.T)[dst] * (msg.values > 0)
        if p.variant == "concat":
            g_src = mm(g_msg, p.v.values.T)[:, :p.hidden]
            if need(p.v):
                p.v.accumulate(mm_seq(np.concatenate([h_in[src], fe], axis=1).T, g_msg))
        else:
            a, b = (t.values for t in factors)
            g_a = g_msg * b
            g_src = mm(g_a, p.vh.values.T)
            if need(p.vh):
                p.vh.accumulate(mm_seq(h_in[src].T, g_a))
            if need(p.vf):
                vf_terms.append(g_msg * a)
        if inner:
            g_h += gi.src_plan.scatter_add(g_src)
        elif need(x):
            x.accumulate(gi.src_plan.scatter_add(g_src))

    if p.w_in is not None:
        if need(x):
            x.accumulate(mm(g_h, p.w_in.values.T))
        if need(p.w_in):
            p.w_in.accumulate(mm_seq(x.values.T, g_h))
    for g_b in reversed(vf_terms):
        p.vf.accumulate(mm_seq(fe.T, g_b))


def embed_atoms(g: MolGraph, p: WLNParams) -> DTensor:
    """Per-atom vectors for a molecular graph (one row per atom)."""
    gi = graph_inputs(g)
    return embed_from_features(gi, gi.features, p)
