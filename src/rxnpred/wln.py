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
           "embed_from_features", "graph_inputs", "join_inputs", "model_header",
           "model_metadata", "union_inputs"]

# Single-valued settings that model checkpoints record (each network adds
# ``<prefix>.activation`` and ``<prefix>.project``). Loading refuses any other
# value, so a file made for another network fails instead of scoring as this one.
FIXED_METADATA = {"activation": "relu", "include_charge": "0"}


def model_header(kind: str, variant: str, hidden: int, seed: int) -> dict[str, str]:
    """The metadata a new model checkpoint of ``kind`` starts with; its
    networks add their own. :func:`model_metadata` reads it back."""
    return {"kind": kind, "variant": variant, "hidden": str(hidden), "seed": str(seed),
            "version": "1", **FIXED_METADATA}


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
    def dst_plan(self) -> de.SegmentPlan:
        """Directed edges grouped by receiver: the neighbor sums and the
        final sum."""
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


def join_inputs(first: GraphInputs, second: GraphInputs) -> GraphInputs:
    """The disjoint union of two inputs, ``second``'s atoms numbered after
    ``first``'s: one network pass then embeds both."""
    n = first.n_atoms
    return _inputs(np.concatenate([first.features.values, second.features.values]),
                   np.concatenate([first.src, second.src + n]),
                   np.concatenate([first.dst, second.dst + n]),
                   np.concatenate([first.edge_features.values, second.edge_features.values]))


def _inputs(features: np.ndarray, src: np.ndarray, dst: np.ndarray,
            edge_features: np.ndarray) -> GraphInputs:
    return GraphInputs(len(features), src, dst, de.constant(features),
                       de.constant(edge_features))


def embed_from_features(gi: GraphInputs, x: DTensor, p: WLNParams) -> DTensor:
    """Run the relabeling rounds and final comparison on given node features.

    Returns the (n_atoms, hidden) atom-vector tensor; isolated atoms come out
    as zero rows (their neighbor sum is empty). Every step is a ``diffengine``
    op, recorded as its own autodiff node when a gradient is needed, so op
    patches and counters see each call and ``diffengine.backward`` gives the
    gradients.
    """
    if x.shape[1] != p.in_dim:
        raise de.ShapeError(f"feature dim {x.shape[1]} != expected {p.in_dim}")
    h = de.matmul(x, p.w_in) if p.w_in is not None else x
    fe = gi.edge_features
    for _ in range(p.depth):
        h_src = de.gather_rows(h, gi.src)
        if p.variant == "concat":
            msg = de.relu(de.matmul(de.concat_cols(h_src, fe), p.v))
        else:
            msg = de.relu(de.mul(de.matmul(h_src, p.vh), de.matmul(fe, p.vf)))
        neigh = de.segment_sum(msg, gi.dst_plan, gi.n_atoms)
        h = de.relu(de.add(de.matmul(h, p.u1), de.matmul(neigh, p.u2)))
    compared = de.mul(de.mul(de.matmul(de.gather_rows(h, gi.src), p.w0),
                             de.matmul(fe, p.w1)),
                      de.matmul(de.gather_rows(h, gi.dst), p.w2))
    return de.segment_sum(compared, gi.dst_plan, gi.n_atoms)


def embed_atoms(g: MolGraph, p: WLNParams) -> DTensor:
    """Per-atom vectors for a molecular graph (one row per atom)."""
    gi = graph_inputs(g)
    return embed_from_features(gi, gi.features, p)
