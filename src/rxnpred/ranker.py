"""Candidate product scoring and ranking.

Each candidate is summarized by per-atom difference vectors (candidate atom
vector minus reactant atom vector, same atom indexing). The plain scorer
sum-pools those differences through a small head. The difference-network
scorer instead runs a second, separately parameterized relabeling network
over the candidate's graph with the difference vectors as node features
(gated messages, so an all-zero difference graph scores exactly zero),
capturing interactions between neighboring changes. All candidates of one
reaction are scored together, over the union of their edited components
(:meth:`RankerModel.score_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import diffengine as de
from .candgen import Candidate
from .chemgraph import ATOM_FEATURE_DIM, MolGraph
from .diffengine import DTensor, ParamStore
from .wln import (FIXED_METADATA, WLNParams, embed_from_features, graph_inputs,
                  model_metadata, union_inputs)

__all__ = ["MAX_UNION_CANDIDATES", "RankerModel", "difference_vectors",
           "rank_candidates", "rank_loss", "read_atoms", "score_sumpool"]

# Candidates per union pass. Bounds the arrays of one pass, so that peak
# memory under no_grad stays near the per-candidate path's.
MAX_UNION_CANDIDATES = 32


@dataclass
class RankerModel:
    """Two relabeling networks (molecule and difference graph) plus score heads."""

    store: ParamStore
    wln: WLNParams            # embeds reactants and candidate products
    diff_wln: WLNParams       # embeds the difference graph (gated messages)
    variant: str              # "wln" = sum-pooling | "wldn" = difference network
    hidden: int

    @classmethod
    def create(cls, variant: str, hidden: int = 64, depth: int = 3,
               seed: int = 0) -> "RankerModel":
        if variant not in ("wln", "wldn"):
            raise ValueError(f"unknown ranker variant {variant!r}")
        rng = np.random.default_rng(seed)
        store = ParamStore(metadata={
            "kind": "ranker", "variant": variant, "hidden": str(hidden),
            "seed": str(seed), "version": "1", **FIXED_METADATA,
        })
        wln = WLNParams.create(store, "mol", ATOM_FEATURE_DIM, hidden, depth, rng)
        diff = WLNParams.create(store, "diff", hidden, hidden, depth, rng, variant="gated")
        for name, shape in _head_shapes(hidden).items():
            store.create(name, *shape, rng)
        return cls(store, wln, diff, variant, hidden)

    @classmethod
    def from_store(cls, store: ParamStore) -> "RankerModel":
        variant, hidden = model_metadata(store, "ranker", ("wln", "wldn"))
        wln, diff = WLNParams.from_store(store, "mol"), WLNParams.from_store(store, "diff")
        for name, shape in _head_shapes(hidden).items():
            store.expect(name, *shape)
        return cls(store, wln, diff, variant, hidden)

    @classmethod
    def load(cls, path) -> "RankerModel":
        return cls.from_store(ParamStore.load(path))

    def save(self, path) -> None:
        self.store.save(path)

    def score_candidates(self, reactants: MolGraph,
                         candidates: Sequence[Candidate]) -> DTensor:
        """Differentiable scores of all candidates of one reaction, shape (n, 1).

        The reactant components that hold an edited atom of any candidate
        (:func:`read_atoms`) are embedded once; the others are never read.
        Each pass then embeds the disjoint union of up to
        :data:`MAX_UNION_CANDIDATES` candidates' edit-local products
        (:attr:`Candidate.local_product`) and pools per candidate with
        :func:`~rxnpred.diffengine.segment_sum`. Scores and their gradients
        are bitwise equal to the full-graph :func:`difference_vectors` /
        :func:`score_sumpool` route. No message crosses components and
        :func:`~rxnpred.diffengine._mm` computes each row on its own, so a read
        component embeds as in the whole graph, and an unread one would add
        only zero terms to the sequential sums of the backward pass. An
        untouched component's product rows equal its reactant rows, so their
        differences are ``+0.0``; the gated difference network maps zero rows
        to zero rows; and a sorted column sum, which starts at ``+0.0``, is
        unchanged by zero addends. (The last step needs ``hidden >= 2``: numpy
        sums a single column pairwise.)
        """
        read = read_atoms(candidates)
        gi_r = union_inputs([(reactants, read)])
        c_r = embed_from_features(gi_r, gi_r.features, self.wln)
        chunks = [self._score_union(c_r, read, candidates[i:i + MAX_UNION_CANDIDATES])
                  for i in range(0, len(candidates), MAX_UNION_CANDIDATES)]
        return chunks[0] if len(chunks) == 1 else de.stack_rows(chunks)

    def _score_union(self, c_r: DTensor, read: Sequence[int],
                     candidates: Sequence[Candidate]) -> DTensor:
        """Scores of ``candidates``; row ``i`` of ``c_r`` embeds reactant atom
        ``read[i]`` (ascending)."""
        atoms = [cand.edited_atoms() for cand in candidates]
        gi = union_inputs([(cand.local_product, range(len(a)))
                           for cand, a in zip(candidates, atoms)])
        owner = np.repeat(np.arange(len(candidates)), [len(a) for a in atoms])
        rows = np.searchsorted(read, [i for a in atoms for i in a])
        d = de.sub(embed_from_features(gi, gi.features, self.wln), de.gather_rows(c_r, rows))
        if self.variant == "wln":
            m, u = self.store["sum.M"], self.store["sum.u"]
        else:
            d = embed_from_features(gi, d, self.diff_wln)
            m, u = self.store["wldn.M"], self.store["wldn.u"]
        pooled = de.segment_sum(d, owner, len(candidates))
        return de.matmul(de.relu(de.matmul(pooled, m)), u)


def read_atoms(candidates: Sequence[Candidate]) -> list[int]:
    """The reactant atoms whose embeddings the candidates' scores read,
    ascending: those of every component that holds an edited atom."""
    return sorted({a for cand in candidates for a in cand.edited_atoms()})


def _head_shapes(hidden: int) -> dict[str, tuple[int, int]]:
    """Shapes of both score heads' tensors, in creation order."""
    return {"sum.M": (hidden, hidden), "sum.u": (hidden, 1),
            "wldn.M": (hidden, hidden), "wldn.u": (hidden, 1)}


def difference_vectors(reactants: MolGraph, candidate: Candidate, wln: WLNParams) -> DTensor:
    """Per-atom difference vectors (candidate minus reactant embedding).

    Candidate product graphs keep the reactant atom indexing, so the
    subtraction is row-aligned. Atoms whose neighborhood the edits never
    touch come out exactly zero.
    """
    gi_r = graph_inputs(reactants)
    c_r = embed_from_features(gi_r, gi_r.features, wln)
    gi_p = graph_inputs(candidate.product)
    return de.sub(embed_from_features(gi_p, gi_p.features, wln), c_r)


def score_sumpool(d: DTensor, m: DTensor, u: DTensor) -> DTensor:
    """Head ``u' relu(M sum_v d_v)`` over per-atom difference vectors."""
    return de.matmul(de.relu(de.matmul(de.sum_rows(d), m)), u)


def rank_loss(scores: DTensor, true_index: int) -> DTensor:
    """Softmax log loss over the (n, 1) score column, with the true candidate
    as the target. An empty column raises ``ValueError``."""
    return de.softmax_logloss(scores, true_index)


def rank_candidates(reactants: MolGraph, candidates: Sequence[Candidate],
                    model: RankerModel) -> list[Candidate]:
    """Candidates sorted by descending score; ties keep enumeration order.

    Scores are attached to the returned candidates. Scoring records no
    backward graph. A non-finite score raises ``ValueError``, as it has no
    place in the order.
    """
    if not candidates:
        raise ValueError("rank_candidates needs a nonempty candidate list")
    with de.no_grad():
        scores = model.score_candidates(reactants, candidates).values[:, 0]
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"rank_candidates: non-finite score {scores[bad[0]]} "
                         f"for candidate {bad[0]} of {len(candidates)}")
    for cand, score in zip(candidates, scores):
        cand.score = float(score)
    return sorted(candidates, key=lambda c: -c.score)
