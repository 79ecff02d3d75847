"""Candidate product scoring and ranking.

Each candidate is summarized by per-atom difference vectors (candidate atom
vector minus reactant atom vector, same atom indexing). The plain scorer
sum-pools those differences through a small head. The difference-network
scorer instead runs a second, separately parameterized relabeling network
over the candidate's graph with the difference vectors as node features
(gated messages, so an all-zero difference graph scores exactly zero),
capturing interactions between neighboring changes. All candidates of one
reaction, or of several, are scored together, over the union of their edited
components (:meth:`RankerModel.score_reactions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import diffengine as de
from .candgen import Candidate
from .chemgraph import ATOM_FEATURE_DIM, MolGraph
from .diffengine import DTensor, ParamStore
from .wln import (WLNParams, delta_inputs, embed_from_features, graph_inputs, model_header,
                  model_metadata, union_inputs)

__all__ = ["MAX_UNION_CANDIDATES", "RankerModel", "difference_vectors",
           "rank_candidates", "rank_loss", "rank_reactions", "read_atoms", "score_sumpool"]

# Candidates per union pass. The arrays of one pass then hold at most this
# many edit-local products, so peak memory under no_grad does not grow with
# the length of a candidate list.
MAX_UNION_CANDIDATES = 32


@dataclass
class RankerModel:
    """A molecule network plus the score head of its variant; the ``wldn``
    variant adds the difference network. The store holds only those tensors."""

    VARIANTS = ("wldn", "wln")  # the first is the default
    store: ParamStore
    wln: WLNParams              # embeds reactants and candidate products
    diff_wln: WLNParams | None  # embeds the difference graph (wldn only)
    variant: str                # "wln" = sum-pooling | "wldn" = difference network
    hidden: int

    @classmethod
    def create(cls, variant: str, hidden: int = 64, depth: int = 3,
               seed: int = 0) -> "RankerModel":
        if variant not in cls.VARIANTS:
            raise ValueError(f"unknown ranker variant {variant!r}")
        rng = np.random.default_rng(seed)
        store = ParamStore(metadata=model_header("ranker", variant, hidden, seed))
        # Both variants draw every tensor in the same order, so a kept
        # tensor's initial value does not depend on the variant; the other
        # variant's tensors go to a store that is dropped.
        unused = ParamStore()
        wln = WLNParams.create(store, "mol", ATOM_FEATURE_DIM, hidden, depth, rng)
        diff = WLNParams.create(store if variant == "wldn" else unused, "diff",
                                hidden, hidden, depth, rng, variant="gated")
        for head in ("sum", "wldn"):
            for name, shape in _head_shapes(head, hidden).items():
                (store if head == _HEAD[variant] else unused).create(name, *shape, rng)
        return cls(store, wln, diff if variant == "wldn" else None, variant, hidden)

    @classmethod
    def from_store(cls, store: ParamStore) -> "RankerModel":
        """The model of the store's variant; tensors of the other variant,
        which older files hold, are left unread."""
        variant, hidden = model_metadata(store, "ranker", cls.VARIANTS)
        wln = WLNParams.from_store(store, "mol", ATOM_FEATURE_DIM, hidden)
        diff = WLNParams.from_store(store, "diff", hidden, hidden) if variant == "wldn" else None
        for name, shape in _head_shapes(_HEAD[variant], hidden).items():
            store.expect(name, *shape)
        return cls(store, wln, diff, variant, hidden)

    @classmethod
    def load(cls, path) -> "RankerModel":
        return cls.from_store(ParamStore.load(path))

    def save(self, path) -> None:
        self.store.save(path)

    def score_candidates(self, reactants: MolGraph,
                         candidates: Sequence[Candidate]) -> DTensor:
        """Differentiable scores of all candidates of one reaction, shape (n, 1):
        :meth:`score_reactions` of that one reaction."""
        return self.score_reactions([(reactants, candidates)])

    def score_reactions(self, reactions: Sequence[tuple[MolGraph, Sequence[Candidate]]]
                        ) -> DTensor:
        """Scores of the candidates of each ``(reactants, candidates)`` pair,
        stacked in order, shape (total candidates, 1).

        The reactant components that hold an edited atom of any candidate
        (:func:`read_atoms`) are embedded once, all reactions' in one union;
        the others are never read. Each pass then embeds the disjoint union of
        up to :data:`MAX_UNION_CANDIDATES` candidates' edit-local products
        (:attr:`Candidate.local_product`), which may belong to several
        reactions, and pools per candidate with
        :func:`~rxnpred.diffengine.segment_sum`. Scores, and for one reaction
        their gradients, are bitwise equal to the full-graph
        :func:`difference_vectors` / :func:`score_sumpool` route, one reaction
        at a time. No message
        crosses components and a row of a :func:`~rxnpred.diffengine._mm`
        product does not depend on the other rows, so a read component embeds
        as in the whole graph; an unread one would add only zero terms to the
        weight gradients' sequential sums (:func:`~rxnpred.diffengine._mm_seq`).
        An untouched component's product rows equal its
        reactant rows, so their differences are ``+0.0``; the gated
        difference network maps zero rows to zero rows; and a sorted column
        sum, which starts at ``+0.0``, is unchanged by zero addends. (The last
        step needs ``hidden >= 2``: numpy sums a single column pairwise.)
        With no candidate at all the scores are a (0, 1) tensor.
        """
        if not any(candidates for _, candidates in reactions):
            return DTensor(np.zeros((0, 1)))
        reads = [read_atoms(candidates) for _, candidates in reactions]
        gi_r = union_inputs([(reactants, read) for (reactants, _), read in zip(reactions, reads)])
        c_r = embed_from_features(gi_r, gi_r.features, self.wln)
        # each candidate with its edited atoms and the rows of c_r that embed them
        items, offset = [], 0
        for (_, candidates), read in zip(reactions, reads):
            atoms = [cand.delta.atoms for cand in candidates]
            rows = offset + np.searchsorted(read, [i for a in atoms for i in a])
            ends = np.cumsum([len(a) for a in atoms], dtype=np.intp)
            items += [(cand, a, rows[end - len(a):end])
                      for cand, a, end in zip(candidates, atoms, ends)]
            offset += len(read)
        chunks = [self._score_union(c_r, items[i:i + MAX_UNION_CANDIDATES])
                  for i in range(0, len(items), MAX_UNION_CANDIDATES)]
        return chunks[0] if len(chunks) == 1 else de.stack_rows(chunks)

    def _score_union(self, c_r: DTensor,
                     items: Sequence[tuple[Candidate, list[int], np.ndarray]]) -> DTensor:
        """Scores of the candidates of ``items``, each given with its edited
        atoms and the rows of ``c_r`` that embed them in the reactants."""
        gi = delta_inputs([cand.delta for cand, _, _ in items])
        owner = np.repeat(np.arange(len(items)), [len(a) for _, a, _ in items])
        rows = np.concatenate([r for _, _, r in items])
        d = de.sub(embed_from_features(gi, gi.features, self.wln), de.gather_rows(c_r, rows))
        if self.diff_wln is not None:
            d = embed_from_features(gi, d, self.diff_wln)
        head = _HEAD[self.variant]
        m, u = self.store[f"{head}.M"], self.store[f"{head}.u"]
        pooled = de.segment_sum(d, owner, len(items))
        return de.matmul(de.relu(de.matmul(pooled, m)), u)


def read_atoms(candidates: Sequence[Candidate]) -> list[int]:
    """The reactant atoms whose embeddings the candidates' scores read,
    ascending: those of every component that holds an edited atom."""
    return sorted({a for cand in candidates for a in cand.delta.atoms})


# Score head prefix of each variant.
_HEAD = {"wln": "sum", "wldn": "wldn"}


def _head_shapes(head: str, hidden: int) -> dict[str, tuple[int, int]]:
    """Shapes of one score head's tensors, in creation order."""
    return {f"{head}.M": (hidden, hidden), f"{head}.u": (hidden, 1)}


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
    place in the order; numpy's overflow warnings are silenced in its favour.
    """
    return _rank([candidates], lambda: model.score_candidates(reactants, candidates))[0]


def rank_reactions(reactions: Sequence[tuple[MolGraph, Sequence[Candidate]]],
                   model: RankerModel) -> list[list[Candidate]]:
    """:func:`rank_candidates` of each ``(reactants, candidates)`` pair, from
    one :meth:`RankerModel.score_reactions` pass: the same lists, scores and
    errors. The first reaction with a non-finite score raises."""
    return _rank([candidates for _, candidates in reactions],
                 lambda: model.score_reactions(reactions))


def _rank(lists: list[Sequence[Candidate]], score) -> list[list[Candidate]]:
    """Each candidate list sorted by its rows of ``score()``, the (n, 1)
    scores of all lists stacked in order."""
    if any(not candidates for candidates in lists):
        raise ValueError("rank_candidates needs a nonempty candidate list")
    with de.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        scores = score().values[:, 0]
    ranked, start = [], 0
    for candidates in lists:
        own = scores[start:start + len(candidates)]
        start += len(candidates)
        bad = np.flatnonzero(~np.isfinite(own))
        if bad.size:
            raise ValueError(f"rank_candidates: non-finite score {own[bad[0]]} "
                             f"for candidate {bad[0]} of {len(candidates)}")
        for cand, value in zip(candidates, own):
            cand.score = float(value)
        ranked.append(sorted(candidates, key=lambda c: -c.score))
    return ranked
