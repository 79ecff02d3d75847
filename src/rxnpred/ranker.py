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
from .candgen import Candidate, candidate_deltas
from .chemgraph import ATOM_FEATURE_DIM, EditDeltas, MolGraph, part_arrays
from .diffengine import DTensor, ParamStore
from .wln import (GraphInputs, WLNParams, embed_from_features, inputs, model_header,
                  model_metadata)

__all__ = ["MAX_UNION_CANDIDATES", "RankerModel", "rank_candidates", "rank_reactions",
           "read_atoms"]

# Candidates per union pass. The arrays of one pass then hold at most this
# many edit-local products (the first pass also holds the read reactant
# components), so peak memory under no_grad does not grow with the length of
# a candidate list. 32 is also the fastest of 16/32/64/128 per small-serve
# request (median 12.1/10.5/11.2/10.8 ms on a 2-core Xeon).
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

    def score_reactions(self, reactions: Sequence[tuple[MolGraph, Sequence[Candidate]]]
                        ) -> DTensor:
        """Scores of the candidates of each ``(reactants, candidates)`` pair,
        stacked in order, shape (total candidates, 1).

        The candidates run in passes of up to :data:`MAX_UNION_CANDIDATES`,
        which may mix reactions; a pass holds the disjoint union of its
        candidates' edit-local products (:attr:`Candidate.local_product`),
        whose arrays are slices of each list's edit deltas
        (:func:`~rxnpred.candgen.candidate_deltas`, built once per list:
        :meth:`~rxnpred.chemgraph.EditDeltas.arrays`). The molecule network
        runs once over :func:`~rxnpred.wln.inputs` of the reactant
        components that hold an edited atom of any candidate
        (:func:`read_atoms`; :func:`~rxnpred.chemgraph.part_arrays` of each
        reaction's, in order) followed by the first pass's products; the
        other components are never read. Each later pass embeds its own
        products and gathers the reactant rows of that first union. Scores
        pool per candidate with :func:`~rxnpred.diffengine.segment_sum`.

        Scores are bitwise equal to those of each reaction alone and to
        embedding the reactants and each full product one candidate at a time
        (:func:`~rxnpred.selfcheck.reference_score`). Gradients are bitwise
        equal to those of the same passes over every reactant atom. No message
        crosses components and a row of a :func:`~rxnpred.diffengine._mm`
        product does not depend on the other rows, so a read component and a
        product embed as in their own graphs; an unread component would add
        only zero terms to the weight gradients' sequential sums
        (:func:`~rxnpred.diffengine._mm_seq`). An untouched component's
        product rows equal its reactant rows, so their differences are
        ``+0.0``; the gated difference network maps zero rows to zero rows;
        and a sorted column sum, which starts at ``+0.0``, is unchanged by
        zero addends. (The last step needs ``hidden >= 2``: numpy sums a
        single column pairwise.) With no candidate at all the
        scores are a (0, 1) tensor.
        """
        if not any(candidates for _, candidates in reactions):
            return DTensor(np.zeros((0, 1)))
        lists = [candidate_deltas(reactants, candidates) for reactants, candidates in reactions]
        reads = [read_atoms(deltas) for deltas in lists]
        # the rows of the reactant union that embed each list's local atoms
        rows, offset = [], 0
        for deltas, read in zip(lists, reads):
            rows.append(offset + np.searchsorted(read, deltas.atoms))
            offset += len(read)
        chunks = []
        for n, part in enumerate(_passes([len(deltas) for deltas in lists])):
            products = [lists[r].arrays(start, stop) for r, start, stop in part]
            pass_rows = [rows[r][lists[r].atom_offsets[start]:lists[r].atom_offsets[stop]]
                         for r, start, stop in part]
            sizes = [np.diff(lists[r].atom_offsets[start:stop + 1]) for r, start, stop in part]
            gi_p = inputs(*products)
            if not n:  # the reactant union and the first pass, in one embedding
                gi = inputs(*(part_arrays(reactants, read) for (reactants, _), read
                              in zip(reactions, reads)), *products)
                c = embed_from_features(gi, gi.features, self.wln)
                c_p = de.gather_rows(c, np.arange(offset, gi.n_atoms))
            else:
                c_p = embed_from_features(gi_p, gi_p.features, self.wln)
            chunks.append(self._score_pass(c, np.concatenate(pass_rows),
                                           np.concatenate(sizes), gi_p, c_p))
        return chunks[0] if len(chunks) == 1 else de.stack_rows(chunks)

    def _score_pass(self, c: DTensor, rows: np.ndarray, sizes: np.ndarray,
                    gi_p: GraphInputs, c_p: DTensor) -> DTensor:
        """Scores of a pass's candidates, of ``sizes`` local atoms each,
        embedded by ``c_p`` over their edit-local products ``gi_p``; their
        local atoms' reactant embeddings are ``rows`` of ``c``, in order."""
        owner = np.repeat(np.arange(len(sizes)), sizes)
        d = de.sub(c_p, de.gather_rows(c, rows))
        if self.diff_wln is not None:
            d = embed_from_features(gi_p, d, self.diff_wln)
        head = _HEAD[self.variant]
        m, u = self.store[f"{head}.M"], self.store[f"{head}.u"]
        pooled = de.segment_sum(d, owner, len(sizes))
        return de.matmul(de.relu(de.matmul(pooled, m)), u)


def _passes(lengths: Sequence[int]) -> list[list[tuple[int, int, int]]]:
    """Lists of ``lengths`` candidates, in order, cut into passes of
    :data:`MAX_UNION_CANDIDATES`: each pass as (list, start, stop) runs."""
    passes: list[list[tuple[int, int, int]]] = []
    room = 0
    for r, length in enumerate(lengths):
        start = 0
        while start < length:
            if not room:
                passes.append([])
                room = MAX_UNION_CANDIDATES
            stop = min(length, start + room)
            passes[-1].append((r, start, stop))
            room -= stop - start
            start = stop
    return passes


def read_atoms(deltas: EditDeltas) -> np.ndarray:
    """The reactant atoms whose embeddings the scores of the candidates of
    ``deltas`` read, ascending: those of every component that holds an
    edited atom."""
    return np.unique(deltas.atoms)


# Score head prefix of each variant.
_HEAD = {"wln": "sum", "wldn": "wldn"}


def _head_shapes(head: str, hidden: int) -> dict[str, tuple[int, int]]:
    """Shapes of one score head's tensors, in creation order."""
    return {f"{head}.M": (hidden, hidden), f"{head}.u": (hidden, 1)}


def rank_candidates(reactants: MolGraph, candidates: Sequence[Candidate],
                    model: RankerModel) -> list[Candidate]:
    """Candidates sorted by descending score; ties keep enumeration order.

    Scores are attached to the returned candidates. Scoring records no
    backward graph. A non-finite score raises ``ValueError``, as it has no
    place in the order; numpy's overflow warnings are silenced in its favour.
    """
    return rank_reactions([(reactants, candidates)], model)[0]


def rank_reactions(reactions: Sequence[tuple[MolGraph, Sequence[Candidate]]],
                   model: RankerModel) -> list[list[Candidate]]:
    """:func:`rank_candidates` of each ``(reactants, candidates)`` pair, from
    one :meth:`RankerModel.score_reactions` pass. The first reaction with a
    non-finite score raises."""
    if any(not candidates for _, candidates in reactions):
        raise ValueError("rank_candidates needs a nonempty candidate list")
    with de.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        scores = model.score_reactions(reactions).values[:, 0]
    ranked, start = [], 0
    for _, candidates in reactions:
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
