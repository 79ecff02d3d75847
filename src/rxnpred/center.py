"""Reaction-center identification.

Derives the reaction center (the edited pairs, as an ``EditSet``) from
atom-mapped reactions, scores every unordered reactant atom pair with either
a local model (pair atom vectors only) or a global model (attention-weighted
context over all reactant atoms, so disconnected reagents can influence a
pair), and provides the independent per-pair log loss, top-K selection, and
coverage measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import diffengine as de
from .candgen import BondEdit, EditSet
from .chemgraph import ATOM_FEATURE_DIM, BondType, MolGraph
from .diffengine import DTensor, ParamStore
from .wln import (WLNParams, embed_atoms, embed_from_features, inputs, model_header,
                  model_metadata)

__all__ = [
    "PAIR_FEATURE_DIM",
    "CenterModel",
    "center_loss",
    "coverage",
    "reaction_edits",
    "top_k_pairs",
    "upper_pairs",
]

PAIR_FEATURE_DIM = 6  # bond-type one-hot over {none,1,2,3,ar} + same-molecule flag
# Feature row of each pair code (bond type + 5 * same-molecule flag): the
# pair features take only these 10 values. The head gathers rows of
# ``_CODE_ROWS @ Mb``, which equal the gathered rows times ``Mb`` bitwise.
_CODE_ROWS = np.hstack([np.tile(np.eye(5), (2, 1)), np.repeat([[0.0], [1.0]], 5, axis=0)])
_CODE_TABLE = de.constant(_CODE_ROWS)
# Pairs per block of the pair head: its temporaries are (PAIR_BLOCK, hidden).
# 256 is for one-shot runs (`rxnpred predict` in a fresh process, whose heap
# has not grown yet): at hidden 64, blocks of 512 page-faulted about 6x as
# often there. Once a process has trained, the two sizes run alike.
PAIR_BLOCK = 256


def _bond_types(g: MolGraph) -> np.ndarray:
    """(n, n) matrix of ``BondType`` values; NONE (0) wherever no bond is."""
    m = np.zeros((g.n_atoms, g.n_atoms), dtype=np.intp)
    for b in g.bonds:
        m[b.u, b.v] = m[b.v, b.u] = b.bond_type.value
    return m


def reaction_edits(reactants: MolGraph, product: MolGraph) -> EditSet:
    """The recorded reaction as a bond-edit set over reactant atom indices:
    its pairs are the reaction center, each with its product-side bond type.

    A pair counts as changed when both atoms map into the product and the
    bond types differ, or when exactly one does and the reactant bond must
    therefore have broken. Pairs fully outside the product (reagents,
    departed fragments) never change.
    """
    r_map = reactants.map_to_index()
    p_map = product.map_to_index()
    for i, atom in enumerate(product.atoms):
        if atom.map_number is None:
            raise ValueError(f"product atom {i} has no map number")
        if atom.map_number not in r_map:
            raise ValueError(f"product map {atom.map_number} missing from reactants")
    shared = [m for m in r_map if m in p_map]
    r_idx = np.array([r_map[m] for m in shared], dtype=np.intp)
    p_idx = np.array([p_map[m] for m in shared], dtype=np.intp)

    n = reactants.n_atoms
    # Product-side type per reactant pair; a pair with one atom outside the
    # product keeps NONE (its bond broke).
    p_type = np.zeros((n, n), dtype=np.intp)
    p_type[r_idx[:, None], r_idx] = _bond_types(product)[p_idx[:, None], p_idx]
    in_product = np.zeros(n, dtype=bool)
    in_product[r_idx] = True
    us, vs = np.nonzero((in_product[:, None] | in_product)
                        & (p_type != _bond_types(reactants)))
    return EditSet.of(BondEdit(u, v, BondType(int(p_type[u, v])))
                      for u, v in zip(us.tolist(), vs.tolist()) if u < v)


def upper_pairs(n: int) -> np.ndarray:
    """Canonical unordered pair order as an (n(n-1)/2, 2) index array:
    (0,1), (0,2), ..., (n-2, n-1)."""
    return np.column_stack(_triu(n, 1))


def _pair_codes(g: MolGraph, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Per pair (us[i], vs[i]), its row of ``_CODE_ROWS``: the bond type
    between the atoms (NONE for a self pair) and the same-molecule flag.
    Symmetric in u, v."""
    comp = np.asarray(g.component, dtype=np.intp)
    return _bond_types(g)[us, vs] + 5 * (comp[us] == comp[vs])


# ---------------------------------------------------------------------------
# Scoring models
# ---------------------------------------------------------------------------

@dataclass
class CenterModel:
    """WLN atom embeddings plus a pairwise scoring head.

    The local variant scores pairs from their own atom vectors; the global
    variant first forms attention-weighted context vectors over all reactant
    atoms (sigmoid gates, not normalized) and scores pairs from those.
    """

    VARIANTS = ("local", "global")     # the first is the default
    store: ParamStore
    wln: WLNParams
    variant: str                       # one of VARIANTS
    hidden: int

    @classmethod
    def create(cls, variant: str, hidden: int = 64, depth: int = 3,
               seed: int = 0) -> "CenterModel":
        if variant not in cls.VARIANTS:
            raise ValueError(f"unknown center variant {variant!r}")
        rng = np.random.default_rng(seed)
        store = ParamStore(metadata=model_header("center", variant, hidden, seed))
        wln = WLNParams.create(store, "wln", ATOM_FEATURE_DIM, hidden, depth, rng)
        for name, shape in _head_shapes(variant, hidden).items():
            store.create(name, *shape, rng, init="zeros" if name.endswith(".bias") else "xavier")
        return cls(store, wln, variant, hidden)

    @classmethod
    def from_store(cls, store: ParamStore) -> "CenterModel":
        variant, hidden = model_metadata(store, "center", cls.VARIANTS)
        wln = WLNParams.from_store(store, "wln", ATOM_FEATURE_DIM, hidden)
        for name, shape in _head_shapes(variant, hidden).items():
            store.expect(name, *shape)
        return cls(store, wln, variant, hidden)

    @classmethod
    def load(cls, path) -> "CenterModel":
        return cls.from_store(ParamStore.load(path))

    def save(self, path) -> None:
        self.store.save(path)

    # -- scoring: recorded in training, run under no_grad at inference ------

    def _head(self, c: DTensor, us: np.ndarray, vs: np.ndarray, codes: np.ndarray,
              ma: str, mb: str, bias: str, u: str) -> DTensor:
        """Sigmoid scores (len(us), 1) of the pairs (us[i], vs[i]) over atom
        vectors ``c``; ``codes`` gives each pair's row of ``_CODE_ROWS``.

        Pairs gather projected atoms and feature rows, which equal projected
        gathered rows bitwise, as a row of a :func:`diffengine._mm` product
        does not depend on the other rows. The rest runs in blocks of
        ``PAIR_BLOCK`` pairs (one empty block for no pairs).
        """
        s = self.store
        proj = de.matmul(c, s[ma])
        feats = de.matmul(_CODE_TABLE, s[mb])
        blocks = []
        for start in range(0, len(us) or 1, PAIR_BLOCK):
            b = slice(start, start + PAIR_BLOCK)
            z = de.add(de.add(de.gather_rows(proj, us[b]), de.gather_rows(proj, vs[b])),
                       de.gather_rows(feats, codes[b]))
            blocks.append(de.matmul(de.relu(de.add(z, s[bias])), s[u]))
        return de.sigmoid(blocks[0] if len(blocks) == 1 else de.stack_rows(blocks))

    def _attention(self, graphs: Sequence[MolGraph], c: DTensor) -> list[DTensor]:
        """Each graph's (n, n) attention matrix over the rows of ``c`` that
        embed it, ``c`` holding the graphs' atoms in order.

        A pair's code and ``proj[u] + proj[v]`` do not depend on the order of
        u and v, so each matrix is symmetric: only pairs with u <= v are
        scored, all graphs' in one head, and each ordered pair gathers its
        unordered pair's score.
        """
        alpha = self._head(c, *_union_pairs(graphs, 0), "att.Pa", "att.Pb", "att.bias", "att.u")
        out, start = [], 0
        for g in graphs:
            n = g.n_atoms
            us, vs = _triu(n, 0)
            upper = np.empty((n, n), dtype=np.intp)
            upper[us, vs] = upper[vs, us] = start + np.arange(len(us))
            out.append(de.reshape(de.gather_rows(alpha, upper.reshape(-1)), n, n))
            start += len(us)
        return out

    def _scores(self, graphs: Sequence[MolGraph], c: DTensor, us: np.ndarray,
                vs: np.ndarray, codes: np.ndarray) -> DTensor:
        """Scores (len(us), 1) of the pairs (us[i], vs[i]) of the graphs'
        disjoint union, whose WLN atom vectors are ``c``, each pair within one
        graph; ``codes`` gives each pair's row of ``_CODE_ROWS``.

        The global variant first replaces each graph's rows by its context
        rows ``A_g @ c_g``, which stay within the graph. Every step is
        row-wise or within one graph, so a graph scores as it would alone.
        """
        if self.variant == "global":
            alphas = self._attention(graphs, c)
            if len(graphs) == 1:
                c = de.matmul(alphas[0], c)
            else:
                bounds = np.cumsum([0] + [g.n_atoms for g in graphs])
                c = de.stack_rows([de.matmul(a, de.gather_rows(c, np.arange(lo, hi)))
                                   for a, lo, hi in zip(alphas, bounds, bounds[1:])])
        return self._head(c, us, vs, codes, "score.Ma", "score.Mb", "score.bias", "score.u")

    def pair_scores(self, graphs: Sequence[MolGraph]) -> tuple[DTensor, np.ndarray]:
        """Scores (n_pairs, 1) of each graph's :func:`upper_pairs` in turn,
        and those pairs as an (n_pairs, 2) array of atoms of the nonempty list
        of graphs' disjoint union, embedded once (:func:`~rxnpred.wln.inputs`
        of their cached :attr:`~rxnpred.chemgraph.GraphCodes.inputs`). All
        pairs go through one head pass, and one attention pass for the global
        variant. Finite scores are bitwise each graph's alone: messages,
        attention pairs and context products stay within a graph, and a row
        of a :func:`diffengine._mm` product does not depend on the other
        rows."""
        us, vs, codes = _union_pairs(graphs, 1)
        gi = inputs(*(g.codes.inputs for g in graphs))
        c = embed_from_features(gi, gi.features, self.wln)
        return self._scores(graphs, c, us, vs, codes), np.column_stack([us, vs])

    def score_matrix(self, g: MolGraph) -> np.ndarray:
        """Symmetric score matrix with a zero diagonal; the values of
        :meth:`pair_scores`. Records no backward graph, and leaves overflow
        to the callers' non-finite checks instead of numpy warnings."""
        return self.score_matrices([g])[0]

    def score_matrices(self, graphs: Sequence[MolGraph]) -> list[np.ndarray]:
        """:meth:`score_matrix` of each graph, from one :meth:`pair_scores`
        pass over all of them."""
        if not graphs:
            return []
        with de.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            scores, _ = self.pair_scores(graphs)
        matrices, start = [], 0
        for g in graphs:
            us, vs = _triu(g.n_atoms, 1)
            m = np.zeros((g.n_atoms, g.n_atoms))
            m[us, vs] = m[vs, us] = scores.values[start:start + len(us), 0]
            matrices.append(m)
            start += len(us)
        return matrices

    def attention_map(self, g: MolGraph) -> np.ndarray:
        if self.variant != "global":
            raise ValueError("attention is only defined for the global variant")
        with de.no_grad():
            return self._attention([g], embed_atoms(g, self.wln))[0].values


def _triu(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)`` for k = 0 (self pairs kept) or 1, at a
    fraction of its cost."""
    r = np.arange(n)
    return np.nonzero(r[:, None] <= r - k)


def _union_pairs(graphs: Sequence[MolGraph], k: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of the nonempty list of graphs' pairs ``_triu(n, k)`` in turn,
    as rows (us, vs) of the graphs' disjoint union, and their codes."""
    parts, start = [], 0
    for g in graphs:
        us, vs = _triu(g.n_atoms, k)
        parts.append((us + start, vs + start, _pair_codes(g, us, vs)))
        start += g.n_atoms
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))  # type: ignore


def _head_shapes(variant: str, hidden: int) -> dict[str, tuple[int, int]]:
    """Shapes of the pair (and attention) head tensors, in creation order."""
    shapes = {"score.Ma": (hidden, hidden), "score.Mb": (PAIR_FEATURE_DIM, hidden),
              "score.bias": (1, hidden), "score.u": (hidden, 1)}
    if variant == "global":
        shapes.update({"att.Pa": (hidden, hidden), "att.Pb": (PAIR_FEATURE_DIM, hidden),
                       "att.bias": (1, hidden), "att.u": (hidden, 1)})
    return shapes


# ---------------------------------------------------------------------------
# Loss, selection, coverage
# ---------------------------------------------------------------------------

def center_loss(scores: DTensor, pairs: np.ndarray, truth: EditSet) -> DTensor:
    """Binary log loss summed over ``pairs``, an (n_pairs, 2) array of
    unordered pairs (u, v) with u < v as :meth:`CenterModel.pair_scores`
    returns them, each scored by the same row of the (n_pairs, 1) ``scores``.
    A pair is positive when ``truth`` edits it; a truth pair missing from
    ``pairs`` raises ``ValueError``. Logs clamp at 1e-12.
    """
    if scores.shape != (len(pairs), 1):
        raise de.ShapeError(f"expected {(len(pairs), 1)} scores, got {scores.shape}")
    y = np.zeros((len(pairs), 1))
    for u, v in truth.pairs:
        rows = np.flatnonzero((pairs[:, 0] == u) & (pairs[:, 1] == v))
        if not rows.size:
            raise ValueError(f"center_loss: truth pair {(u, v)} is not among the scored pairs")
        y[rows] = 1.0
    y = de.constant(y)
    ones = de.constant(np.ones((len(pairs), 1)))
    pos = de.dot(y, de.log(scores))
    neg = de.dot(de.sub(ones, y), de.log(de.sub(ones, scores)))
    return de.scale(de.add(pos, neg), -1.0)


def top_k_pairs(scores: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Top-K unordered pairs by score; ties break lexicographically by index.

    Asking for more pairs than exist returns them all. A shorter ``k`` gets a
    prefix of a longer one's list. Non-finite scores raise ``ValueError``,
    since they have no place in the order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = upper_pairs(scores.shape[0])
    s = scores[pairs[:, 0], pairs[:, 1]]
    if not np.isfinite(s).all():
        raise ValueError("top_k_pairs: non-finite pair score")
    # upper_pairs lists pairs lexicographically, so a stable sort on the
    # score alone breaks ties by index. Only the scores at or above the k-th
    # highest can be among the top k: they are sorted, in index order.
    keep = (np.flatnonzero(s >= np.partition(s, len(s) - k)[len(s) - k]) if k < len(s)
            else np.arange(len(s)))
    top = keep[np.argsort(-s[keep], kind="stable")[:k]]
    return [tuple(p) for p in pairs[top].tolist()]


def coverage(predicted: Iterable[tuple[int, int]], truth: EditSet) -> bool:
    """True iff every pair that ``truth`` edits occurs among ``predicted``."""
    have = {(min(u, v), max(u, v)) for u, v in predicted}
    return all(p in have for p in truth.pairs)
