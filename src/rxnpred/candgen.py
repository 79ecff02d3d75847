"""Candidate product enumeration from predicted reactive atom pairs.

Every nonempty subset of the top-scoring pairs (up to ``max_changes`` pairs
at once) combined with every per-pair bond reassignment yields one candidate
edit set. Candidates must keep every atom within its valence budget and must
form a connected set of edits; aromatic bonds may only be created between
atoms already flagged aromatic. Enumeration order is deterministic: subsets
by size then position, assignments in bond-alphabet order.

The cost follows the edited atoms, not the molecule: an edit set is built
only for an assignment that passes, and a candidate's product only as a
delta over the reactant components that hold an edited atom, for its whole
list at once, on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .chemgraph import (BondType, EditDelta, EditDeltas, MolGraph, apply_edits, edit_deltas,
                        make_graph, valence_limit)

__all__ = [
    "BOND_ALPHABET",
    "BondEdit",
    "Candidate",
    "EditSet",
    "EnumerationResult",
    "MAX_CANDIDATES",
    "candidate_deltas",
    "connectivity_ok",
    "enumerate_candidates",
]

BOND_ALPHABET = (BondType.NONE, BondType.SINGLE, BondType.DOUBLE,
                 BondType.TRIPLE, BondType.AROMATIC)
# Longest candidate list one enumeration returns; past it the list is truncated.
MAX_CANDIDATES = 2000


class BondEdit(NamedTuple):
    u: int
    v: int
    bond_type: BondType


@dataclass(frozen=True)
class EditSet:
    """A normalized set of bond edits: pairs distinct, u < v, sorted."""

    edits: tuple[BondEdit, ...]

    @classmethod
    def of(cls, edits: Iterable[tuple[int, int, BondType] | BondEdit]) -> "EditSet":
        normalized = []
        pairs = set()
        for u, v, bt in edits:
            if u == v:
                raise ValueError(f"edit on identical atoms ({u},{u})")
            lo, hi = (u, v) if u < v else (v, u)
            if (lo, hi) in pairs:
                raise ValueError(f"duplicate pair ({lo},{hi}) in edit set")
            pairs.add((lo, hi))
            normalized.append(BondEdit(lo, hi, bt))
        return cls(tuple(sorted(normalized)))

    def __iter__(self) -> Iterator[BondEdit]:
        return iter(self.edits)

    def __len__(self) -> int:
        return len(self.edits)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.u, e.v) for e in self.edits)

    def atoms(self) -> set[int]:
        return {a for e in self.edits for a in (e.u, e.v)}


class Candidate:
    """One candidate outcome: an edit set over the reactants.

    Its edit-local product as changes to the reactants' codes, which the
    ranker embeds, is built for the candidate's whole list at once
    (:func:`candidate_deltas`) and cached; :attr:`delta` is the
    candidate's slice. The full product graph is built on first use and
    cached. The edit-local product graph, which ``predict`` writes, is
    built from the delta on each access: the one builder of that graph."""

    __slots__ = ("edits", "_reactants", "_deltas", "_index", "_product", "score")

    def __init__(self, edits: EditSet, reactants: MolGraph):
        self.edits = edits
        self._reactants = reactants
        self._deltas: EditDeltas | None = None
        self._index = 0  # the candidate's row of _deltas
        self._product: MolGraph | None = None
        self.score: float | None = None

    @property
    def product(self) -> MolGraph:
        if self._product is None:
            self._product = apply_edits(self._reactants, self.edits)
        return self._product

    @property
    def delta(self) -> EditDelta:
        """This candidate's :class:`~rxnpred.chemgraph.EditDelta`, from
        its list's deltas, or a list of its own when it has none."""
        if self._deltas is None:
            candidate_deltas(self._reactants, [self])
        return self._deltas[self._index]

    @property
    def local_product(self) -> MolGraph:
        """The product components that hold an edited atom; atom ``i`` is
        reactant atom ``delta.atoms[i]``. Every other component is a
        reactant component left untouched."""
        d = self.delta
        return make_graph([self._reactants.atoms[a] for a in d.atoms],
                          ((u, v, BondType(t)) for u, v, t in d.bonds))

    def __repr__(self) -> str:
        return f"Candidate({list(self.edits)}, score={self.score})"


def candidate_deltas(reactants: MolGraph, candidates: Sequence[Candidate]) -> EditDeltas:
    """The :class:`~rxnpred.chemgraph.EditDeltas` of ``candidates``, in
    order, over ``reactants``: the candidates' own when they hold one list's
    deltas in this order, otherwise one :func:`~rxnpred.chemgraph.edit_deltas`
    call over the list, which the candidates then hold."""
    deltas = candidates[0]._deltas if candidates else None
    if deltas is not None and len(deltas) == len(candidates) and all(
            cand._deltas is deltas and cand._index == i for i, cand in enumerate(candidates)):
        return deltas
    deltas = edit_deltas(reactants, [cand.edits for cand in candidates])
    for i, cand in enumerate(candidates):
        cand._deltas, cand._index = deltas, i
    return deltas


@dataclass
class EnumerationResult:
    """The candidates of one enumeration and what its filters did.

    ``subsets`` counts the subsets of distinct pairs examined;
    ``disconnected`` and ``preexisting`` those rejected before any
    assignment, for edits that do not form one connected set and for a
    valence violation at an atom outside the subset. ``pruned`` counts
    (partial) assignments cut by the valence bound, ``duplicates`` edit
    sets an earlier subset already produced (repeated input pairs).
    """

    candidates: list[Candidate]
    truncated: bool = False
    subsets: int = 0
    disconnected: int = 0
    preexisting: int = 0
    pruned: int = 0
    duplicates: int = 0

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)


def connectivity_ok(edits: Iterable[tuple[int, int, BondType] | BondEdit]) -> bool:
    """True iff the edited pairs form one connected auxiliary graph."""
    edges = [(e[0], e[1]) for e in edits]
    if not edges:
        raise ValueError("connectivity is undefined for an empty edit set")
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    roots = {find(a) for e in edges for a in e}
    return len(roots) == 1


def enumerate_candidates(reactants: MolGraph, pairs: list[tuple[int, int]], max_changes: int,
                         max_candidates: int = MAX_CANDIDATES) -> EnumerationResult:
    """All edit assignments over subsets of at most ``max_changes`` of
    ``pairs`` that pass the filters.

    ``pairs`` is the top-K list from the center model; a pair of one atom or
    of an atom outside ``reactants`` raises ``ValueError``, and so does a
    limit below 1. Output order is by subset size, then subset position, then
    assignment in alphabet order; duplicates (from repeated input pairs) are
    dropped. Exceeding ``max_candidates`` truncates the list and sets the
    ``truncated`` flag.

    Each subset is checked for connectivity and for a pre-existing valence
    violation outside its atoms before any assignment. Its pairs are then
    assigned depth-first, tracking each atom's half-order sum. Assigning a
    pair cuts the branch when one of its atoms would end at or above its
    bound even if every later pair at that atom took its most negative
    change; a later deletion can free valence, so a plain "already over"
    test would be unsound. An atom's last pair has no later change, so that
    check is exact: the full assignments that survive are exactly those that
    keep every atom within its valence.
    """
    if max_changes < 1 or max_candidates < 1:
        raise ValueError(f"max_changes and max_candidates must be >= 1, "
                         f"got {max_changes} and {max_candidates}")
    norm_pairs: list[tuple[int, int]] = []
    for u, v in pairs:
        if u == v:
            raise ValueError(f"pair ({u},{u}) is not a valid atom pair")
        if not (0 <= u < reactants.n_atoms and 0 <= v < reactants.n_atoms):
            raise ValueError(f"pair ({u},{v}) references an atom outside the "
                             f"{reactants.n_atoms}-atom reactants")
        norm_pairs.append((min(u, v), max(u, v)))

    current = {p: reactants.bond_type_between(*p) for p in norm_pairs}
    half = reactants.half_order_sums()  # updated in place by the search
    # An atom breaks its valence once its half-order sum h reaches its bound:
    # h >= 2 * limit + 2 is the h // 2 > limit that ``valence_warnings`` records.
    bound = [2 * valence_limit(a.element, a.formal_charge) + 2 for a in reactants.atoms]
    over_limit = set(reactants.valence_warnings)
    # Each pair's new bond types with their half-order changes, in alphabet
    # order: anything but the current type, and aromatic only between two
    # aromatic atoms.
    options = {(u, v): [(bt, bt.half_order - current[(u, v)].half_order)
                        for bt in BOND_ALPHABET if bt is not current[(u, v)]
                        and (bt is not BondType.AROMATIC
                             or (reactants.atoms[u].aromatic and reactants.atoms[v].aromatic))]
               for u, v in current}
    min_change = {p: min(d for _, d in opts) for p, opts in options.items()}

    result = EnumerationResult([])
    seen: set[EditSet] = set()

    def extend(chosen: list[tuple[int, int]], slack: list[tuple[int, int]],
               picked: list[BondType], j: int) -> bool:
        """Assign pair ``j`` onward; True once the list is truncated."""
        u, v = chosen[j]
        su, sv = slack[j]
        for bt, d in options[(u, v)]:
            if half[u] + d + su >= bound[u] or half[v] + d + sv >= bound[v]:
                result.pruned += 1
                continue
            picked.append(bt)
            if j + 1 < len(chosen):
                half[u] += d
                half[v] += d
                stop = extend(chosen, slack, picked, j + 1)
                half[u] -= d
                half[v] -= d
            else:
                stop = emit(chosen, picked)
            picked.pop()
            if stop:
                return True
        return False

    def emit(chosen: list[tuple[int, int]], picked: list[BondType]) -> bool:
        # The pairs are distinct and normalized, so sorting never compares
        # bond types.
        edits = EditSet(tuple(sorted(BondEdit(u, v, bt) for (u, v), bt in zip(chosen, picked))))
        if edits in seen:
            result.duplicates += 1
            return False
        seen.add(edits)
        if len(result.candidates) >= max_candidates:
            result.truncated = True
            return True
        result.candidates.append(Candidate(edits, reactants))
        return False

    max_size = min(max_changes, len(norm_pairs))
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(len(norm_pairs)), size):
            chosen = [norm_pairs[i] for i in subset]
            if len(set(chosen)) < size:
                continue  # repeated input pair
            result.subsets += 1
            if size > 1 and not connectivity_ok([(u, v, BondType.NONE) for u, v in chosen]):
                result.disconnected += 1
                continue
            if not over_limit <= {a for pair in chosen for a in pair}:
                result.preexisting += 1  # a violation the edits cannot repair
                continue
            # slack[j]: the most negative change the pairs after j can still
            # make at each atom of pair j.
            slack: list[tuple[int, int]] = []
            later: dict[int, int] = {}
            for u, v in reversed(chosen):
                slack.append((later.get(u, 0), later.get(v, 0)))
                later[u] = later.get(u, 0) + min_change[(u, v)]
                later[v] = later.get(v, 0) + min_change[(u, v)]
            slack.reverse()
            if extend(chosen, slack, [], 0):
                return result
    return result
