"""Candidate product enumeration from predicted reactive atom pairs.

Every nonempty subset of the top-scoring pairs (up to ``max_changes`` pairs
at once) combined with every per-pair bond reassignment yields one candidate
edit set. Candidates must keep every atom within its valence budget and must
form a connected set of edits; aromatic bonds may only be created between
atoms already flagged aromatic. Enumeration order is deterministic: subsets
by size then position, assignments in bond-alphabet order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .chemgraph import BondType, MolGraph, apply_edits, valence_limit

__all__ = [
    "BOND_ALPHABET",
    "BondEdit",
    "Candidate",
    "EditSet",
    "EnumerationResult",
    "GenConfig",
    "connectivity_ok",
    "enumerate_candidates",
    "valence_ok",
]

BOND_ALPHABET = (BondType.NONE, BondType.SINGLE, BondType.DOUBLE,
                 BondType.TRIPLE, BondType.AROMATIC)


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
    """One candidate outcome: an edit set over the reactants; the edited
    product graph is materialized on first access and cached."""

    __slots__ = ("edits", "_reactants", "_product", "score")

    def __init__(self, edits: EditSet, reactants: MolGraph):
        self.edits = edits
        self._reactants = reactants
        self._product: MolGraph | None = None
        self.score: float | None = None

    @property
    def product(self) -> MolGraph:
        if self._product is None:
            self._product = apply_edits(self._reactants, self.edits)
        return self._product

    def edited_atoms(self) -> list[int]:
        """Atoms of the product components that hold an edited atom, ascending.

        Every other component is a reactant component left untouched."""
        comp = self.product.component
        edited = {comp[a] for a in self.edits.atoms()}
        return [i for i, c in enumerate(comp) if c in edited]

    def __repr__(self) -> str:
        return f"Candidate({list(self.edits)}, score={self.score})"


@dataclass
class GenConfig:
    """Enumeration limits. ``max_changes`` bounds simultaneous edits; the
    number of pairs passed to :func:`enumerate_candidates` bounds them too.
    The bond alphabet and the filters are fixed."""

    max_changes: int = 3
    max_candidates: int = 2000

    def __post_init__(self) -> None:
        if self.max_changes < 1:
            raise ValueError(f"max_changes must be >= 1, got {self.max_changes}")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")


@dataclass
class EnumerationResult:
    candidates: list[Candidate]
    truncated: bool = False

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def edit_sets(self) -> set[EditSet]:
        return {c.edits for c in self.candidates}


def valence_ok(g: MolGraph) -> bool:
    """True iff every atom's bond-order sum (aromatic = 1.5, floored after
    summing) stays within the valence limit for its element and charge."""
    for i, atom in enumerate(g.atoms):
        half = sum(g.bonds[bi].bond_type.half_order for _, bi in g.adjacency[i])
        if half // 2 > valence_limit(atom.element, atom.formal_charge):
            return False
    return True


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


def enumerate_candidates(reactants: MolGraph, pairs: list[tuple[int, int]],
                         cfg: GenConfig) -> EnumerationResult:
    """All edit assignments over subsets of ``pairs`` that pass the filters.

    ``pairs`` is the top-K list from the center model. Output order is by
    subset size, then subset position, then assignment; duplicates (from
    repeated input pairs) are dropped. Exceeding ``max_candidates`` truncates
    the list and sets the ``truncated`` flag.
    """
    norm_pairs: list[tuple[int, int]] = []
    for u, v in pairs:
        if u == v:
            raise ValueError(f"pair ({u},{u}) is not a valid atom pair")
        norm_pairs.append((min(u, v), max(u, v)))

    current = {p: reactants.bond_type_between(*p) for p in norm_pairs}
    half_sums = _half_order_sums(reactants)
    over_limit = {i for i, atom in enumerate(reactants.atoms)
                  if half_sums[i] // 2 > valence_limit(atom.element, atom.formal_charge)}
    # Each pair's new bond types, in alphabet order: anything but the current
    # type, and aromatic only between two aromatic atoms.
    options = {(u, v): [bt for bt in BOND_ALPHABET if bt is not current[(u, v)]
                        and (bt is not BondType.AROMATIC
                             or (reactants.atoms[u].aromatic and reactants.atoms[v].aromatic))]
               for u, v in current}

    result = EnumerationResult([])
    seen: set[EditSet] = set()
    max_size = min(cfg.max_changes, len(norm_pairs))
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(len(norm_pairs)), size):
            chosen = [norm_pairs[i] for i in subset]
            if len(set(chosen)) < size:
                continue  # repeated input pair
            if size > 1 and not connectivity_ok([(u, v, BondType.NONE) for u, v in chosen]):
                continue
            for assignment in itertools.product(*(options[p] for p in chosen)):
                edits = EditSet.of(BondEdit(u, v, bt)
                                   for (u, v), bt in zip(chosen, assignment))
                if edits in seen:
                    continue
                if not _valence_ok_after(reactants, edits, current, half_sums, over_limit):
                    continue
                seen.add(edits)
                if len(result.candidates) >= cfg.max_candidates:
                    result.truncated = True
                    return result
                result.candidates.append(Candidate(edits, reactants))
    return result


def _half_order_sums(g: MolGraph) -> list[int]:
    return [sum(g.bonds[bi].bond_type.half_order for _, bi in g.adjacency[i])
            for i in range(g.n_atoms)]


def _valence_ok_after(g: MolGraph, edits: EditSet,
                      current: dict[tuple[int, int], BondType],
                      half_sums: list[int], over_limit: set[int]) -> bool:
    """Incremental equivalent of ``valence_ok(apply_edits(g, edits))``."""
    touched = edits.atoms()
    if over_limit - touched:
        return False  # a pre-existing violation the edits cannot repair
    delta: dict[int, int] = {}
    for u, v, bt in edits:
        d = bt.half_order - current[(u, v)].half_order
        delta[u] = delta.get(u, 0) + d
        delta[v] = delta.get(v, 0) + d
    for atom_idx in touched:
        half = half_sums[atom_idx] + delta.get(atom_idx, 0)
        atom = g.atoms[atom_idx]
        if half // 2 > valence_limit(atom.element, atom.formal_charge):
            return False
    return True
