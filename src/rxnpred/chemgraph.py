"""Molecular graphs: SMILES parsing/writing, atom/bond features, and bond edits.

Molecules are labeled multigraph-free graphs (at most one bond per atom pair)
over a fixed element set. Hydrogens are never nodes; bracket H counts are kept
on the atom record and the remainder is derived from a valence table. The
supported SMILES subset covers plain and bracket atoms (charge, H count, atom
map), bond symbols ``- = # :`` (``/`` and ``\\`` read as single), branches,
ring closures including ``%nn``, and ``.`` component separators. Stereo and
isotope annotations are parsed and discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ATOM_FEATURE_DIM",
    "BOND_FEATURE_DIM",
    "Atom",
    "Bond",
    "BondType",
    "EditDelta",
    "GraphCodes",
    "MolGraph",
    "SmilesError",
    "apply_edits",
    "atom_feature_rows",
    "atom_features",
    "atom_feature_matrix",
    "bond_feature_rows",
    "bond_features",
    "delta_union_arrays",
    "edit_delta",
    "induced_subgraph",
    "make_graph",
    "merge_graphs",
    "parse_smiles",
    "union_arrays",
    "valence_for_h",
    "valence_limit",
    "with_map_numbers",
    "write_smiles",
]


class SmilesError(ValueError):
    """Raised on malformed SMILES input; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BondType(Enum):
    """Bond alphabet. NONE encodes deletion in edit sets and never appears on a graph bond."""

    NONE = 0
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    @property
    def half_order(self) -> int:
        """Twice the bond order, so aromatic (1.5) stays integral."""
        return _HALF_ORDER[self]


_HALF_ORDER = {
    BondType.NONE: 0,
    BondType.SINGLE: 2,
    BondType.DOUBLE: 4,
    BondType.TRIPLE: 6,
    BondType.AROMATIC: 3,
}

# Elements with their own feature slot; anything else falls into one shared
# "unknown" bucket so the feature dimension stays fixed.
ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "Si", "Sn", "Se")
_ELEMENT_SLOT = {el: i for i, el in enumerate(ELEMENTS)}
_UNKNOWN_SLOT = len(ELEMENTS)

# Neutral default valences: the low value fills implicit hydrogens, the high
# value bounds violation checks (S and P have several common states).
_VALENCE_H = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1, "Cl": 1,
              "Br": 1, "I": 1, "B": 3, "Si": 4, "Sn": 4, "Se": 2}
_VALENCE_MAX = dict(_VALENCE_H, S=6, P=5)

_DEGREE_SLOTS = 6       # 0..5, clamped
_TOTAL_H_SLOTS = 5      # 0..4, clamped
_IMPLICIT_SLOTS = 6     # 0..5, clamped

ATOM_FEATURE_DIM = len(ELEMENTS) + 1 + _DEGREE_SLOTS + _TOTAL_H_SLOTS + _IMPLICIT_SLOTS + 1
BOND_FEATURE_DIM = 6    # 4 bond types + conjugated + in-ring


def valence_for_h(element: str, charge: int) -> int:
    """Valence used to fill implicit hydrogens, adjusted for formal charge."""
    return max(0, _VALENCE_H.get(element, 0) + charge)


def valence_limit(element: str, charge: int) -> int:
    """Maximum bond-order sum tolerated before an atom counts as hypervalent."""
    return max(0, _VALENCE_MAX.get(element, 0) + charge)


# Atom counts (:func:`_atom_counts`), per atom: element feature slot, degree,
# half-order sum, number of multiple (double, triple, aromatic) bonds, H
# budget (the valence for H minus explicit H), explicit H, aromatic flag.
_ELEMENT, _DEGREE, _HALF, _MULTIPLE, _H_BUDGET, _EXPLICIT_H, _AROMATIC = range(7)
# Half order and "is a multiple bond" by BondType value; NONE is 0.
_HALF_BY_VALUE = [_HALF_ORDER[BondType(value)] for value in range(5)]
_MULTIPLE_BY_VALUE = [0, 0, 1, 1, 1]
_AROMATIC_TYPE = BondType.AROMATIC.value


@dataclass(frozen=True, slots=True)
class Atom:
    """What the SMILES says of an atom. Degree and hydrogen counts are graph
    facts: :attr:`MolGraph.counts` and :meth:`MolGraph.implicit_h`."""

    element: str
    map_number: int | None = None
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int | None = None


class Bond(NamedTuple):
    """A graph bond, ``u < v``. Ring and conjugation flags are graph facts:
    :attr:`MolGraph.in_ring` and :func:`bond_features`."""

    u: int
    v: int
    bond_type: BondType


@dataclass
class MolGraph:
    """Undirected molecular graph; possibly several connected components.

    Built by :func:`make_graph`, which derives every field past ``bonds``;
    treat instances as immutable. ``bond_index`` maps each bonded pair
    (u < v) to its bond, ``adjacency[i]`` lists atom i's ``(neighbor_index,
    bond_index)`` pairs, ``counts[i]`` holds atom i's counts
    (:func:`_atom_counts`), ``in_ring[b]`` tells whether bond b lies on a
    ring, and ``component[i]`` is atom i's component id.
    """

    atoms: list[Atom]
    bonds: list[Bond]
    bond_index: dict[tuple[int, int], Bond]
    adjacency: list[list[tuple[int, int]]]
    counts: list[list[int]]
    valence_warnings: tuple[int, ...]
    in_ring: list[bool]
    component: list[int]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    @property
    def n_components(self) -> int:
        return max(self.component) + 1 if self.component else 0

    def bond_between(self, u: int, v: int) -> Bond | None:
        return self.bond_index.get((u, v) if u < v else (v, u))

    def bond_type_between(self, u: int, v: int) -> BondType:
        bond = self.bond_between(u, v)
        return bond.bond_type if bond is not None else BondType.NONE

    def neighbors(self, u: int) -> list[int]:
        return [nbr for nbr, _ in self.adjacency[u]]

    def implicit_h(self, i: int) -> int:
        """Atom i's implicit hydrogens, from :attr:`counts`."""
        return _implicit_h(self.counts[i])

    def half_order_sums(self) -> list[int]:
        """Per atom, twice its bond-order sum: a new list, from :attr:`counts`."""
        return [row[_HALF] for row in self.counts]

    @cached_property
    def codes(self) -> "GraphCodes":
        """The graph's integer code arrays, built on first access."""
        return GraphCodes.of(self)

    def map_to_index(self) -> dict[int, int]:
        """Map-number -> atom index; raises on duplicate map numbers."""
        out: dict[int, int] = {}
        for i, atom in enumerate(self.atoms):
            if atom.map_number is not None:
                if atom.map_number in out:
                    raise ValueError(f"duplicate atom map number {atom.map_number}")
                out[atom.map_number] = i
        return out


def make_graph(atoms: Sequence[Atom], bonds: Iterable[tuple[int, int, BondType]]) -> MolGraph:
    """Assemble a graph from atom records and (u, v, type) bond triples.

    Validates indices, rejects self-loops, duplicate pairs, and NONE bonds,
    then derives every other field. The atom records are shared, not copied.
    """
    bond_index: dict[tuple[int, int], Bond] = {}
    n = len(atoms)
    for u, v, bt in bonds:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bond ({u},{v}) references a missing atom")
        if u == v:
            raise ValueError(f"self-loop bond on atom {u}")
        if bt is BondType.NONE:
            raise ValueError("NONE is not a valid graph bond type")
        key = (u, v) if u < v else (v, u)
        if key in bond_index:
            raise ValueError(f"duplicate bond between atoms {key[0]} and {key[1]}")
        bond_index[key] = Bond(*key, bt)
    return _finalize(list(atoms), bond_index)


def _finalize(atoms: list[Atom], bond_index: dict[tuple[int, int], Bond]) -> MolGraph:
    """The graph of ``atoms`` and the bonds of ``bond_index`` in its order,
    with adjacency, the atom counts, valence warnings, ring flags and
    component ids derived."""
    bonds = list(bond_index.values())
    adjacency: list[list[tuple[int, int]]] = [[] for _ in atoms]
    for bi, (u, v, _) in enumerate(bonds):
        adjacency[u].append((v, bi))
        adjacency[v].append((u, bi))
    for adj in adjacency:
        adj.sort()
    counts = _atom_counts(atoms, bonds)
    # Aromatic counts 1.5 each; floor after summing.
    warnings = tuple(i for i, (atom, row) in enumerate(zip(atoms, counts))
                     if row[_HALF] // 2 > valence_limit(atom.element, atom.formal_charge))
    in_ring, component = _rings_and_components(adjacency, len(bonds))
    return MolGraph(atoms, bonds, bond_index, adjacency, counts, warnings, in_ring, component)


def _atom_counts(atoms: Sequence[Atom], bonds: Sequence[Bond]) -> list[list[int]]:
    """Each atom's counts, indexed by ``_ELEMENT`` ... ``_AROMATIC``: every
    per-atom fact that degrees, implicit H, valence warnings, conjugation
    flags, feature columns and the enumeration's valence bound read."""
    counts = [[_ELEMENT_SLOT.get(a.element, _UNKNOWN_SLOT), 0, 0, 0,
               valence_for_h(a.element, a.formal_charge) - (a.explicit_h or 0),
               a.explicit_h or 0, int(a.aromatic)] for a in atoms]
    for b in bonds:
        t = b.bond_type.value
        for row in (counts[b.u], counts[b.v]):
            row[_DEGREE] += 1
            row[_HALF] += _HALF_BY_VALUE[t]
            row[_MULTIPLE] += _MULTIPLE_BY_VALUE[t]
    return counts


def _implicit_h(row: Sequence[int]) -> int:
    """Implicit H from an atom's counts: the H budget less the bond-order sum."""
    return max(0, row[_H_BUDGET] - row[_HALF] // 2)


def _conjugated(bond_type: int, row_u: Sequence[int], row_v: Sequence[int]) -> bool:
    """The conjugation flag of a bond of type value ``bond_type`` between
    atoms with counts ``row_u`` and ``row_v``: aromatic, or both atoms carry
    a multiple bond."""
    return bond_type == _AROMATIC_TYPE or (row_u[_MULTIPLE] > 0 and row_v[_MULTIPLE] > 0)


def _rings_and_components(adjacency: list[list[tuple[int, int]]], n_bonds: int
                          ) -> tuple[list[bool], list[int]]:
    """Per bond, whether it lies on a ring; per atom, its component id.

    A bond is in a ring iff it is not a bridge: an iterative lowpoint
    search (Tarjan, "A note on finding the bridges of a graph", IPL 1974).
    Components are numbered in order of their lowest atom.
    """
    n = len(adjacency)
    order = [-1] * n
    low = [0] * n
    comp = [0] * n
    in_ring = [True] * n_bonds  # downgraded below when found to be a bridge
    counter = n_comps = 0
    for root in range(n):
        if order[root] != -1:
            continue
        # (atom, parent atom, parent bond, next adjacency slot)
        stack: list[tuple[int, int, int, int]] = [(root, -1, -1, 0)]
        while stack:
            u, parent, pbond, it = stack.pop()
            if it == 0:
                order[u] = low[u] = counter
                counter += 1
                comp[u] = n_comps
            if it < len(adjacency[u]):
                stack.append((u, parent, pbond, it + 1))
                nbr, bi = adjacency[u][it]
                if bi == pbond:
                    continue
                if order[nbr] == -1:
                    stack.append((nbr, u, bi, 0))
                else:
                    low[u] = min(low[u], order[nbr])
            elif pbond != -1:
                low[parent] = min(low[parent], low[u])
                if low[u] > order[parent]:
                    in_ring[pbond] = False  # bridge
        n_comps += 1
    return in_ring, comp


# ---------------------------------------------------------------------------
# SMILES parsing
# ---------------------------------------------------------------------------

_ORGANIC_TWO = ("Cl", "Br")
_ORGANIC_ONE = set("BCNOPSFI")
_AROMATIC_ORGANIC = set("bcnops")
_AROMATIC_BRACKET = {"b", "c", "n", "o", "p", "s", "se", "as"}
_BOND_CHARS = {"-": BondType.SINGLE, "=": BondType.DOUBLE, "#": BondType.TRIPLE,
               ":": BondType.AROMATIC, "/": BondType.SINGLE, "\\": BondType.SINGLE}


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a :class:`MolGraph`.

    Deterministic; atom indices follow their order of appearance. Valence
    overflows are recorded in ``valence_warnings`` rather than raised.
    """
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, BondType]] = []
    bond_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: BondType | None = None
    pending_off = 0
    dot_off: int | None = None
    branch_stack: list[tuple[int, int]] = []  # (atom to return to, '(' offset)
    rings: dict[int, tuple[int, BondType | None, int]] = {}

    def add_bond(u: int, v: int, bt: BondType, off: int) -> None:
        if u == v:
            raise SmilesError("ring closure bonds an atom to itself", off)
        key = (min(u, v), max(u, v))
        if key in bond_pairs:
            raise SmilesError(f"duplicate bond between atoms {key[0]} and {key[1]}", off)
        bond_pairs.add(key)
        bonds.append((u, v, bt))

    def default_bond(u: int, v: int) -> BondType:
        if atoms[u].aromatic and atoms[v].aromatic:
            return BondType.AROMATIC
        return BondType.SINGLE

    def attach(idx: int, off: int) -> None:
        nonlocal prev, pending
        if prev is not None:
            add_bond(prev, idx, pending if pending is not None else default_bond(prev, idx), off)
        elif pending is not None:
            raise SmilesError("bond symbol with no preceding atom", pending_off)
        prev = idx
        pending = None

    def close_ring(digit: int, off: int) -> None:
        nonlocal pending
        if prev is None:
            raise SmilesError("ring closure digit before any atom", off)
        if digit in rings:
            open_atom, open_bond, open_off = rings.pop(digit)
            bt = pending if pending is not None else open_bond
            if pending is not None and open_bond is not None and pending is not open_bond:
                raise SmilesError(f"conflicting bond symbols on ring closure {digit}", off)
            if bt is None:
                bt = default_bond(open_atom, prev)
            add_bond(open_atom, prev, bt, off)
        else:
            rings[digit] = (prev, pending, off)
        pending = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesError("two consecutive bond symbols", i)
            pending = _BOND_CHARS[ch]
            pending_off = i
            i += 1
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch opened before any atom", i)
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", pending_off)
            prev = branch_stack.pop()[0]
            i += 1
        elif ch == ".":
            if pending is not None:
                raise SmilesError("bond symbol across '.' separator", pending_off)
            if prev is None:
                raise SmilesError("empty component before '.'", i)
            prev = None
            dot_off = i
            i += 1
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                raise SmilesError("'%' must be followed by two digits", i)
            close_ring(int(text[i + 1:i + 3]), i)
            i += 3
        elif ch == "[":
            atom, i = _parse_bracket_atom(text, i)
            atoms.append(atom)
            attach(len(atoms) - 1, i - 1)
        elif text.startswith(_ORGANIC_TWO, i):
            atoms.append(Atom(text[i:i + 2]))
            attach(len(atoms) - 1, i)
            i += 2
        elif ch in _ORGANIC_ONE:
            atoms.append(Atom(ch))
            attach(len(atoms) - 1, i)
            i += 1
        elif ch in _AROMATIC_ORGANIC:
            atoms.append(Atom(ch.upper(), aromatic=True))
            attach(len(atoms) - 1, i)
            i += 1
        elif ch.isupper():
            raise SmilesError(f"element '{ch}' must be written in brackets", i)
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", pending_off)
    if branch_stack:
        raise SmilesError("unclosed '('", branch_stack[-1][1])
    if prev is None and dot_off is not None:
        raise SmilesError("empty component after '.'", dot_off)
    if rings:
        digit, (_, _, off) = next(iter(sorted(rings.items())))
        raise SmilesError(f"unmatched ring closure digit {digit}", off)
    if not atoms:
        raise SmilesError("empty SMILES", 0)
    return make_graph(atoms, bonds)


def _parse_bracket_atom(text: str, start: int) -> tuple[Atom, int]:
    end = text.find("]", start)
    if end == -1:
        raise SmilesError("unclosed '['", start)
    body = text[start + 1:end]
    i = 0
    m = len(body)

    while i < m and body[i].isdigit():  # isotope: parsed and discarded
        i += 1
    sym_start = i
    if i < m and body[i].isalpha():
        i += 1
        if i < m and body[i].islower() and body[sym_start].isupper():
            i += 1
        elif i < m and body[i].islower() and body[sym_start:i + 1] in _AROMATIC_BRACKET:
            i += 1
    symbol = body[sym_start:i]
    if not symbol:
        raise SmilesError("bracket atom lacks an element symbol", start + 1 + i)
    aromatic = symbol[0].islower()
    if aromatic and symbol not in _AROMATIC_BRACKET:
        raise SmilesError(f"'{symbol}' cannot be aromatic", start + 1 + sym_start)
    element = symbol[0].upper() + symbol[1:]

    while i < m and body[i] == "@":  # chirality: parsed and discarded
        i += 1

    explicit_h: int | None = None
    if i < m and body[i] == "H":
        i += 1
        count = 0
        digits = False
        while i < m and body[i].isdigit():
            count = count * 10 + int(body[i])
            digits = True
            i += 1
        explicit_h = count if digits else 1

    charge = 0
    if i < m and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symb = body[i]
        i += 1
        if i < m and body[i].isdigit():
            num = 0
            while i < m and body[i].isdigit():
                num = num * 10 + int(body[i])
                i += 1
            charge = sign * num
        else:
            charge = sign
            while i < m and body[i] == symb:  # ++ / -- forms
                charge += sign
                i += 1

    map_number: int | None = None
    if i < m and body[i] == ":":
        i += 1
        if i >= m or not body[i].isdigit():
            raise SmilesError("':' in bracket atom must be followed by a map number", start + 1 + i)
        num = 0
        while i < m and body[i].isdigit():
            num = num * 10 + int(body[i])
            i += 1
        if num <= 0:
            raise SmilesError("atom map numbers must be positive", start + 1 + i)
        map_number = num

    if i != m:
        raise SmilesError(f"trailing characters {body[i:]!r} in bracket atom", start + 1 + i)
    return Atom(element, map_number, charge, aromatic, explicit_h), end + 1


# ---------------------------------------------------------------------------
# SMILES writing
# ---------------------------------------------------------------------------

_BOND_SYMBOL = {BondType.DOUBLE: "=", BondType.TRIPLE: "#"}


def write_smiles(g: MolGraph) -> str:
    """Serialize deterministically: DFS from the lowest atom index, neighbors
    in index order, components joined by '.' in order of first atom.

    Round-trips to an isomorphic graph; output is not canonical across
    isomorphic inputs. Ring closures take the labels 1, 2, ... in order up
    to 99; past that, each takes the lowest label whose ring has closed, and
    more than 99 rings open at once raise ``ValueError`` (SMILES labels have
    at most two digits).
    """
    n = g.n_atoms
    visited = [False] * n
    parts: list[str] = []
    ring_counter = [1]
    for start in range(n):
        if not visited[start]:
            parts.append(_write_component(g, start, visited, ring_counter))
    return ".".join(parts)


def _write_component(g: MolGraph, root: int, visited: list[bool], ring_counter: list[int]) -> str:
    # Pass 1: classify bonds into DFS tree edges and ring-closure (back) edges.
    order: dict[int, int] = {root: 0}
    tree: dict[int, list[tuple[int, int]]] = {root: []}
    back_bonds: list[tuple[int, int, int]] = []  # (open_atom, close_atom, bond_idx)
    used: set[int] = set()
    frames: list[tuple[int, int]] = [(root, 0)]  # (atom, next adjacency slot)
    while frames:
        u, slot = frames.pop()
        while slot < len(g.adjacency[u]):
            nbr, bi = g.adjacency[u][slot]
            slot += 1
            if bi in used:
                continue
            used.add(bi)
            if nbr in order:
                back_bonds.append((nbr, u, bi))
            else:
                order[nbr] = len(order)
                tree.setdefault(u, []).append((nbr, bi))
                tree.setdefault(nbr, [])
                frames.append((u, slot))
                frames.append((nbr, 0))
                break
    for atom in order:
        visited[atom] = True

    opens: dict[int, list[int]] = {}
    closes: dict[int, list[tuple[int, int]]] = {}
    closed_at: dict[int, int] = {}  # label -> order of its close atom, this component
    for open_atom, close_atom, bi in sorted(back_bonds, key=lambda t: (order[t[0]], order[t[1]])):
        if ring_counter[0] <= _MAX_RING_LABEL:
            digit = ring_counter[0]
            ring_counter[0] += 1
        else:
            # A label is free once its ring closed at an earlier atom; an
            # atom writes its openings before its closures.
            digit = next((d for d in range(1, _MAX_RING_LABEL + 1)
                          if closed_at.get(d, -1) < order[open_atom]), None)
            if digit is None:
                raise ValueError(f"more than {_MAX_RING_LABEL} rings open at once")
        closed_at[digit] = order[close_atom]
        opens.setdefault(open_atom, []).append(digit)
        closes.setdefault(close_atom, []).append((digit, bi))

    return _emit(g, root, tree, opens, closes)


def _emit(g: MolGraph, root: int,
          tree: dict[int, list[tuple[int, int]]],
          opens: dict[int, list[int]],
          closes: dict[int, list[tuple[int, int]]]) -> str:
    """The DFS tree from ``root`` as SMILES: each atom after its bond token,
    then its ring digits, then every child but the last in parentheses.
    Iterative (an explicit stack of pending atoms and parentheses), so the
    depth of the tree is not bounded by Python's recursion limit."""
    out: list[str] = []
    stack: list[tuple[int, int | None] | str] = [(root, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u, in_bond = item
        if in_bond is not None:
            out.append(_bond_token(g, g.bonds[in_bond]))
        out.append(_atom_token(g.atoms[u]))
        for digit in opens.get(u, []):
            out.append(_ring_token(digit, ""))
        for digit, bi in closes.get(u, []):
            out.append(_ring_token(digit, _bond_token(g, g.bonds[bi])))
        kids = tree.get(u, [])
        if kids:
            stack.append(kids[-1])
            for kid in reversed(kids[:-1]):
                stack += (")", kid, "(")
    return "".join(out)


def _bond_token(g: MolGraph, bond: Bond) -> str:
    bt = bond.bond_type
    if bt in _BOND_SYMBOL:
        return _BOND_SYMBOL[bt]
    both_aromatic = g.atoms[bond.u].aromatic and g.atoms[bond.v].aromatic
    if bt is BondType.AROMATIC:
        return "" if both_aromatic else ":"
    return "-" if both_aromatic else ""  # single between aromatic atoms needs '-'


_MAX_RING_LABEL = 99


def _ring_token(digit: int, bond_sym: str) -> str:
    return f"{bond_sym}%{digit}" if digit >= 10 else f"{bond_sym}{digit}"


def _atom_token(atom: Atom) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    plain_ok = (atom.map_number is None and atom.formal_charge == 0
                and atom.explicit_h is None)
    if atom.aromatic:
        plain_ok = plain_ok and atom.element.lower() in _AROMATIC_ORGANIC
    else:
        plain_ok = plain_ok and (atom.element in _ORGANIC_ONE or atom.element in _ORGANIC_TWO)
    if plain_ok:
        return symbol
    h = ""
    if atom.explicit_h is not None:
        h = "H" if atom.explicit_h == 1 else f"H{atom.explicit_h}" if atom.explicit_h else ""
    q = ""
    if atom.formal_charge > 0:
        q = "+" if atom.formal_charge == 1 else f"+{atom.formal_charge}"
    elif atom.formal_charge < 0:
        q = "-" if atom.formal_charge == -1 else f"-{-atom.formal_charge}"
    m = f":{atom.map_number}" if atom.map_number is not None else ""
    return f"[{symbol}{h}{q}{m}]"


# ---------------------------------------------------------------------------
# Feature vectors
# ---------------------------------------------------------------------------

def atom_features(g: MolGraph, atom_index: int) -> np.ndarray:
    """Feature vector of length :data:`ATOM_FEATURE_DIM`: element one-hot
    (+unknown bucket), degree, total H, implicit valence (clamped one-hots)
    and an aromatic bit. The models read :func:`atom_feature_rows`; this
    per-atom route is its oracle."""
    atom = g.atoms[atom_index]
    implicit_h = g.implicit_h(atom_index)
    f = np.zeros(ATOM_FEATURE_DIM)
    f[_ELEMENT_SLOT.get(atom.element, _UNKNOWN_SLOT)] = 1.0
    base = len(ELEMENTS) + 1
    f[base + min(len(g.adjacency[atom_index]), _DEGREE_SLOTS - 1)] = 1.0
    base += _DEGREE_SLOTS
    f[base + min((atom.explicit_h or 0) + implicit_h, _TOTAL_H_SLOTS - 1)] = 1.0
    base += _TOTAL_H_SLOTS
    f[base + min(implicit_h, _IMPLICIT_SLOTS - 1)] = 1.0
    base += _IMPLICIT_SLOTS
    f[base] = 1.0 if atom.aromatic else 0.0
    return f


def bond_features(g: MolGraph, bond_index: int) -> np.ndarray:
    """Bond-type one-hot (single/double/triple/aromatic) + conjugated + in-ring."""
    u, v, bond_type = g.bonds[bond_index]
    f = np.zeros(BOND_FEATURE_DIM)
    f[bond_type.value - 1] = 1.0
    f[4] = 1.0 if _conjugated(bond_type.value, g.counts[u], g.counts[v]) else 0.0
    f[5] = 1.0 if g.in_ring[bond_index] else 0.0
    return f


def atom_feature_matrix(g: MolGraph) -> np.ndarray:
    if g.n_atoms == 0:
        return np.zeros((0, ATOM_FEATURE_DIM))
    return np.stack([atom_features(g, i) for i in range(g.n_atoms)])


# ---------------------------------------------------------------------------
# Integer codes and vectorized feature rows
# ---------------------------------------------------------------------------

# Feature columns where the degree, total-H and implicit-H one-hots start.
_DEGREE_BASE = len(ELEMENTS) + 1
_TOTAL_H_BASE = _DEGREE_BASE + _DEGREE_SLOTS
_IMPLICIT_BASE = _TOTAL_H_BASE + _TOTAL_H_SLOTS
# A scratch column after the features: where a non-aromatic atom's flag goes.
_NO_COLUMN = ATOM_FEATURE_DIM
# The bond feature row of each bond code (see _bond_code): a one-hot table,
# so gathered rows are exact.
_BOND_ROWS = np.array([[float(t == k % 4) for t in range(4)] + [float(k // 4 % 2), float(k // 8)]
                       for k in range(16)])


def _atom_columns(row: Sequence[int]) -> tuple[int, int, int, int, int]:
    """The five feature columns that an atom's :func:`atom_features` row sets
    to 1.0, from its counts; the last is :data:`_NO_COLUMN` for a
    non-aromatic atom. An edit changes an atom's columns through its degree
    and half-order sum alone."""
    implicit = _implicit_h(row)
    return (row[_ELEMENT], _DEGREE_BASE + min(row[_DEGREE], _DEGREE_SLOTS - 1),
            _TOTAL_H_BASE + min(row[_EXPLICIT_H] + implicit, _TOTAL_H_SLOTS - 1),
            _IMPLICIT_BASE + min(implicit, _IMPLICIT_SLOTS - 1),
            ATOM_FEATURE_DIM - 1 if row[_AROMATIC] else _NO_COLUMN)


def _bond_code(bond_type, conjugated, in_ring):
    """A bond's feature code, its row of the one-hot table: type value - 1,
    plus 4 if conjugated and 8 if in a ring. Takes ints or arrays."""
    return bond_type - 1 + 4 * conjugated + 8 * in_ring


@dataclass(frozen=True, eq=False)
class GraphCodes:
    """A graph as integer codes: what feature rows and edit deltas read,
    with the graph's :attr:`MolGraph.counts`.

    ``columns[i]`` lists atom i's feature columns (:func:`_atom_columns`). ``bonds``
    is (m, 4): u, v, ``BondType`` value and feature code (:func:`_bond_code`).
    ``comp_atoms[c]`` lists component c's atoms ascending, and
    ``comp_bonds[c]`` its bonds in bond order as (bond, u, v, type value,
    conjugated).
    """

    columns: list[tuple[int, int, int, int, int]]
    bonds: np.ndarray
    comp_atoms: list[list[int]]
    comp_bonds: list[list[tuple[int, int, int, int, bool]]]

    @classmethod
    def of(cls, g: MolGraph) -> "GraphCodes":
        comp_atoms: list[list[int]] = [[] for _ in range(g.n_components)]
        for i, c in enumerate(g.component):
            comp_atoms[c].append(i)
        comp_bonds: list[list[tuple[int, int, int, int, bool]]] = [[] for _ in comp_atoms]
        bonds = []
        for bi, (u, v, bond_type) in enumerate(g.bonds):
            t = bond_type.value
            conj = _conjugated(t, g.counts[u], g.counts[v])
            comp_bonds[g.component[u]].append((bi, u, v, t, conj))
            bonds.append((u, v, t, _bond_code(t, conj, g.in_ring[bi])))
        return cls([_atom_columns(row) for row in g.counts],
                   np.array(bonds, dtype=np.intp).reshape(-1, 4), comp_atoms, comp_bonds)

    @cached_property
    def inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The :func:`_directed` arrays of the whole graph, built on first use."""
        columns = np.array(self.columns, dtype=np.intp).reshape(-1, 5)
        b = self.bonds
        return _directed(atom_feature_rows(columns), b[:, 0], b[:, 1], b[:, 3])


def atom_feature_rows(columns: np.ndarray) -> np.ndarray:
    """The :func:`atom_features` rows of atoms given by their five feature
    columns each (:func:`_atom_columns`), in one vectorized one-hot."""
    out = np.zeros((len(columns), ATOM_FEATURE_DIM + 1))
    out[np.arange(len(columns))[:, None], columns] = 1.0
    return out[:, :ATOM_FEATURE_DIM]


def bond_feature_rows(codes: np.ndarray) -> np.ndarray:
    """The :func:`bond_features` rows of bonds given by their feature codes."""
    return _BOND_ROWS[codes]


def _directed(features: np.ndarray, u: np.ndarray, v: np.ndarray, codes: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Atom feature rows, and the directed edges (u -> v, then v -> u, per
    bond in order) with their senders, receivers and feature rows, of bonds
    given by endpoints and feature codes."""
    src = np.empty(2 * len(u), dtype=np.intp)
    dst = np.empty(2 * len(u), dtype=np.intp)
    src[0::2] = dst[1::2] = u
    src[1::2] = dst[0::2] = v
    return features, src, dst, np.repeat(bond_feature_rows(codes), 2, axis=0)


def union_arrays(parts: Iterable[tuple[MolGraph, Sequence[int]]]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_directed` arrays of the disjoint union of ``(graph, atoms)``
    parts, sliced from each graph's :attr:`GraphCodes.inputs`. Each part
    contributes the listed atoms, whole components, in order, numbered
    after the previous parts' atoms."""
    selected, offset = [], 0
    for g, atoms in parts:
        features, src, dst, edges = g.codes.inputs
        idx = np.asarray(atoms, dtype=np.intp)
        local = np.full(g.n_atoms, -1, dtype=np.intp)
        local[idx] = np.arange(offset, offset + len(idx))
        kept = local[src] >= 0  # whole components: a kept sender keeps its receiver
        selected.append((features[idx], local[src[kept]], local[dst[kept]], edges[kept]))
        offset += len(idx)
    if len(selected) == 1:
        return selected[0]
    empty = (np.zeros((0, ATOM_FEATURE_DIM)), np.zeros(0, np.intp), np.zeros(0, np.intp),
             np.zeros((0, BOND_FEATURE_DIM)))
    return tuple(np.concatenate(arrays) for arrays in zip(empty, *selected))  # type: ignore


class EditDelta(NamedTuple):
    """An edit set's edit-local product, the components of
    :func:`apply_edits`'s product that hold an edited atom, as codes derived
    from the reactants' codes and counts, without a graph: the local atoms
    with their feature columns, the product's bonds over them, and the local
    component ids. Only edited atoms get new counts and columns, only edited
    pairs new types, and only bonds at edited atoms new conjugation flags."""

    atoms: list[int]          # reactant atom of each local atom, ascending
    columns: list[int]        # five feature columns per local atom
    bonds: list[int]          # local u, local v, type value, conjugated: per bond, in order
    in_ring: list[bool]       # per bond
    component: list[int]      # local component id of each local atom


def edit_delta(reactants: MolGraph, edits: Iterable) -> EditDelta:
    """The :class:`EditDelta` of ``edits`` over ``reactants``.

    Its local atoms are those of the reactant components that hold an
    edited atom, found from the component ids: each piece of a split
    component keeps an endpoint of a deleted bond, and an untouched
    component stays as it was. Bonds keep the reactants' order and created
    bonds follow, sorted by pair, as in :func:`apply_edits`. Ring flags and
    component ids come from a bridge search over the local bonds alone.
    Validates as :func:`apply_edits` does.
    """
    changes = {pair: t.value for pair, t in _bond_changes(reactants, edits).items()}
    codes, counts = reactants.codes, reactants.counts
    comps = sorted({reactants.component[a] for pair in changes for a in pair})
    if len(comps) == 1:
        atoms, comp_bonds = codes.comp_atoms[comps[0]], codes.comp_bonds[comps[0]]
    else:
        atoms = sorted(chain.from_iterable(codes.comp_atoms[c] for c in comps))
        comp_bonds = sorted(chain.from_iterable(codes.comp_bonds[c] for c in comps))
    edited: dict[int, list[int]] = {}  # edited atom -> its counts after the edits
    for (u, v), new in changes.items():
        old = reactants.bond_type_between(u, v).value
        for a in (u, v):
            row = edited.get(a) or edited.setdefault(a, counts[a].copy())
            row[_DEGREE] += (new != 0) - (old != 0)
            row[_HALF] += _HALF_BY_VALUE[new] - _HALF_BY_VALUE[old]
            row[_MULTIPLE] += _MULTIPLE_BY_VALUE[new] - _MULTIPLE_BY_VALUE[old]
    created = [(-1, u, v, 0, False) for u, v in sorted(changes)
               if (u, v) not in reactants.bond_index]
    index = {a: i for i, a in enumerate(atoms)}
    flat: list[int] = []
    adjacency: list[list[tuple[int, int]]] = [[] for _ in atoms]
    for _, u, v, bond_type, conj in chain(comp_bonds, created):
        bond_type = changes.get((u, v), bond_type)
        if not bond_type:
            continue
        if u in edited or v in edited:
            conj = _conjugated(bond_type, edited.get(u) or counts[u], edited.get(v) or counts[v])
        a, b = index[u], index[v]
        adjacency[a].append((b, len(flat) // 4))
        adjacency[b].append((a, len(flat) // 4))
        flat += (a, b, bond_type, conj)
    in_ring, component = _rings_and_components(adjacency, len(flat) // 4)
    columns = list(chain.from_iterable(map(codes.columns.__getitem__, atoms)))
    for a, row in edited.items():
        columns[5 * index[a]:5 * index[a] + 5] = _atom_columns(row)
    return EditDelta(atoms, columns, flat, in_ring, component)


def delta_union_arrays(deltas: Sequence[EditDelta]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`union_arrays` of the deltas' edit-local products, from their
    codes: one concatenation of the atoms' feature columns and one of the
    bonds, then one one-hot."""
    columns = np.fromiter(chain.from_iterable(d.columns for d in deltas), np.intp)
    bonds = np.fromiter(chain.from_iterable(d.bonds for d in deltas), np.intp).reshape(-1, 4)
    in_ring = np.fromiter(chain.from_iterable(d.in_ring for d in deltas), np.intp)
    offsets = np.array(list(accumulate((len(d.atoms) for d in deltas), initial=0))[:-1],
                       dtype=np.intp)
    shift = np.repeat(offsets, [len(d.in_ring) for d in deltas])
    return _directed(atom_feature_rows(columns.reshape(-1, 5)), bonds[:, 0] + shift,
                     bonds[:, 1] + shift, _bond_code(bonds[:, 2], bonds[:, 3], in_ring))


def with_map_numbers(g: MolGraph) -> MolGraph:
    """``g`` with atom ``i`` mapped to ``i + 1``: equal to rebuilding it
    through :func:`make_graph`, but no derived field reads map numbers, so
    only the atom records are new and every other field is shared."""
    return replace(g, atoms=[replace(a, map_number=i + 1) for i, a in enumerate(g.atoms)])


def induced_subgraph(g: MolGraph, atom_indices: Sequence[int]) -> MolGraph:
    """The subgraph on the given atoms (order preserved) with bonds between
    them: ``g`` itself when that is all of its atoms in order."""
    keep = list(dict.fromkeys(atom_indices))
    if keep == list(range(g.n_atoms)):
        return g
    index_of = {old: new for new, old in enumerate(keep)}
    bonds = [(index_of[b.u], index_of[b.v], b.bond_type)
             for b in g.bonds if b.u in index_of and b.v in index_of]
    return make_graph([g.atoms[i] for i in keep], bonds)


def merge_graphs(graphs: Iterable[MolGraph]) -> MolGraph:
    """The disjoint union of ``graphs``: their atoms in the given order, and
    each graph's bonds in order, numbered after the previous graphs' atoms.
    The union of one graph is that graph."""
    graphs = list(graphs)
    if len(graphs) == 1:
        return graphs[0]
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, BondType]] = []
    for g in graphs:
        bonds += [(u + len(atoms), v + len(atoms), t) for u, v, t in g.bonds]
        atoms += g.atoms
    return make_graph(atoms, bonds)


# ---------------------------------------------------------------------------
# Bond edits
# ---------------------------------------------------------------------------

def apply_edits(reactants: MolGraph, edits: Iterable) -> MolGraph:
    """Return a copy of ``reactants`` with each edited pair's bond replaced,
    created, or (for NONE) removed; all derived fields are recomputed.

    Atoms are never added or removed, so detached fragments stay behind as
    extra components. Pure: the input graph is left untouched. Bonds keep
    the reactants' order; created bonds follow, sorted by atom pair.
    """
    changes = _bond_changes(reactants, edits)
    bonds = []
    for bond in reactants.bonds:
        new_type = changes.pop((bond.u, bond.v), bond.bond_type)
        if new_type is not BondType.NONE:
            bonds.append((bond.u, bond.v, new_type))
    # What remains creates bonds; NONE on a missing bond was rejected as a
    # no-op edit.
    bonds += ((u, v, new_type) for (u, v), new_type in sorted(changes.items()))
    return make_graph(reactants.atoms, bonds)


def _bond_changes(reactants: MolGraph, edits: Iterable) -> dict[tuple[int, int], BondType]:
    """Validated edits as (u, v) with u < v -> new bond type: the one check
    of :func:`apply_edits` and :func:`edit_delta`."""
    n = reactants.n_atoms
    changes: dict[tuple[int, int], BondType] = {}
    for u, v, new_type in edits:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edit ({u},{v}) references a missing atom")
        if u == v:
            raise ValueError(f"edit on identical atoms ({u},{u})")
        key = (u, v) if u < v else (v, u)
        if new_type is reactants.bond_type_between(*key):
            raise ValueError(f"edit ({key[0]},{key[1]}) does not change the bond type")
        if key in changes:
            raise ValueError(f"conflicting edits for pair ({key[0]},{key[1]})")
        changes[key] = new_type
    return changes
