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

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ATOM_FEATURE_DIM",
    "BOND_FEATURE_DIM",
    "Atom",
    "Bond",
    "BondType",
    "MolGraph",
    "SmilesError",
    "apply_edits",
    "atom_features",
    "atom_feature_matrix",
    "bond_features",
    "edit_local_product",
    "induced_subgraph",
    "make_graph",
    "parse_smiles",
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


@dataclass
class Atom:
    element: str
    map_number: int | None = None
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int | None = None
    # Derived on graph construction:
    degree: int = 0
    implicit_h: int = 0

    def copy(self) -> "Atom":
        return Atom(self.element, self.map_number, self.formal_charge,
                    self.aromatic, self.explicit_h)

    @property
    def total_h(self) -> int:
        return (self.explicit_h or 0) + self.implicit_h


@dataclass
class Bond:
    u: int
    v: int
    bond_type: BondType
    # Derived on graph construction:
    conjugated: bool = False
    in_ring: bool = False

    def other(self, atom: int) -> int:
        return self.v if atom == self.u else self.u


@dataclass
class MolGraph:
    """Undirected molecular graph; possibly several connected components.

    ``adjacency[i]`` lists ``(neighbor_index, bond_index)`` pairs, consistent
    with ``bonds``. Derived fields (degree, implicit hydrogens, ring and
    conjugation flags, component ids) are filled by :func:`make_graph` and
    recomputed by :func:`apply_edits`; treat instances as immutable.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    adjacency: list[list[tuple[int, int]]] = field(default_factory=list)
    component: list[int] = field(default_factory=list)
    valence_warnings: tuple[int, ...] = ()

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
        for nbr, bi in self.adjacency[u]:
            if nbr == v:
                return self.bonds[bi]
        return None

    def bond_type_between(self, u: int, v: int) -> BondType:
        bond = self.bond_between(u, v)
        return bond.bond_type if bond is not None else BondType.NONE

    def neighbors(self, u: int) -> list[int]:
        return [nbr for nbr, _ in self.adjacency[u]]

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
    then computes all derived fields.
    """
    g = MolGraph(atoms=[a.copy() for a in atoms])
    seen: set[tuple[int, int]] = set()
    n = len(g.atoms)
    for u, v, bt in bonds:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bond ({u},{v}) references a missing atom")
        if u == v:
            raise ValueError(f"self-loop bond on atom {u}")
        if bt is BondType.NONE:
            raise ValueError("NONE is not a valid graph bond type")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate bond between atoms {key[0]} and {key[1]}")
        seen.add(key)
        g.bonds.append(Bond(key[0], key[1], bt))
    _finalize(g)
    return g


def _finalize(g: MolGraph) -> None:
    """Recompute adjacency, degrees, implicit H, ring/conjugation flags, components."""
    n = g.n_atoms
    g.adjacency = [[] for _ in range(n)]
    for bi, bond in enumerate(g.bonds):
        g.adjacency[bond.u].append((bond.v, bi))
        g.adjacency[bond.v].append((bond.u, bi))
    for adj in g.adjacency:
        adj.sort()

    warnings: list[int] = []
    for i, atom in enumerate(g.atoms):
        atom.degree = len(g.adjacency[i])
        half = sum(g.bonds[bi].bond_type.half_order for _, bi in g.adjacency[i])
        order_sum = half // 2  # aromatic counts 1.5 each; floor after summing
        atom.implicit_h = max(0, valence_for_h(atom.element, atom.formal_charge)
                              - order_sum - (atom.explicit_h or 0))
        if order_sum > valence_limit(atom.element, atom.formal_charge):
            warnings.append(i)
    g.valence_warnings = tuple(warnings)

    g.component = _components(g)
    _mark_rings(g)
    _mark_conjugation(g)


def _components(g: MolGraph) -> list[int]:
    comp = [-1] * g.n_atoms
    cid = 0
    for start in range(g.n_atoms):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = cid
        while stack:
            u = stack.pop()
            for nbr, _ in g.adjacency[u]:
                if comp[nbr] == -1:
                    comp[nbr] = cid
                    stack.append(nbr)
        cid += 1
    return comp


def _mark_rings(g: MolGraph) -> None:
    """A bond is in a ring iff it is not a bridge (iterative lowpoint search)."""
    n = g.n_atoms
    order = [-1] * n
    low = [0] * n
    counter = 0
    for bond in g.bonds:
        bond.in_ring = True  # downgraded below when found to be a bridge
    for root in range(n):
        if order[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (node, parent-bond, next-adj)
        while stack:
            u, pbond, it = stack.pop()
            if it == 0:
                order[u] = low[u] = counter
                counter += 1
            if it < len(g.adjacency[u]):
                stack.append((u, pbond, it + 1))
                nbr, bi = g.adjacency[u][it]
                if bi == pbond:
                    continue
                if order[nbr] == -1:
                    stack.append((nbr, bi, 0))
                else:
                    low[u] = min(low[u], order[nbr])
            elif pbond != -1:
                parent = g.bonds[pbond].other(u)
                low[parent] = min(low[parent], low[u])
                if low[u] > order[parent]:
                    g.bonds[pbond].in_ring = False  # bridge


def _mark_conjugation(g: MolGraph) -> None:
    # An atom "carries multiplicity" when any incident bond is double/triple/aromatic.
    multi = [False] * g.n_atoms
    for bond in g.bonds:
        if bond.bond_type in (BondType.DOUBLE, BondType.TRIPLE, BondType.AROMATIC):
            multi[bond.u] = True
            multi[bond.v] = True
    for bond in g.bonds:
        bond.conjugated = bond.bond_type is BondType.AROMATIC or (multi[bond.u] and multi[bond.v])


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
    isomorphic inputs.
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
    for open_atom, close_atom, bi in sorted(back_bonds, key=lambda t: (order[t[0]], order[t[1]])):
        digit = ring_counter[0]
        ring_counter[0] += 1
        opens.setdefault(open_atom, []).append(digit)
        closes.setdefault(close_atom, []).append((digit, bi))

    out: list[str] = []
    _emit(g, root, None, tree, opens, closes, out)
    return "".join(out)


def _emit(g: MolGraph, u: int, in_bond: int | None,
          tree: dict[int, list[tuple[int, int]]],
          opens: dict[int, list[int]],
          closes: dict[int, list[tuple[int, int]]],
          out: list[str]) -> None:
    if in_bond is not None:
        out.append(_bond_token(g, g.bonds[in_bond]))
    out.append(_atom_token(g.atoms[u]))
    for digit in opens.get(u, []):
        out.append(_ring_token(digit, ""))
    for digit, bi in closes.get(u, []):
        out.append(_ring_token(digit, _bond_token(g, g.bonds[bi])))
    kids = tree.get(u, [])
    for k, (child, bi) in enumerate(kids):
        if k < len(kids) - 1:
            out.append("(")
            _emit(g, child, bi, tree, opens, closes, out)
            out.append(")")
        else:
            _emit(g, child, bi, tree, opens, closes, out)


def _bond_token(g: MolGraph, bond: Bond) -> str:
    bt = bond.bond_type
    if bt in _BOND_SYMBOL:
        return _BOND_SYMBOL[bt]
    both_aromatic = g.atoms[bond.u].aromatic and g.atoms[bond.v].aromatic
    if bt is BondType.AROMATIC:
        return "" if both_aromatic else ":"
    return "-" if both_aromatic else ""  # single between aromatic atoms needs '-'


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
    and an aromatic bit."""
    atom = g.atoms[atom_index]
    f = np.zeros(ATOM_FEATURE_DIM)
    f[_ELEMENT_SLOT.get(atom.element, _UNKNOWN_SLOT)] = 1.0
    base = len(ELEMENTS) + 1
    f[base + min(atom.degree, _DEGREE_SLOTS - 1)] = 1.0
    base += _DEGREE_SLOTS
    f[base + min(atom.total_h, _TOTAL_H_SLOTS - 1)] = 1.0
    base += _TOTAL_H_SLOTS
    f[base + min(atom.implicit_h, _IMPLICIT_SLOTS - 1)] = 1.0
    base += _IMPLICIT_SLOTS
    f[base] = 1.0 if atom.aromatic else 0.0
    return f


def bond_features(g: MolGraph, bond_index: int) -> np.ndarray:
    """Bond-type one-hot (single/double/triple/aromatic) + conjugated + in-ring."""
    bond = g.bonds[bond_index]
    f = np.zeros(BOND_FEATURE_DIM)
    f[bond.bond_type.value - 1] = 1.0
    f[4] = 1.0 if bond.conjugated else 0.0
    f[5] = 1.0 if bond.in_ring else 0.0
    return f


def atom_feature_matrix(g: MolGraph) -> np.ndarray:
    if g.n_atoms == 0:
        return np.zeros((0, ATOM_FEATURE_DIM))
    return np.stack([atom_features(g, i) for i in range(g.n_atoms)])


def induced_subgraph(g: MolGraph, atom_indices: Sequence[int]) -> MolGraph:
    """The subgraph on the given atoms (order preserved) with bonds between them."""
    keep = list(dict.fromkeys(atom_indices))
    index_of = {old: new for new, old in enumerate(keep)}
    bonds = [(index_of[b.u], index_of[b.v], b.bond_type)
             for b in g.bonds if b.u in index_of and b.v in index_of]
    return make_graph([g.atoms[i] for i in keep], bonds)


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
    return make_graph(reactants.atoms, _edited_bonds(reactants, changes, range(reactants.n_atoms)))


def edit_local_product(reactants: MolGraph, edits: Iterable) -> tuple[MolGraph, list[int]]:
    """The components of ``apply_edits(reactants, edits)`` that hold an
    edited atom, and their atoms' reactant indices, ascending.

    Equals ``induced_subgraph(apply_edits(reactants, edits), atoms)`` in
    every atom and bond field and in bond order, without building the rest
    of the product. Those components hold exactly the atoms of the reactant
    components that hold an edited atom: each piece of a split component
    keeps an endpoint of a deleted bond, and an untouched component stays
    as it was.
    """
    changes = _bond_changes(reactants, edits)
    comps = {reactants.component[a] for pair in changes for a in pair}
    atoms = [i for i, c in enumerate(reactants.component) if c in comps]
    index = {a: i for i, a in enumerate(atoms)}
    return make_graph([reactants.atoms[i] for i in atoms],
                      _edited_bonds(reactants, changes, index)), atoms


def _bond_changes(reactants: MolGraph, edits: Iterable) -> dict[tuple[int, int], BondType]:
    """Validated edits as (u, v) with u < v -> new bond type."""
    n = reactants.n_atoms
    changes: dict[tuple[int, int], BondType] = {}
    for edit in edits:
        u, v, new_type = edit
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edit ({u},{v}) references a missing atom")
        if u == v:
            raise ValueError(f"edit on identical atoms ({u},{u})")
        key = (min(u, v), max(u, v))
        current = reactants.bond_type_between(*key)
        if new_type is current:
            raise ValueError(f"edit ({key[0]},{key[1]}) does not change the bond type")
        if key in changes:
            raise ValueError(f"conflicting edits for pair ({key[0]},{key[1]})")
        changes[key] = new_type
    return changes


def _edited_bonds(reactants: MolGraph, changes: dict[tuple[int, int], BondType],
                  index) -> list[tuple[int, int, BondType]]:
    """Bonds among whole components after ``changes``, renumbered by
    ``index`` (reactant atom -> new atom; ``in`` tests membership): kept
    bonds in reactant order, then created bonds sorted by pair."""
    changes = dict(changes)
    out: list[tuple[int, int, BondType]] = []
    for bond in reactants.bonds:
        if bond.u in index:
            new_type = changes.pop((bond.u, bond.v), bond.bond_type)
            if new_type is not BondType.NONE:
                out.append((index[bond.u], index[bond.v], new_type))
    # What remains creates bonds; NONE on a missing bond was rejected as a
    # no-op edit.
    for (u, v), new_type in sorted(changes.items()):
        out.append((index[u], index[v], new_type))
    return out
