"""Discrete Weisfeiler-Lehman relabeling, graph fingerprints, and a
brute-force isomorphism oracle for small graphs.

Labels are 64-bit FNV-1a hashes (offset basis 0xCBF29CE484222325, prime
0x100000001B3, xor-then-multiply per byte), so fingerprints are stable across
runs and platforms. Byte layout, exactly:

* round 0 hashes the ASCII string ``"<element>|<charge>|<aromatic 0/1>"``;
* each later round hashes the atom's own 8-byte big-endian label followed by,
  for every neighbor in ascending (bond type value, neighbor label) order,
  one bond-type byte and the neighbor's 8-byte big-endian label.

Equal fingerprints do not prove isomorphism (the usual blind spot of the
relabeling test on regular graphs); unequal fingerprints prove
non-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chemgraph import MolGraph

__all__ = [
    "WLFingerprint",
    "brute_force_isomorphic",
    "wl_equivalent",
    "wl_fingerprint",
    "wl_labels",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _base_label(g: MolGraph, i: int) -> int:
    atom = g.atoms[i]
    key = f"{atom.element}|{atom.formal_charge}|{int(atom.aromatic)}"
    return _fnv1a(key.encode("ascii"))


def wl_labels(g: MolGraph, depth: int) -> list[int]:
    """Per-atom labels after ``depth`` relabeling rounds.

    Round 0 hashes (element, charge, aromatic); each later round hashes the
    atom's own label together with the sorted multiset of (bond type,
    neighbor label) pairs.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    labels = [_base_label(g, i) for i in range(g.n_atoms)]
    for _ in range(depth):
        nxt = []
        for i in range(g.n_atoms):
            nbrs = sorted((g.bonds[bi].bond_type.value, labels[nbr])
                          for nbr, bi in g.adjacency[i])
            payload = labels[i].to_bytes(8, "big") + b"".join(
                bytes([bt]) + lab.to_bytes(8, "big") for bt, lab in nbrs)
            nxt.append(_fnv1a(payload))
        labels = nxt
    return labels


@dataclass(frozen=True)
class WLFingerprint:
    """Multiset of final node labels plus the multiset of labeled edge triples.

    Node labels are included so single-atom graphs stay distinguishable.
    Invariant under atom reindexing.
    """

    node_labels: tuple[int, ...]
    edge_triples: tuple[tuple[int, int, int], ...]


def wl_fingerprint(g: MolGraph, depth: int) -> WLFingerprint:
    labels = wl_labels(g, depth)
    triples = []
    for bond in g.bonds:
        lo, hi = sorted((labels[bond.u], labels[bond.v]))
        triples.append((lo, bond.bond_type.value, hi))
    return WLFingerprint(tuple(sorted(labels)), tuple(sorted(triples)))


def wl_equivalent(g1: MolGraph, g2: MolGraph, depth: int) -> bool:
    """True iff the two WL fingerprints match; False proves non-isomorphism."""
    return wl_fingerprint(g1, depth) == wl_fingerprint(g2, depth)


def brute_force_isomorphic(g1: MolGraph, g2: MolGraph, max_atoms: int = 10) -> bool:
    """Exact isomorphism by backtracking over atom bijections.

    Respects element, formal charge, aromatic flag, and bond types. Intended
    as a test oracle; refuses graphs above ``max_atoms``.
    """
    n = g1.n_atoms
    if n > max_atoms or g2.n_atoms > max_atoms:
        raise ValueError(f"brute-force oracle is limited to {max_atoms} atoms")
    if n != g2.n_atoms or g1.n_bonds != g2.n_bonds:
        return False

    def atom_key(g: MolGraph, i: int) -> tuple:
        a = g.atoms[i]
        return (a.element, a.formal_charge, a.aromatic, len(g.adjacency[i]))

    if sorted(atom_key(g1, i) for i in range(n)) != sorted(atom_key(g2, i) for i in range(n)):
        return False

    candidates = [[j for j in range(n) if atom_key(g1, i) == atom_key(g2, j)] for i in range(n)]
    mapping = [-1] * n
    used = [False] * n

    def compatible(i: int, j: int) -> bool:
        for nbr, bi in g1.adjacency[i]:
            if mapping[nbr] == -1:
                continue
            other = g2.bond_between(j, mapping[nbr])
            if other is None or other.bond_type is not g1.bonds[bi].bond_type:
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if not used[j] and compatible(i, j):
                mapping[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return extend(0)
