"""Restricted kekulized-SMILES input/output and chemistry-level checks.

The accepted grammar covers uppercase atoms (C, N, O, F, S, Cl), default
single bonds with ``=`` and ``#`` for double/triple, parenthesized branches,
ring closures labelled 1-9 then %10-%99, and ``.`` as a fragment separator for
disconnected structures.  No charges, isotopes, stereo markers, or aromatic
lowercase; aromatic input must be kekulized beforehand.

Canonical strings come from iterative neighborhood refinement with full
tie-breaking (branch on every tied atom, keep the lexicographically smallest
serialization), so isomorphic molecules always map to the same text.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ChemError, DatasetError, GraphError, SmilesParseError
from .graphs import DEFAULT_VALENCES, GraphSpec, MolecularGraph, check_graphs, stack_graphs

_BOND_TEXT = {1: "", 2: "=", 3: "#"}
_ATOM_TOKENS = ("Cl", "C", "N", "O", "F", "S")  # two-character symbols first
# Ring-closure labels in numeric order; the writer takes the lowest free one.
_RING_LABELS = [str(n) for n in range(1, 10)] + [f"%{n}" for n in range(10, 100)]


def _valence_limit(symbol: str) -> int:
    """The maximum total bond order of ``symbol`` in :data:`DEFAULT_VALENCES`."""
    try:
        return DEFAULT_VALENCES[symbol]
    except KeyError:
        raise ChemError(f"no valence entry for atom symbol {symbol!r}") from None


def _check_bond(i: int, j: int, order: int, count: int) -> None:
    """Raise :class:`ChemError` unless bond ``(i, j, order)`` joins two
    distinct atoms of ``count`` with an order in 1..3."""
    if not (0 <= i < count and 0 <= j < count):
        raise ChemError(f"bond ({i}, {j}) references a missing atom")
    if i == j:
        raise ChemError(f"atom {i} bonded to itself")
    if order not in (1, 2, 3):
        raise ChemError(f"bond order {order} not in 1..3")


@dataclass
class Molecule:
    """Atom/bond list bridging SMILES text and padded graph tensors.

    Bonds are ``(i, j, order)`` triples with ``order`` in {1, 2, 3}.  The
    constructor is permissive (an empty molecule is representable so decoded
    junk can be inspected); :meth:`validate` enforces the invariants.
    """

    atoms: list[str]
    bonds: list[tuple[int, int, int]]

    def validate(self) -> "Molecule":
        if len(self.atoms) < 1:
            raise ChemError("molecule needs at least one atom")
        seen = set()
        for i, j, order in self.bonds:
            _check_bond(i, j, order, len(self.atoms))
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ChemError(f"duplicate bond between atoms {pair[0]} and {pair[1]}")
            seen.add(pair)
        return self

    def neighbor_map(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of (neighbor index, bond order)."""
        nbrs: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for i, j, order in self.bonds:
            nbrs[i].append((j, order))
            nbrs[j].append((i, order))
        return nbrs

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists."""
        nbrs = self.neighbor_map()
        unseen = set(range(len(self.atoms)))
        comps = []
        while unseen:
            root = min(unseen)
            stack, comp = [root], []
            unseen.discard(root)
            while stack:
                a = stack.pop()
                comp.append(a)
                for b, _ in nbrs[a]:
                    if b in unseen:
                        unseen.discard(b)
                        stack.append(b)
            comps.append(sorted(comp))
        return comps


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[str, ...]


def check_validity(molecule: Molecule) -> ValidityReport:
    """Valence check: every atom's summed bond order within its limit in
    :data:`DEFAULT_VALENCES`.

    Connectivity does not affect validity: a disconnected molecule within
    its valences is valid.  An empty molecule is invalid.  A bond that does
    not join two distinct atoms with an order in 1..3, or an atom symbol with
    no valence entry, raises :class:`ChemError`.
    """
    count = len(molecule.atoms)
    violations = [] if count else ["molecule has no atoms"]
    totals = [0] * count
    for i, j, order in molecule.bonds:
        # The inline test keeps a call off every bond; _check_bond words the error.
        if not (0 <= i < count and 0 <= j < count and i != j and order in (1, 2, 3)):
            _check_bond(i, j, order, count)
        totals[i] += order
        totals[j] += order
    for idx, symbol in enumerate(molecule.atoms):
        limit = _valence_limit(symbol)
        if totals[idx] > limit:
            violations.append(f"atom {idx} ({symbol}) has bond order {totals[idx]} > {limit}")
    return ValidityReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _match_atom(text: str, i: int) -> str | None:
    for token in _ATOM_TOKENS:
        if text.startswith(token, i):
            return token
    return None


def parse_smiles_lite(text: str) -> Molecule:
    """Parse restricted SMILES text into a :class:`Molecule`.

    Raises :class:`SmilesParseError` with the byte offset of the offending
    character for unmatched parentheses, unmatched ring digits, unknown atom
    symbols, and dangling bond symbols.
    """
    atoms: list[str] = []
    bonds: list[tuple[int, int, int]] = []
    bonded_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: tuple[int, int] | None = None  # (order, offset)
    branch_stack: list[tuple[int, int]] = []  # (atom index, '(' offset)
    open_rings: dict[str, tuple[int, int | None, int]] = {}  # label -> (atom, order, offset)
    dangling_dot: int | None = None

    def add_bond(i: int, j: int, order: int, offset: int) -> None:
        pair = (min(i, j), max(i, j))
        if i == j:
            raise SmilesParseError("ring closure bonds an atom to itself", offset)
        if pair in bonded_pairs:
            raise SmilesParseError("ring closure duplicates an existing bond", offset)
        bonded_pairs.add(pair)
        bonds.append((i, j, order))

    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            if prev is None:
                raise SmilesParseError("branch start without a preceding atom", i)
            if pending is not None:
                raise SmilesParseError("bond symbol with no following atom", pending[1])
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if pending is not None:
                raise SmilesParseError("bond symbol with no following atom", pending[1])
            if not branch_stack:
                raise SmilesParseError("unmatched ')'", i)
            prev = branch_stack.pop()[0]
            i += 1
        elif ch in "=#":
            if prev is None:
                raise SmilesParseError("bond symbol without a preceding atom", i)
            if pending is not None:
                raise SmilesParseError("two bond symbols in a row", i)
            pending = (2 if ch == "=" else 3, i)
            i += 1
        elif ch.isdigit() or ch == "%":
            label = text[i : i + 3] if ch == "%" else ch
            if label not in _RING_LABELS:
                raise SmilesParseError("ring closure digits are 1-9, or %10-%99", i)
            if prev is None:
                raise SmilesParseError("ring digit without a preceding atom", i)
            if label in open_rings:
                other, opened_order, _ = open_rings.pop(label)
                closing_order = pending[0] if pending is not None else None
                if (
                    opened_order is not None
                    and closing_order is not None
                    and opened_order != closing_order
                ):
                    raise SmilesParseError("ring closure bond orders disagree", i)
                order = opened_order or closing_order or 1
                add_bond(other, prev, order, i)
            else:
                open_rings[label] = (prev, pending[0] if pending is not None else None, i)
            pending = None
            i += len(label)
        elif ch == ".":
            if pending is not None:
                raise SmilesParseError("bond symbol with no following atom", pending[1])
            if branch_stack:
                raise SmilesParseError("fragment separator inside a branch", i)
            if prev is None:
                raise SmilesParseError("fragment separator without a preceding atom", i)
            prev = None
            dangling_dot = i
            i += 1
        else:
            symbol = _match_atom(text, i)
            if symbol is None:
                raise SmilesParseError(f"unknown atom symbol {ch!r}", i)
            idx = len(atoms)
            atoms.append(symbol)
            if prev is not None:
                add_bond(prev, idx, pending[0] if pending is not None else 1, i)
            pending = None
            dangling_dot = None
            prev = idx
            i += len(symbol)

    if pending is not None:
        raise SmilesParseError("bond symbol with no following atom", pending[1])
    if dangling_dot is not None:
        raise SmilesParseError("fragment separator with no following atom", dangling_dot)
    if branch_stack:
        raise SmilesParseError("unmatched '('", branch_stack[-1][1])
    if open_rings:
        first = min(offset for _, _, offset in open_rings.values())
        raise SmilesParseError("unmatched ring closure digit", first)
    if not atoms:
        raise SmilesParseError("empty SMILES string", 0)
    return Molecule(atoms, bonds).validate()


# ---------------------------------------------------------------------------
# canonical writing
# ---------------------------------------------------------------------------


def _refine(colors: list[int], nbrs: list[list[tuple[int, int]]], members: list[int]) -> list[int]:
    """Iterate neighborhood refinement until the partition stabilizes."""
    while True:
        keys = {
            a: (colors[a], tuple(sorted((order, colors[b]) for b, order in nbrs[a])))
            for a in members
        }
        ranked = {key: rank for rank, key in enumerate(sorted(set(keys.values())))}
        new = list(colors)
        for a in members:
            new[a] = ranked[keys[a]]
        if all(new[a] == colors[a] for a in members):
            return new
        colors = new


def _serialize(
    molecule: Molecule,
    members: list[int],
    rank: dict[int, int],
    nbrs: list[list[tuple[int, int]]],
) -> str:
    """Emit one SMILES string for a component under a discrete atom ranking."""
    root = min(members, key=lambda a: rank[a])

    # Pass 1: preorder DFS (children in rank order, matching emission order)
    # fixes the spanning tree; every non-tree edge becomes a ring closure.
    children: dict[int, list[tuple[int, int]]] = {a: [] for a in members}  # (child, bond order)
    ring_bonds: dict[int, list[tuple[int, int]]] = {a: [] for a in members}
    seen_edges: set[tuple[int, int]] = set()
    visited = {root}

    def walk(atom: int) -> None:
        for other, order in sorted(nbrs[atom], key=lambda e: rank[e[0]]):
            edge = (min(atom, other), max(atom, other))
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            if other in visited:
                ring_bonds[atom].append((other, order))
                ring_bonds[other].append((atom, order))
            else:
                visited.add(other)
                children[atom].append((other, order))
                walk(other)

    walk(root)

    # Pass 2: emit text; ring labels, indices into _RING_LABELS, allocated
    # at the opening end.
    out: list[str] = []
    label_for: dict[tuple[int, int], int] = {}
    free_labels = list(range(len(_RING_LABELS)))
    emitted: set[int] = set()

    def emit(atom: int) -> None:
        out.append(molecule.atoms[atom])
        emitted.add(atom)
        closings = []
        openings = []
        for other, order in ring_bonds[atom]:
            edge = (min(atom, other), max(atom, other))
            if other in emitted:
                closings.append((label_for[edge], edge))
            else:
                openings.append((rank[other], edge, order))
        for label, edge in sorted(closings):
            out.append(_RING_LABELS[label])
            free_labels.append(label)
            free_labels.sort()
        for _, edge, order in sorted(openings):
            if not free_labels:
                raise ChemError(f"more than {len(_RING_LABELS)} simultaneously open ring closures")
            label = free_labels.pop(0)
            label_for[edge] = label
            out.append(_BOND_TEXT[order] + _RING_LABELS[label])
        kids = children[atom]
        for child, order in kids[:-1]:
            out.append("(" + _BOND_TEXT[order])
            emit(child)
            out.append(")")
        if kids:
            child, order = kids[-1]
            out.append(_BOND_TEXT[order])
            emit(child)

    emit(root)
    return "".join(out)


def _canonical_component(molecule: Molecule, members: list[int]) -> str:
    """The least SMILES text over the leaves of the individualize-and-refine
    search tree, each leaf a discrete ranking of ``members``.

    Siblings that an automorphism maps onto each other have subtrees of the
    same texts, so only one is searched (McKay & Piperno 2014).  A later
    child is skipped when the molecule relabeled by its first leaf's ranking
    equals the one relabeled by an explored sibling's first leaf.  The two
    rankings then differ by an automorphism that maps the parent's ordered
    partition onto itself, so it fixes every atom individualized on the
    path, and that maps the sibling's chosen atom onto the child's.
    """
    nbrs = molecule.neighbor_map()
    n = len(molecule.atoms)
    initial = {
        a: (
            molecule.atoms[a],
            len(nbrs[a]),
            tuple(sorted(order for _, order in nbrs[a])),
        )
        for a in members
    }
    ranked = {key: r for r, key in enumerate(sorted(set(initial.values())))}
    colors = [0] * n
    for a in members:
        colors[a] = ranked[initial[a]]
    colors = _refine(colors, nbrs, members)

    best: list[str | None] = [None]

    def target(colors: list[int]) -> list[int] | None:
        """The tied cell of least color, or None for a discrete ranking."""
        cells: dict[int, list[int]] = {}
        for a in members:
            cells.setdefault(colors[a], []).append(a)
        tied = [c for c, atoms in sorted(cells.items()) if len(atoms) > 1]
        return cells[tied[0]] if tied else None

    def individualize(colors: list[int], chosen: int) -> list[int]:
        # Give the chosen atom a strictly smaller color, then re-refine.
        branched = list(colors)
        for a in members:
            branched[a] = colors[a] * 2 + (0 if a == chosen else 1)
        return _refine(branched, nbrs, members)

    def relabeled(rank: list[int]) -> tuple:
        """The molecule with each atom renumbered by the discrete ``rank``."""
        atoms = tuple(molecule.atoms[a] for a in sorted(members, key=rank.__getitem__))
        bonds = sorted((rank[a], rank[b], order) for a in members for b, order in nbrs[a] if rank[a] < rank[b])
        return atoms, tuple(bonds)

    def first_leaf(colors: list[int]) -> tuple:
        while (cell := target(colors)) is not None:
            colors = individualize(colors, cell[0])
        return relabeled(colors)

    def search(colors: list[int]) -> tuple:
        """Search the subtree at ``colors``; return its first leaf's
        relabeled molecule, as :func:`first_leaf` does."""
        cell = target(colors)
        if cell is None:
            text = _serialize(molecule, members, {a: colors[a] for a in members}, nbrs)
            if best[0] is None or text < best[0]:
                best[0] = text
            return relabeled(colors)
        first = search(individualize(colors, cell[0]))
        seen = {first}
        for chosen in cell[1:]:
            child = individualize(colors, chosen)
            leaf = first_leaf(child)
            if leaf not in seen:
                seen.add(leaf)
                search(child)
        return first

    search(colors)
    assert best[0] is not None
    return best[0]


def write_smiles_canonical(molecule: Molecule) -> str:
    """Deterministic text form: identical for every atom relabeling.

    Disconnected molecules serialize as '.'-joined component strings in
    sorted order.  Raises :class:`ChemError` for invalid molecules.
    """
    molecule.validate()
    report = check_validity(molecule)
    if not report.ok:
        raise ChemError("cannot canonicalize an invalid molecule: " + "; ".join(report.violations))
    pieces = [_canonical_component(molecule, comp) for comp in molecule.components()]
    return ".".join(sorted(pieces))


# ---------------------------------------------------------------------------
# graph conversion
# ---------------------------------------------------------------------------


def to_graph(molecule: Molecule, spec: GraphSpec) -> MolecularGraph:
    """Pad a molecule to the spec's node count with virtual atoms and bonds."""
    return _padded(molecule, spec).validate()


def _padded(molecule: Molecule, spec: GraphSpec) -> MolecularGraph:
    """:func:`to_graph` without the final graph-invariant check."""
    molecule.validate()
    n = spec.num_nodes
    if len(molecule.atoms) > n:
        raise ChemError(f"molecule with {len(molecule.atoms)} atoms exceeds spec size {n}")
    features = np.zeros(spec.feature_shape())
    for idx, symbol in enumerate(molecule.atoms):
        try:
            col = spec.atom_vocab.index(symbol)
        except ValueError:
            raise ChemError(f"atom symbol {symbol!r} not in spec vocabulary") from None
        if col == spec.virtual_atom:
            raise ChemError("molecules may not contain the virtual atom symbol")
        features[idx, col] = 1.0
    features[len(molecule.atoms):, spec.virtual_atom] = 1.0

    adjacency = np.zeros(spec.adjacency_shape())
    adjacency[:, :, spec.virtual_bond] = 1.0
    for i, j, order in molecule.bonds:
        channel = order - 1
        if channel >= spec.virtual_bond:
            raise ChemError(f"bond order {order} has no channel in bond_vocab {list(spec.bond_vocab)}")
        adjacency[i, j, :] = 0.0
        adjacency[j, i, :] = 0.0
        adjacency[i, j, channel] = 1.0
        adjacency[j, i, channel] = 1.0
    return MolecularGraph(spec, adjacency, features)


def from_graphs(graphs: Sequence[MolecularGraph]) -> list[Molecule]:
    """Drop virtual padding from each graph of one spec; a molecule may come
    out empty or invalid.  Raises :class:`GraphError` if a graph breaks an
    invariant.

    Atom indices are compacted in node order, and each graph's bonds are
    listed in row-major order of their upper-triangle node pairs.
    """
    if not graphs:
        return []
    spec = graphs[0].spec
    if any(g.spec != spec for g in graphs):
        raise GraphError("from_graphs needs graphs of one spec")
    adjacency, features = stack_graphs(graphs)
    check_graphs(spec, adjacency, features)
    return _molecules(spec, adjacency, features)


def _molecules(spec: GraphSpec, adjacency: np.ndarray, features: np.ndarray) -> list[Molecule]:
    """:func:`from_graphs` on stacked [B, N, N, R] / [B, N, M] arrays that
    already keep every graph invariant; they are not checked again."""
    kinds = features.argmax(axis=-1)
    real = kinds != spec.virtual_atom
    compact = np.cumsum(real, axis=-1) - 1
    # Virtual nodes carry only virtual bonds, so every real bond joins two
    # real atoms.
    rows, cols = np.triu_indices(spec.num_nodes, k=1)
    channels = adjacency[:, rows, cols].argmax(axis=-1)
    owner, pair = np.nonzero(channels != spec.virtual_bond)
    bonds = list(
        zip(
            compact[owner, rows[pair]].tolist(),
            compact[owner, cols[pair]].tolist(),
            (channels[owner, pair] + 1).tolist(),
        )
    )
    atoms = np.array(spec.atom_vocab, dtype=object)[kinds[real]].tolist()
    atom_ends = np.cumsum(real.sum(axis=-1)).tolist()
    bond_ends = np.cumsum(np.bincount(owner, minlength=len(features))).tolist()
    molecules = []
    atom_start = bond_start = 0
    for atom_end, bond_end in zip(atom_ends, bond_ends):
        molecules.append(Molecule(atoms[atom_start:atom_end], bonds[bond_start:bond_end]))
        atom_start, bond_start = atom_end, bond_end
    return molecules


def from_graph(graph: MolecularGraph) -> Molecule:
    """:func:`from_graphs` for one graph."""
    return from_graphs([graph])[0]


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def load_dataset(path, spec: GraphSpec) -> list[MolecularGraph]:
    """Load a newline-delimited SMILES file into padded graphs.

    Blank lines and lines starting with '#' are skipped.  The first bad line
    raises :class:`DatasetError` with its line number.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    graphs: list[MolecularGraph] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            molecule = parse_smiles_lite(line)
            report = check_validity(molecule)
            if not report.ok:
                raise ChemError("; ".join(report.violations))
            graphs.append(_padded(molecule, spec))
        except (ChemError, SmilesParseError) as exc:
            raise DatasetError(f"{path.name} line {lineno}: {exc}") from exc
    if graphs:
        check_graphs(spec, *stack_graphs(graphs))
    return graphs


def bundled_corpus_path(name: str) -> Path:
    """Filesystem path of a corpus shipped with the package (qm9lite, zinclite)."""
    ref = resources.files("graphnvp").joinpath("data").joinpath(f"{name}.smi")
    if not ref.is_file():
        raise DatasetError(f"no bundled corpus named {name!r}")
    return Path(str(ref))
