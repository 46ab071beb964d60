import time

import numpy as np
import pytest

from graphnvp.chem import (
    Molecule,
    bundled_corpus_path,
    check_validity,
    from_graph,
    from_graphs,
    load_dataset,
    parse_smiles_lite,
    to_graph,
    write_smiles_canonical,
)
from graphnvp.errors import ChemError, DatasetError, GraphError, SmilesParseError
from graphnvp.graphs import MolecularGraph, discretize_argmax, qm9lite_spec, zinclite_spec
from graphnvp.tensor import make_rng

from conftest import TOY_SPEC, permute_nodes


def bonds_as_set(molecule):
    return {(min(i, j), max(i, j), order) for i, j, order in molecule.bonds}


def relabel(molecule: Molecule, perm) -> Molecule:
    """perm[i] = new index of old atom i."""
    atoms = [None] * len(molecule.atoms)
    for old, new in enumerate(perm):
        atoms[new] = molecule.atoms[old]
    bonds = [(perm[i], perm[j], order) for i, j, order in molecule.bonds]
    return Molecule(atoms, bonds)


def isomorphic(a: Molecule, b: Molecule) -> bool:
    """Brute-force matching with symbol/degree pruning; fine below ~12 atoms."""
    if len(a.atoms) != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    if sorted(a.atoms) != sorted(b.atoms):
        return False
    bonds_b = bonds_as_set(b)
    nbrs_a = a.neighbor_map()
    nbrs_b = b.neighbor_map()

    def degree_sig(molecule, nbrs, i):
        return (molecule.atoms[i], tuple(sorted(order for _, order in nbrs[i])))

    sig_a = [degree_sig(a, nbrs_a, i) for i in range(len(a.atoms))]
    sig_b = [degree_sig(b, nbrs_b, i) for i in range(len(b.atoms))]
    mapping = {}
    used = set()

    def extend(i):
        if i == len(a.atoms):
            return True
        for j in range(len(b.atoms)):
            if j in used or sig_a[i] != sig_b[j]:
                continue
            ok = True
            for k, order in nbrs_a[i]:
                if k < i:
                    pair = (min(mapping[k], j), max(mapping[k], j), order)
                    if pair not in bonds_b:
                        ok = False
                        break
            # also require no extra bonds among mapped atoms
            if ok:
                mapped_neighbors = sum(1 for k, _ in nbrs_a[i] if k < i)
                existing = sum(
                    1 for k2, _ in nbrs_b[j] if k2 in {mapping[k] for k in range(i) }
                )
                if mapped_neighbors != existing:
                    ok = False
            if ok:
                mapping[i] = j
                used.add(j)
                if extend(i + 1):
                    return True
                del mapping[i]
                used.discard(j)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_atom():
    m = parse_smiles_lite("C")
    assert m.atoms == ["C"] and m.bonds == []


def test_parse_cumulated_double_bonds():
    m = parse_smiles_lite("O=C=O")
    assert m.atoms == ["O", "C", "O"]
    assert bonds_as_set(m) == {(0, 1, 2), (1, 2, 2)}


def test_parse_six_ring():
    m = parse_smiles_lite("C1CCCCC1")
    assert len(m.atoms) == 6
    assert len(m.bonds) == 6
    assert check_validity(m).ok
    degrees = sorted(len(n) for n in m.neighbor_map())
    assert degrees == [2] * 6


def test_parse_branches_and_orders():
    m = parse_smiles_lite("CC(=O)N(C)C#N")
    assert m.atoms == ["C", "C", "O", "N", "C", "C", "N"]
    assert (1, 2, 2) in bonds_as_set(m)
    assert (5, 6, 3) in bonds_as_set(m)


def test_parse_two_character_atom():
    m = parse_smiles_lite("ClCCl")
    assert m.atoms == ["Cl", "C", "Cl"]


def test_parse_dot_separator():
    m = parse_smiles_lite("CC.O")
    assert m.atoms == ["C", "C", "O"]
    assert len(m.components()) == 2


def test_parse_ring_bond_order_at_either_end():
    assert bonds_as_set(parse_smiles_lite("C=1CCC=1")) == bonds_as_set(parse_smiles_lite("C1CCC=1"))
    with pytest.raises(SmilesParseError):
        parse_smiles_lite("C=1CCC#1")


@pytest.mark.parametrize(
    "text,fragment,offset",
    [
        ("C(C", "unmatched '('", 1),
        ("CC)C", "unmatched ')'", 2),
        ("C1CC", "unmatched ring", 1),
        ("CX", "unknown atom", 1),
        ("C=", "no following atom", 1),
        ("C=)C", "no following atom", 1),
        ("c1ccccc1", "unknown atom", 0),
        ("C[NH2]", "unknown atom", 1),
        ("(CC)", "branch start", 0),
        ("C11", "itself", 2),
        ("C1C1", "duplicates an existing bond", 3),
        ("C==C", "two bond symbols", 2),
        ("", "empty", 0),
        ("C.", "separator", 1),
        ("C0CC0", "digits are 1-9", 1),
    ],
)
def test_parse_errors_carry_offsets(text, fragment, offset):
    with pytest.raises(SmilesParseError) as err:
        parse_smiles_lite(text)
    assert fragment in str(err.value)
    assert err.value.offset == offset


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def test_validity_single_carbon():
    assert check_validity(parse_smiles_lite("C")).ok


def test_validity_overbonded_fluorine():
    m = Molecule(["F", "C", "C"], [(0, 1, 1), (0, 2, 1)])
    report = check_validity(m)
    assert not report.ok
    assert any("atom 0" in v and "F" in v for v in report.violations)


def test_validity_empty_molecule():
    report = check_validity(Molecule([], []))
    assert not report.ok


def test_validity_does_not_depend_on_connectivity():
    m = parse_smiles_lite("CC.O")
    assert check_validity(m).ok
    assert len(m.components()) == 2


def test_validity_unknown_symbol_raises():
    with pytest.raises(ChemError):
        check_validity(Molecule(["Xx"], []))


@pytest.mark.parametrize(
    "molecule, message",
    [
        (Molecule(["C", "O"], [(0, -1, 2)]), "bond (0, -1) references a missing atom"),
        (Molecule(["C"], [(0, 5, 1)]), "bond (0, 5) references a missing atom"),
        (Molecule(["C", "C"], [(0, 0, 1)]), "atom 0 bonded to itself"),
        (Molecule(["C", "C"], [(0, 1, 4)]), "bond order 4 not in 1..3"),
        (Molecule(["C", "C"], [(0, 1, 0)]), "bond order 0 not in 1..3"),
    ],
)
def test_validity_refuses_a_malformed_bond_like_validate(molecule, message):
    """A bond end outside the atoms, a self-bond or an order outside 1..3 is
    an error, worded as :meth:`Molecule.validate` words it, not a count."""
    with pytest.raises(ChemError) as checked:
        check_validity(molecule)
    with pytest.raises(ChemError) as validated:
        molecule.validate()
    assert str(checked.value) == str(validated.value) == message


def test_validity_permutation_invariant():
    rng = make_rng(0)
    m = parse_smiles_lite("CC(=O)N(C)C#N")
    base = check_validity(m).ok
    for _ in range(20):
        perm = list(rng.permutation(len(m.atoms)))
        assert check_validity(relabel(m, perm)).ok == base


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def test_canonical_single_atom():
    assert write_smiles_canonical(parse_smiles_lite("C")) == "C"


def test_canonical_invariant_under_relabeling():
    rng = make_rng(1)
    for text in ["CC(=O)N(C)C#N", "C1CCCCC1", "C1=CC=CC=C1", "OC1CC1F", "N1NN1", "CC.O"]:
        m = parse_smiles_lite(text)
        reference = write_smiles_canonical(m)
        for _ in range(30):
            perm = list(rng.permutation(len(m.atoms)))
            assert write_smiles_canonical(relabel(m, perm)) == reference, text


def test_canonical_round_trip_isomorphic():
    for text in ["C", "O=C=O", "C1CCCCC1", "CC(C)(C)C", "FC1=CC=CC1", "CC.O"]:
        m = parse_smiles_lite(text)
        again = parse_smiles_lite(write_smiles_canonical(m))
        assert isomorphic(m, again), text


def test_canonical_rejects_invalid():
    with pytest.raises(ChemError):
        write_smiles_canonical(Molecule(["F", "C", "C"], [(0, 1, 1), (0, 2, 1)]))


def test_canonical_disconnected_sorted_components():
    a = write_smiles_canonical(parse_smiles_lite("CC.O"))
    b = write_smiles_canonical(parse_smiles_lite("O.CC"))
    assert a == b and "." in a


def test_canonical_highly_symmetric_ring():
    # all-carbon ring: nine equivalent atoms force the tie-break search
    ring = "C1CCCCCCCC1"
    m = parse_smiles_lite(ring)
    reference = write_smiles_canonical(m)
    rng = make_rng(2)
    for _ in range(10):
        perm = list(rng.permutation(9))
        assert write_smiles_canonical(relabel(m, perm)) == reference


@pytest.mark.parametrize(
    "text",
    [
        "C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
        "C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
    ],
)
def test_canonical_prunes_automorphic_branches(text):
    """Four and six CF3 groups: searching every tie-break, as many leaves as
    the molecule has automorphisms, took 4.8 s for the first on a 2-core
    x86 VM; with sibling branches an automorphism maps together searched
    once, each string takes milliseconds, and it does not change under
    relabeling."""
    m = parse_smiles_lite(text)
    start = time.perf_counter()
    reference = write_smiles_canonical(m)
    assert time.perf_counter() - start < 0.5
    again = parse_smiles_lite(reference)
    assert sorted(again.atoms) == sorted(m.atoms) and len(again.bonds) == len(m.bonds)
    assert write_smiles_canonical(again) == reference
    rng = make_rng(3)
    for _ in range(5):
        perm = list(rng.permutation(len(m.atoms)))
        start = time.perf_counter()
        assert write_smiles_canonical(relabel(m, perm)) == reference
        assert time.perf_counter() - start < 0.5


def test_canonical_searches_branches_no_automorphism_joins():
    """A cubic graph on eight carbons with two triangles: refinement leaves
    every atom in one cell, but the atoms outside the triangles have no
    automorphism to those inside, so their branches must both be searched
    for the string not to depend on the labels."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 3), (2, 6), (5, 7)]
    m = Molecule(["C"] * 8, [(a, b, 1) for a, b in edges])
    reference = write_smiles_canonical(m)
    rng = make_rng(4)
    for _ in range(30):
        assert write_smiles_canonical(relabel(m, list(rng.permutation(8)))) == reference


# ---------------------------------------------------------------------------
# graph conversion
# ---------------------------------------------------------------------------


def test_to_graph_pads_and_round_trips():
    spec = qm9lite_spec()
    m = parse_smiles_lite("C")
    g = to_graph(m, spec)
    assert g.features[:, spec.virtual_atom].sum() == spec.num_nodes - 1
    assert isomorphic(from_graph(g), m)


def test_to_graph_full_occupancy_boundary():
    spec = qm9lite_spec()
    m = parse_smiles_lite("CCCCCCCCC")  # exactly 9 atoms
    g = to_graph(m, spec)
    assert g.features[:, spec.virtual_atom].sum() == 0


def test_to_graph_too_large():
    spec = qm9lite_spec()
    with pytest.raises(ChemError):
        to_graph(parse_smiles_lite("CCCCCCCCCC"), spec)


def test_to_graph_rejects_foreign_symbol():
    with pytest.raises(ChemError):
        to_graph(parse_smiles_lite("CS"), qm9lite_spec())


@pytest.mark.parametrize("text, order", [("C=C", 2), ("C#C", 3)])
def test_to_graph_refuses_a_bond_order_without_a_real_channel(text, order):
    """Under a spec with one real bond channel a double or triple bond has
    nowhere to go: it is refused, not written into the virtual channel."""
    with pytest.raises(ChemError, match=rf"bond order {order} has no channel in bond_vocab \['single', 'virtual'\]"):
        to_graph(parse_smiles_lite(text), TOY_SPEC)
    assert from_graph(to_graph(parse_smiles_lite("CC"), TOY_SPEC)).bonds == [(0, 1, 1)]


def test_graph_round_trip_respects_node_permutation():
    spec = qm9lite_spec()
    rng = make_rng(3)
    m = parse_smiles_lite("CC(=O)NC")
    g = to_graph(m, spec)
    for _ in range(25):
        perm = rng.permutation(spec.num_nodes)
        shuffled = permute_nodes(g, perm)
        assert write_smiles_canonical(from_graph(shuffled)) == write_smiles_canonical(m)


def from_graph_oracle(graph: MolecularGraph) -> Molecule:
    """One graph at a time: compact the real nodes, then visit every node
    pair above the diagonal in row-major order."""
    graph.validate()
    spec = graph.spec
    kinds = graph.features.argmax(axis=1)
    real = [i for i in range(spec.num_nodes) if kinds[i] != spec.virtual_atom]
    compact = {node: idx for idx, node in enumerate(real)}
    atoms = [spec.atom_vocab[kinds[i]] for i in real]
    bonds = []
    for a in real:
        for b in real:
            if a >= b:
                continue
            channel = int(graph.adjacency[a, b].argmax())
            if channel != spec.virtual_bond:
                bonds.append((compact[a], compact[b], channel + 1))
    return Molecule(atoms, bonds)


def random_discretized_batch(spec, rng, batch):
    """Decoded-looking graphs: random scores, with every fourth graph forced
    all-virtual (empty) and every fourth, offset by one, fully occupied."""
    adjacency = rng.normal(size=(batch,) + spec.adjacency_shape())
    features = rng.normal(size=(batch,) + spec.feature_shape())
    features[0::4, :, spec.virtual_atom] = 10.0
    features[1::4, :, spec.virtual_atom] = -10.0
    return [MolecularGraph(spec, a, x) for a, x in zip(*discretize_argmax(spec, adjacency, features))]


@pytest.mark.parametrize("spec", [qm9lite_spec(), zinclite_spec()], ids=["qm9lite", "zinclite"])
def test_from_graphs_equals_per_graph_oracle(spec):
    graphs = random_discretized_batch(spec, make_rng(21), 40)
    molecules = from_graphs(graphs)
    expected = [from_graph_oracle(g) for g in graphs]
    assert molecules == expected
    for got, want in zip(molecules, expected):
        assert [type(a) for a in got.atoms] == [type(a) for a in want.atoms]
        assert [tuple(map(type, b)) for b in got.bonds] == [tuple(map(type, b)) for b in want.bonds]
    sizes = [len(m.atoms) for m in molecules]
    assert sizes[0::4] == [0] * 10 and sizes[1::4] == [spec.num_nodes] * 10
    assert {order for m in molecules for _, _, order in m.bonds} == {1, 2, 3}
    assert [from_graph(g) for g in graphs[:6]] == expected[:6]
    assert from_graphs([]) == []


def test_from_graphs_rejects_a_corrupt_graph_in_the_batch():
    spec = qm9lite_spec()
    graphs = random_discretized_batch(spec, make_rng(22), 6)
    a = np.array(graphs[3].adjacency)
    a[0, 1] = a[1, 0] = 0.0  # a pair with no bond channel
    corrupt = MolecularGraph(spec, a, graphs[3].features)
    with pytest.raises(GraphError, match="exactly one bond channel"):
        from_graphs(graphs[:3] + [corrupt] + graphs[4:])
    with pytest.raises(GraphError, match="exactly one bond channel"):
        from_graph(corrupt)
    with pytest.raises(GraphError, match="one spec"):
        from_graphs([graphs[0], to_graph(parse_smiles_lite("C"), zinclite_spec())])


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_load_dataset_small(tmp_path):
    path = tmp_path / "two.smi"
    path.write_text("C\nO=C=O\n")
    graphs = load_dataset(path, qm9lite_spec())
    assert len(graphs) == 2


def test_load_dataset_reports_line_number(tmp_path):
    path = tmp_path / "bad.smi"
    path.write_text("C\n# comment\nC1CC\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path, qm9lite_spec())
    assert "line 3" in str(err.value)


def test_load_dataset_refuses_a_bond_order_the_spec_cannot_hold(tmp_path):
    path = tmp_path / "double.smi"
    path.write_text("CC\nC=C\n")
    with pytest.raises(DatasetError, match=r"double.smi line 2: bond order 2 has no channel in bond_vocab"):
        load_dataset(path, TOY_SPEC)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope.smi", qm9lite_spec())


def test_bundled_qm9lite_corpus():
    spec = qm9lite_spec()
    graphs = load_dataset(bundled_corpus_path("qm9lite"), spec)
    assert len(graphs) == 256
    # all valid by construction; canonical keys unique
    keys = {write_smiles_canonical(from_graph(g)) for g in graphs}
    assert len(keys) == 256


def test_bundled_zinclite_corpus():
    spec = zinclite_spec()
    graphs = load_dataset(bundled_corpus_path("zinclite"), spec)
    assert len(graphs) == 64


def test_corpus_round_trip_isomorphism():
    # parse -> write -> parse over the bundled corpus (brute-force oracle)
    text = bundled_corpus_path("qm9lite").read_text().splitlines()
    molecules = [parse_smiles_lite(line) for line in text if line and not line.startswith("#")]
    rng = make_rng(4)
    idx = rng.choice(len(molecules), size=40, replace=False)
    for i in idx:
        m = molecules[i]
        again = parse_smiles_lite(write_smiles_canonical(m))
        assert isomorphic(m, again)
