import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnvp import chem
from graphnvp.errors import GraphError
from graphnvp.graphs import (
    DEFAULT_VALENCES,
    INVARIANT_ERRORS,
    GraphSpec,
    MolecularGraph,
    argmax_adjacency,
    check_graphs,
    dequantize,
    discretize_argmax,
    first_failures,
    qm9lite_spec,
    requantize,
    stack_graphs,
    zinclite_spec,
)
from graphnvp.tensor import make_rng

from conftest import TOY_SPEC, permute_nodes, random_graph


def test_bundled_specs():
    spec = qm9lite_spec()
    assert spec.num_nodes == 9
    assert spec.num_atom_types == 5
    assert spec.num_bond_types == 4
    assert spec.atom_vocab[spec.virtual_atom] == "*"
    assert spec.bond_vocab[spec.virtual_bond] == "virtual"
    assert spec.latent_dim == 9 * 9 * 4 + 9 * 5
    zinc = zinclite_spec()
    assert zinc.num_nodes == 38
    assert set("SCl") < set("".join(zinc.atom_vocab))


def test_spec_rejects_bad_sizes():
    with pytest.raises(GraphError):
        GraphSpec(num_nodes=0, atom_vocab=("C", "*"))
    with pytest.raises(GraphError):
        GraphSpec(num_nodes=3, atom_vocab=("*",))


def test_spec_refuses_vocabularies_decode_cannot_read():
    """At most three real bond channels (orders 1..3), and every real atom
    symbol needs a valence entry."""
    with pytest.raises(GraphError, match="bond_vocab has 4 real channels; bond orders are 1..3"):
        GraphSpec(num_nodes=3, atom_vocab=("C", "*"), bond_vocab=("1", "2", "3", "4", "virtual"))
    with pytest.raises(GraphError, match="atom symbol 'B' in atom_vocab has no valence entry"):
        GraphSpec(num_nodes=3, atom_vocab=("C", "B", "*"))
    # The virtual symbol is never looked up, so it needs no entry.
    assert GraphSpec(num_nodes=3, atom_vocab=("C", "B")).virtual_atom == 1
    assert chem.DEFAULT_VALENCES is DEFAULT_VALENCES


def test_stacking_no_graphs_is_a_graph_error():
    """An empty list is refused inside the error hierarchy, by every caller
    that stacks one."""
    with pytest.raises(GraphError, match="no graphs to stack"):
        stack_graphs([])
    with pytest.raises(GraphError, match="no graphs to stack"):
        dequantize([], 0.9, make_rng(0))


def test_dequantize_floor_recovers():
    spec = qm9lite_spec()
    rng = make_rng(0)
    g = random_graph(spec, rng)
    adjacency, features = dequantize([g], 0.9, rng)
    assert np.array_equal(np.floor(adjacency[0]), g.adjacency)
    assert np.array_equal(np.floor(features[0]), g.features)
    assert adjacency.min() >= 0.0 and adjacency.max() < 1.9


def test_dequantize_draws_adjacency_block_then_feature_block():
    rng = make_rng(11)
    graphs = [random_graph(TOY_SPEC, rng) for _ in range(3)]
    adjacency, features = dequantize(graphs, 0.9, make_rng(12))
    twin = make_rng(12)
    expected_adjacency = np.stack([g.adjacency for g in graphs]) + 0.9 * twin.random(
        (3,) + TOY_SPEC.adjacency_shape()
    )
    expected_features = np.stack([g.features for g in graphs]) + 0.9 * twin.random(
        (3,) + TOY_SPEC.feature_shape()
    )
    assert adjacency.shape == expected_adjacency.shape
    assert features.shape == expected_features.shape
    assert adjacency.tobytes() == expected_adjacency.tobytes()
    assert features.tobytes() == expected_features.tobytes()


def test_dequantize_small_noise_limit():
    spec = qm9lite_spec()
    rng = make_rng(1)
    g = random_graph(spec, rng)
    adjacency, features = dequantize([g], 1e-9, rng)
    assert np.abs(adjacency[0] - g.adjacency).max() < 1e-9
    assert np.abs(features[0] - g.features).max() < 1e-9


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_dequantize_rejects_bad_scale(bad):
    spec = qm9lite_spec()
    rng = make_rng(2)
    g = random_graph(spec, rng)
    with pytest.raises(GraphError):
        dequantize([g], bad, rng)


def test_dequantize_noise_mean():
    # Monte-Carlo oracle: mean of U[0, 0.9) is 0.45.
    spec = qm9lite_spec()
    rng = make_rng(3)
    g = random_graph(spec, rng)
    total, count = 0.0, 0
    while count < 100_000:
        adjacency, _ = dequantize([g], 0.9, rng)
        noise = adjacency[0] - g.adjacency
        total += noise.sum()
        count += noise.size
    assert abs(total / count - 0.45) < 0.01


def test_requantize_round_trip_many():
    spec = qm9lite_spec()
    rng = make_rng(4)
    for _ in range(1000):
        g = random_graph(spec, rng)
        adjacency, features = dequantize([g], 0.9, rng)
        assert requantize(spec, adjacency[0], features[0]) == g


def test_requantize_floor_boundary():
    spec = GraphSpec(num_nodes=1, atom_vocab=("C", "*"))
    base = MolecularGraph(
        spec,
        np.array([[[0.0, 1.0, 0.0, 0.0]]])[..., :4],
        np.array([[1.0, 0.0]]),
    )
    # hand-build continuous entries at the floor boundary
    adjacency = np.zeros((1, 1, 4))
    adjacency[0, 0, 3] = 1.0  # exactly 1.0 floors to 1
    features = np.array([[0.999, 1.0]])  # 0.999 floors to 0
    out = requantize(spec, adjacency, features)
    assert out.adjacency[0, 0, 3] == 1.0
    assert np.array_equal(out.features, [[0.0, 1.0]])


def test_requantize_rejects_out_of_range_and_corrupt():
    spec = GraphSpec(num_nodes=1, atom_vocab=("C", "*"))
    ok_adj = np.zeros((1, 1, 4))
    ok_adj[0, 0, 3] = 1.2
    with pytest.raises(GraphError):
        requantize(spec, ok_adj, np.array([[2.5, 0.0]]))
    # all-zero features floor to no atom type at all -> corrupted
    with pytest.raises(GraphError) as err:
        requantize(spec, ok_adj, np.array([[0.4, 0.6]]))
    assert "corrupted" in str(err.value)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50)
def test_dequantize_requantize_inverse_property(seed, c):
    spec = GraphSpec(num_nodes=4, atom_vocab=("C", "N", "*"))
    rng = make_rng(seed)
    g = random_graph(spec, rng)
    adjacency, features = dequantize([g], c, rng)
    assert requantize(spec, adjacency[0], features[0]) == g


def test_discretize_identity_on_one_hot():
    spec = qm9lite_spec()
    rng = make_rng(5)
    g = random_graph(spec, rng)
    out = MolecularGraph(spec, *discretize_argmax(spec, g.adjacency, g.features))
    assert out == g


def test_discretize_tie_breaks_low_index():
    spec = GraphSpec(num_nodes=2, atom_vocab=("C", "*"))
    adjacency = np.zeros((2, 2, 4))  # all-tied scores on every pair
    features = np.zeros((2, 2))
    a, x = discretize_argmax(spec, adjacency, features)
    # atoms: tie between index 0 and 1 -> index 0 ("C"); bond (0,1): tie -> channel 0
    assert np.array_equal(x.argmax(axis=1), [0, 0])
    assert a[0, 1, 0] == 1.0


def test_discretize_symmetrizes_asymmetric_scores():
    spec = GraphSpec(num_nodes=2, atom_vocab=("C", "*"))
    adjacency = np.zeros((2, 2, 4))
    adjacency[0, 1, 1] = 3.0  # strong vote for channel 1 one way
    adjacency[1, 0, 2] = 1.0  # weak vote for channel 2 the other way
    features = np.zeros((2, 2))
    features[:, 0] = 1.0
    out = MolecularGraph(spec, *discretize_argmax(spec, adjacency, features))
    assert out.adjacency[0, 1, 1] == 1.0 and out.adjacency[1, 0, 1] == 1.0
    out.validate()


def test_discretize_random_always_valid():
    spec = qm9lite_spec()
    rng = make_rng(6)
    for _ in range(100):
        adjacency = rng.normal(size=spec.adjacency_shape())
        features = rng.normal(size=spec.feature_shape())
        out = MolecularGraph(spec, *discretize_argmax(spec, adjacency, features))
        out.validate()  # invariant-checking oracle
        # idempotent on its own output
        assert MolecularGraph(spec, *discretize_argmax(spec, out.adjacency, out.features)) == out


def argmax_adjacency_oracle(spec, scores):
    """Pair-by-pair reference: symmetrized argmax, lowest index on ties,
    virtual channel on the diagonal."""
    n = spec.num_nodes
    out = np.zeros(spec.adjacency_shape())
    for i in range(n):
        for j in range(n):
            sym = [(scores[i, j, c] + scores[j, i, c]) / 2.0 for c in range(spec.num_bond_types)]
            channel = spec.virtual_bond if i == j else sym.index(max(sym))
            out[i, j, channel] = 1.0
    return out


def test_argmax_adjacency_batched_equals_per_graph():
    spec = qm9lite_spec()
    rng = make_rng(8)
    scores = rng.normal(size=(12,) + spec.adjacency_shape())
    scores[0] = 0.0  # every channel tied on every pair
    scores[6:] = np.round(scores[6:])  # many exact ties between channels
    batched = argmax_adjacency(spec, scores)
    assert batched.shape == scores.shape
    per_graph = np.stack([argmax_adjacency(spec, s) for s in scores])
    assert np.array_equal(batched, per_graph)
    for s, out in zip(scores, batched):
        assert np.array_equal(out, argmax_adjacency_oracle(spec, s))
    assert np.array_equal(batched[0][..., 0] + np.eye(spec.num_nodes), np.ones((9, 9)))


def test_argmax_adjacency_batched_checks_shape_and_finiteness():
    spec = qm9lite_spec()
    with pytest.raises(GraphError):
        argmax_adjacency(spec, np.zeros((2, 9, 9, 3)))
    with pytest.raises(GraphError):
        argmax_adjacency(spec, np.zeros((9, 4)))
    scores = np.zeros((3,) + spec.adjacency_shape())
    scores[2, 1, 4, 0] = np.nan
    with pytest.raises(GraphError):
        argmax_adjacency(spec, scores)


def discretize_oracle(spec, adjacency, features):
    """One graph at a time: per-node atom argmax, argmax bonds, then every
    row and column of a virtual node set to the virtual channel."""
    atom_idx = features.argmax(axis=1)
    x = np.zeros(spec.feature_shape())
    x[np.arange(spec.num_nodes), atom_idx] = 1.0
    a = argmax_adjacency(spec, adjacency)
    for i in np.flatnonzero(atom_idx == spec.virtual_atom):
        a[i, :, :] = 0.0
        a[:, i, :] = 0.0
        a[i, :, spec.virtual_bond] = 1.0
        a[:, i, spec.virtual_bond] = 1.0
    return MolecularGraph(spec, a, x)


def graph_list(spec, adjacency, features):
    """The graphs of batched arrays, in row-major order of the leading axes."""
    adjacency = adjacency.reshape((-1,) + spec.adjacency_shape())
    features = features.reshape((-1,) + spec.feature_shape())
    return [MolecularGraph(spec, a, x) for a, x in zip(adjacency, features)]


def test_discretize_batched_equals_per_sample():
    spec = qm9lite_spec()
    rng = make_rng(12)
    adjacency = np.round(rng.normal(size=(3, 4) + spec.adjacency_shape()))  # exact channel ties
    features = np.round(rng.normal(size=(3, 4) + spec.feature_shape()))  # exact atom ties
    adjacency[0, 0] = 0.0  # every channel tied on every pair
    features[0, 0] = 0.0  # every atom type tied on every node
    features[1, :, :4, spec.virtual_atom] = 5.0  # several virtual atoms per graph
    features[2, 3] = 0.0
    features[2, 3, :, spec.virtual_atom] = 1.0  # an all-virtual graph
    batched_a, batched_x = discretize_argmax(spec, adjacency, features)
    assert batched_a.shape == adjacency.shape and batched_x.shape == features.shape
    flat_a = adjacency.reshape((12,) + spec.adjacency_shape())
    flat_x = features.reshape((12,) + spec.feature_shape())
    batched = graph_list(spec, batched_a, batched_x)
    per_sample = [MolecularGraph(spec, *discretize_argmax(spec, a, x)) for a, x in zip(flat_a, flat_x)]
    assert batched == per_sample
    assert per_sample == [discretize_oracle(spec, a, x) for a, x in zip(flat_a, flat_x)]
    assert graph_list(spec, *discretize_argmax(spec, flat_a, flat_x)) == per_sample
    virtual_counts = [int(g.features[:, spec.virtual_atom].sum()) for g in batched]
    assert min(virtual_counts[4:8]) >= 4 and virtual_counts[11] == spec.num_nodes
    assert np.array_equal(batched[0].features.argmax(axis=1), np.zeros(9))


def test_discretize_checks_the_batch_once(monkeypatch):
    import graphnvp.graphs as graphs

    spec = qm9lite_spec()
    rng = make_rng(24)
    adjacency = rng.normal(size=(12,) + spec.adjacency_shape())
    features = rng.normal(size=(12,) + spec.feature_shape())
    features[..., spec.virtual_atom] = -10.0  # no virtual atoms, so no pair is wiped
    calls = []
    original = graphs.first_failures

    def counted(spec, a, x):
        calls.append(np.shape(x)[:-2])
        return original(spec, a, x)

    monkeypatch.setattr(graphs, "first_failures", counted)
    a, x = discretize_argmax(spec, adjacency, features)
    assert a.shape == adjacency.shape and x.shape == features.shape
    assert calls == [(12,)]

    argmax = graphs.argmax_adjacency

    def one_sided(spec, scores):
        a = argmax(spec, scores)
        a[5, 0, 1] = np.roll(a[5, 0, 1], 1)  # another channel, on one side only
        return a

    monkeypatch.setattr(graphs, "argmax_adjacency", one_sided)
    with pytest.raises(GraphError, match="symmetric"):
        discretize_argmax(spec, adjacency, features)


def test_discretize_batched_checks_leading_axes():
    spec = qm9lite_spec()
    with pytest.raises(GraphError):
        discretize_argmax(spec, np.zeros((3,) + spec.adjacency_shape()), np.zeros((2,) + spec.feature_shape()))
    with pytest.raises(GraphError):
        discretize_argmax(spec, np.zeros(spec.adjacency_shape()), np.zeros((9, 4)))


def test_permute_identity_and_inverse():
    spec = qm9lite_spec()
    rng = make_rng(7)
    g = random_graph(spec, rng)
    n = spec.num_nodes
    assert permute_nodes(g, np.arange(n)) == g
    for _ in range(20):
        perm = rng.permutation(n)
        inverse = np.argsort(perm)
        assert permute_nodes(permute_nodes(g, perm), inverse) == g


def test_permute_rejects_non_bijection():
    spec = qm9lite_spec()
    g = random_graph(spec, make_rng(8))
    with pytest.raises(GraphError):
        permute_nodes(g, [0] * spec.num_nodes)


def test_permute_preserves_degree_multiset_per_channel():
    spec = qm9lite_spec()
    rng = make_rng(9)
    for _ in range(20):
        g = random_graph(spec, rng)
        perm = rng.permutation(spec.num_nodes)
        h = permute_nodes(g, perm)
        for channel in range(spec.num_bond_types):
            before = sorted(g.adjacency[:, :, channel].sum(axis=1))
            after = sorted(h.adjacency[:, :, channel].sum(axis=1))
            assert before == after


def test_midpoint_dequantize_deterministic():
    # the noise-free encoder offsets every entry by c/2; a zero-initialized
    # flow is the identity, so its latents expose the offset directly
    from graphnvp.flow import FlowModel
    from graphnvp.latent import encode_dataset

    spec = qm9lite_spec()
    g = random_graph(spec, make_rng(10))
    model = FlowModel(spec, seed=0)
    a = encode_dataset(model, [g])
    b = encode_dataset(model, [g])
    split = g.adjacency.size
    assert np.array_equal(a, b)
    assert np.array_equal(a[0, :split], (g.adjacency + 0.45).ravel())


def test_molecular_graph_invariant_checks():
    spec = GraphSpec(num_nodes=2, atom_vocab=("C", "*"))
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = np.zeros((2, 2, 4))
    a[:, :, 3] = 1.0
    MolecularGraph(spec, a, x).validate()

    bad = a.copy()
    bad[0, 1, 0] = 1.0  # two channels set on one pair
    with pytest.raises(GraphError):
        MolecularGraph(spec, bad, x).validate()

    asym = a.copy()
    asym[0, 1] = [1, 0, 0, 0]  # breaks symmetry
    with pytest.raises(GraphError):
        MolecularGraph(spec, asym, x).validate()

    # virtual node with a real bond
    linked = a.copy()
    linked[0, 1] = [1, 0, 0, 0]
    linked[1, 0] = [1, 0, 0, 0]
    with pytest.raises(GraphError):
        MolecularGraph(spec, linked, x).validate()


def _two_node_graph_arrays():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = np.zeros((2, 2, 4))
    a[:, :, 3] = 1.0
    return a, x


@pytest.mark.parametrize("array", ["adjacency", "features"])
@pytest.mark.parametrize(
    "value,accepted",
    [(np.nan, False), (np.inf, False), (-np.inf, False), (0.5, False), (2.0, False),
     (-1.0, False), (-0.0, True)],
    ids=["nan", "inf", "-inf", "0.5", "2", "-1", "-0.0"],
)
def test_validate_entries_must_be_zero_or_one(array, value, accepted):
    spec = GraphSpec(num_nodes=2, atom_vocab=("C", "*"))
    a, x = _two_node_graph_arrays()
    if array == "adjacency":
        a[0, 1, 0] = a[1, 0, 0] = value  # an unset bond channel, kept symmetric
    else:
        x[0, 1] = value  # an unset atom type
    graph = MolecularGraph(spec, a, x)
    if accepted:
        assert graph.validate() is graph
    else:
        with pytest.raises(GraphError, match="entries must be 0 or 1"):
            graph.validate()


def _corruptions():
    """(name, adjacency, features, index of the invariant that fails first)
    for every corruption above, plus one for each invariant they miss."""
    cases = []
    a, x = _two_node_graph_arrays()
    bad = a.copy()
    bad[0, 1, 0] = 1.0  # two channels set on one pair
    cases.append(("two channels", bad, x, 2))
    asym = a.copy()
    asym[0, 1] = [1, 0, 0, 0]
    cases.append(("asymmetric", asym, x, 3))
    linked = a.copy()
    linked[0, 1] = linked[1, 0] = [1, 0, 0, 0]
    cases.append(("virtual node bonded", linked, x, 5))
    for value in (np.nan, np.inf, -np.inf, 0.5, 2.0, -1.0):
        a_bad = a.copy()
        a_bad[0, 1, 0] = a_bad[1, 0, 0] = value
        cases.append((f"adjacency {value}", a_bad, x, 0))
        x_bad = x.copy()
        x_bad[0, 1] = value
        cases.append((f"features {value}", a, x_bad, 0))
    two_atoms = x.copy()
    two_atoms[0] = [1.0, 1.0]
    cases.append(("two atom types", a, two_atoms, 1))
    self_bond = a.copy()
    self_bond[0, 0] = [1, 0, 0, 0]
    cases.append(("bonded diagonal", self_bond, x, 4))
    both = asym.copy()
    both[0, 1, 3] = np.nan  # an entry and the symmetry both broken
    cases.append(("entry before symmetry", both, x, 0))
    return cases


@pytest.mark.parametrize("case", _corruptions(), ids=lambda case: case[0])
def test_batched_check_flags_exactly_the_corrupt_graph(case):
    _, bad_a, bad_x, code = case
    spec = GraphSpec(num_nodes=2, atom_vocab=("C", "*"))
    a, x = _two_node_graph_arrays()
    with pytest.raises(GraphError) as single:
        MolecularGraph(spec, bad_a, bad_x).validate()
    assert str(single.value) == INVARIANT_ERRORS[code]
    for position in (0, 3, 5):
        adjacency = np.stack([a] * 6)
        features = np.stack([x] * 6)
        adjacency[position], features[position] = bad_a, bad_x
        expected = np.full(6, -1)
        expected[position] = code
        assert np.array_equal(first_failures(spec, adjacency, features), expected)
        grid = first_failures(spec, adjacency.reshape((2, 3, 2, 2, 4)), features.reshape((2, 3, 2, 2)))
        assert np.array_equal(grid, expected.reshape(2, 3))
        with pytest.raises(GraphError) as batched:
            check_graphs(spec, adjacency, features)
        assert str(batched.value) == str(single.value)


def test_batched_check_accepts_valid_graphs_and_checks_shapes():
    spec = qm9lite_spec()
    rng = make_rng(23)
    graphs = [random_graph(spec, rng) for _ in range(10)]
    adjacency = np.stack([g.adjacency for g in graphs])
    features = np.stack([g.features for g in graphs])
    assert np.array_equal(first_failures(spec, adjacency, features), np.full(10, -1))
    assert first_failures(spec, adjacency[0], features[0]) == -1
    check_graphs(spec, adjacency, features)
    with pytest.raises(GraphError, match="adjacency shape"):
        first_failures(spec, adjacency[..., :3], features)
    with pytest.raises(GraphError, match="features shape"):
        first_failures(spec, adjacency, features[:9])
