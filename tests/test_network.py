import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexsim import (Lexicon, LexiconEntry, Node, ParseOptions, Parameters, ValidationError,
                    active_node_stats, build_network, input_weight, levenshtein_similarity,
                    make_monitor, parse_lexicon, rest_activation, run, word_translation)
from lexsim.network import INHIBITED_POOLS, InputWeights, Pool
from lexsim.reference import DenseEngine, scalar_input_weights

from conftest import members


def reference_edit_distance(a: str, b: str) -> int:
    """Independent recursive oracle: unit-cost insert/delete/substitute."""
    @functools.lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(dist(i - 1, j) + 1,
                   dist(i, j - 1) + 1,
                   dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return dist(len(a), len(b))


WORDS = st.text(alphabet="ABCDE", min_size=1, max_size=8)


def test_similarity_identity():
    assert levenshtein_similarity("DOG", "DOG") == 1.0


def test_similarity_embedding_case():
    # ICE embedded in RICE: one insertion over max length 4
    assert levenshtein_similarity("ICE", "RICE") == pytest.approx(0.75)


def test_similarity_letter_exchange():
    # a two-letter exchange costs two substitutions (no transposition op)
    assert reference_edit_distance("JUGDE", "JUDGE") == 2
    assert levenshtein_similarity("JUGDE", "JUDGE") == pytest.approx(0.6)


def test_similarity_rejects_empty():
    with pytest.raises(ValueError):
        levenshtein_similarity("", "DOG")


@given(WORDS, WORDS)
def test_similarity_matches_oracle(a, b):
    expected = 1.0 - reference_edit_distance(a, b) / max(len(a), len(b))
    assert levenshtein_similarity(a, b) == pytest.approx(expected, abs=1e-12)


@given(WORDS, WORDS)
def test_similarity_symmetric_and_identity_iff_equal(a, b):
    s = levenshtein_similarity(a, b)
    assert s == levenshtein_similarity(b, a)
    assert (s == 1.0) == (a == b)


def test_input_weight_identical_symbols():
    assert input_weight("AARDE", "AARDE", Parameters()) == pytest.approx(0.2)


def test_input_weight_no_overlap():
    # distance equals the max length, so the score floors at zero
    assert input_weight("DOG", "CAT", Parameters()) == 0.0


def test_input_weight_cubed_similarity():
    # DOG vs DAG: similarity 2/3, weight 0.2 * (2/3)^3
    assert input_weight("DOG", "DAG", Parameters()) == pytest.approx(0.2 * (2 / 3) ** 3)
    assert input_weight("DOG", "DAG", Parameters()) == pytest.approx(0.059259, abs=1e-6)


SINGLE = "AARDE,100.07,ard@,100.07,EARTH,24.87,3T,24.87"


def test_build_counts_table1(table1_network):
    net = table1_network
    assert len(members(net, Pool.ORTHO)) == 20
    assert len(members(net, Pool.PHONO)) == 20
    assert len(members(net, Pool.SEM)) == 10
    assert len(members(net, Pool.LANG)) == 2
    assert len(members(net, Pool.INPUT)) == 1


def test_build_single_entry_structure():
    net = build_network(parse_lexicon(SINGLE), Parameters())
    assert len(members(net, Pool.ORTHO)) == 2
    assert len(members(net, Pool.PHONO)) == 2
    assert len(members(net, Pool.SEM)) == 1
    o_a = net.find(Pool.ORTHO, "AARDE", "NL")

    def target_pools(network):
        return sorted(network.nodes[c.to_id].pool.value for c in network.connections()
                      if c.from_id == o_a.id)

    # its phonology and its concept; the language link has weight 0 by default
    assert target_pools(net) == ["phono", "sem"]
    assert target_pools(build_network(parse_lexicon(SINGLE), Parameters(OL_alpha=0.05))) \
        == ["lang", "phono", "sem"]


def test_build_rejects_one_language_twice():
    # the layout gives each language its own node and its own places
    with pytest.raises(ValidationError, match="languages must differ"):
        build_network(parse_lexicon(SINGLE, ParseOptions(language_a="NL", language_b="NL")),
                      Parameters())


def test_build_empty_lexicon():
    from lexsim import Lexicon
    net = build_network(Lexicon(entries=[]), Parameters())
    assert len(net) == 3  # input node plus two language nodes
    assert len(members(net, Pool.ORTHO)) == 0
    assert net.input_weights("A") == {}


def test_special_rest_levels(table1_network):
    net = table1_network
    assert net.nodes[members(net, Pool.INPUT)[0]].rest == 1.0
    for s in members(net, Pool.SEM):
        assert net.nodes[s].rest == -0.2
    for l in members(net, Pool.LANG):
        assert net.nodes[l].rest == -0.2


def _lexicon(pairs):
    return Lexicon([LexiconEntry(a, 1.0, a.lower(), b, 2.0, b.lower()) for a, b in pairs])


def test_arrays_match_lists_and_are_read_only(table1_network):
    non_ascii = build_network(_lexicon([("ÉÉN", "ONE"), ("漢字😀", "Ж"), ("AB", "ÉÉN")]),
                              Parameters())
    for net in (table1_network, non_ascii):
        _check_arrays(net)


@pytest.mark.parametrize("pairs", [[], [("AARDE", "EARTH")]])
def test_entry_layout_of_empty_and_one_entry_lexicons(pairs):
    _check_entry_layout(build_network(_lexicon(pairs), Parameters()))


def _check_entry_layout(net):
    """Node k of entry e is node first_entry + 5*e + k, in the pool of place
    k of [O_a, P_a, O_b, P_b, S], and ``layout.place`` says so (5 for the
    input and language nodes). ``pools`` holds each node's index in
    INHIBITED_POOLS, 3 for the input and language nodes, and
    ``members[pool]`` is ``pools == k``; all of them are read-only."""
    places = (Pool.ORTHO, Pool.PHONO, Pool.ORTHO, Pool.PHONO, Pool.SEM)
    for pool in INHIBITED_POOLS:
        assert members(net, pool) == [n for n in range(net.first_entry, len(net))
                                      if places[(n - net.first_entry) % 5] is pool]
    index = {pool: k for k, pool in enumerate(INHIBITED_POOLS)}
    assert net.pools.tolist() == [index.get(node.pool, 3) for node in net.nodes]
    assert net.pools[:net.first_entry].tolist() == [3] * net.first_entry
    with pytest.raises(ValueError):
        net.pools[0] = 0
    assert net.layout.place.tolist() == [5] * net.first_entry + [
        (n - net.first_entry) % 5 for n in range(net.first_entry, len(net))]
    assert not any(array.flags.writeable for array in (*net.layout, *net.members.values()))
    for k, pool in enumerate(INHIBITED_POOLS):
        assert net.members[pool].tolist() == (net.pools == k).tolist()
        assert net.members[pool].nonzero()[0].tolist() == members(net, pool)


def _entry_loop_nodes(lexicon, params):
    """Every node as a Node, made entry by entry with one rest_activation
    call per node: the list ``Network.nodes`` must read as."""
    p = params
    max_opb = p.MAX_OPB if p.MAX_OPB is not None else lexicon.max_opb
    a, b = lexicon.language_a, lexicon.language_b
    nodes = [Node(0, Pool.INPUT, "INPUT", None, p.I_rest),
             Node(1, Pool.LANG, a, a, p.L_rest), Node(2, Pool.LANG, b, b, p.L_rest)]
    for concept, e in enumerate(lexicon.entries):
        n = 3 + 5 * concept
        rest_a = rest_activation(e.freq_a, max_opb, p)
        rest_b = rest_activation(e.freq_b, max_opb, p)
        nodes += [Node(n, Pool.ORTHO, e.ortho_a, a, rest_a, concept),
                  Node(n + 1, Pool.PHONO, e.phono_a, a, rest_a, concept),
                  Node(n + 2, Pool.ORTHO, e.ortho_b, b, rest_b, concept),
                  Node(n + 3, Pool.PHONO, e.phono_b, b, rest_b, concept),
                  Node(n + 4, Pool.SEM, e.ortho_b, None, p.S_rest, concept)]
    return nodes


@st.composite
def node_view_cases(draw):
    """CSV text of up to six rows, with zero frequencies and language-B forms
    drawn from the language-A ones (cross-language homographs), parse
    options, and parameters with and without MAX_OPB."""
    forms = draw(st.lists(st.text(alphabet="ABÉЖ", min_size=1, max_size=3), max_size=6))
    freqs = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))
    rows = []
    for form in forms:
        other = draw(st.sampled_from(forms)) if draw(st.booleans()) else form + "Q"
        f_a, f_b = draw(freqs), draw(freqs)
        rows.append(f"{form},{f_a!r},{form.lower()},{f_a!r},{other},{f_b!r},{other},{f_b!r}")
    options = ParseOptions(scale_l2_frequencies=draw(st.booleans()),
                           allow_within_language_homographs=True)
    params = Parameters().updated(MAX_REST=draw(st.sampled_from((0.0, 0.05))),
                                  MAX_OPB=draw(st.sampled_from((None, 0.3, 0.64))))
    return "\n".join(rows), options, params


@settings(max_examples=100, deadline=None)
@given(node_view_cases())
@example(("", ParseOptions(), Parameters()))
@example(("AARDE,0,ard@,0,EARTH,0.0,3T,0.0", ParseOptions(), Parameters()))
@example(("ROOM,39.3,rom,39.3,CREAM,12.27,krim,12.27\n"
          "KAMER,159.33,kam@r,159.33,ROOM,93.65,rum,93.65",
          ParseOptions(scale_l2_frequencies=True), Parameters().updated(MAX_OPB=0.5)))
def test_nodes_read_as_the_entry_loop_built_them(case):
    text, options, params = case
    lexicon = parse_lexicon(text, options)
    net = build_network(lexicon, params)
    expected = _entry_loop_nodes(lexicon, params)
    assert len(net.nodes) == len(net) == len(expected)
    assert list(net.nodes) == expected
    columns = (net.pool_of, net.symbol_of, net.language_of, net.concept_of)
    for n, node in enumerate(expected):
        for got in (net.nodes[n], net.nodes[n - len(expected)], net.nodes[np.intp(n)]):
            assert got == node and got.rest.hex() == node.rest.hex()
        assert net.rest.item(n).hex() == node.rest.hex()
        assert tuple(column[n] for column in columns) \
            == (node.pool, node.symbol, node.language, node.concept)
    for n in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            net.nodes[n]
    with pytest.raises(TypeError):
        net.nodes[0] = expected[0]
    for column in columns:
        assert len(column) == len(expected)
        with pytest.raises(TypeError):
            column[0] = column[0]


def test_trials_make_no_node(homograph_network, params, monkeypatch):
    # monitors, traces, the oracle and connections() read the network's
    # columns, never network.nodes
    made, init = [], Node.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Node, "__init__", counting)
    outcomes = []
    for task, source, target in (("WT", "NL", "EN"), ("LD", "NL", None), ("NAME", "NL", "NL")):
        trace, outcome = run(homograph_network, "ROOM", make_monitor(task, source, target, params),
                             params)
        assert outcome.responded and trace.rows(top_k=4)
        outcomes.append(outcome)
    # ROOM NL->EN fills a Rejection for its input and for three outputs
    diagnostics = outcomes[0].diagnostics
    assert len(diagnostics.input_rejections) == 1 and len(diagnostics.output_rejections) == 3
    active_node_stats(homograph_network, ["ROOM", "AARDE"], [0.0, -0.1])
    engine = DenseEngine(homograph_network)
    _trace, dense = engine.run("ROOM", make_monitor("WT", "NL", "EN", params), params)
    assert (dense.response_symbol, dense.cycles) == (outcomes[0].response_symbol,
                                                     outcomes[0].cycles)
    assert scalar_input_weights(homograph_network, "ROOM")
    assert homograph_network.connections()
    assert made == []


def test_built_network_is_frozen(table1_network):
    for name, value in (("rest", np.zeros(len(table1_network))), ("nodes", []), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table1_network, name, value)
    assert not hasattr(table1_network, "extra")
    assert not hasattr(table1_network.nodes[0], "__dict__")
    # a trial and a row sweep read the network's tables but add none to it
    word_translation(table1_network, "AARDBEI", "NL", "EN")
    active_node_stats(table1_network, ["AARDE", "ROOM"], [0.0, -0.1])
    assert set(vars(table1_network)) == {f.name for f in dataclasses.fields(table1_network)}


def _check_arrays(net):
    assert [node.id for node in net.nodes] == list(range(len(net)))
    assert net.rest.tolist() == [node.rest for node in net.nodes]
    _check_entry_layout(net)
    ortho = members(net, Pool.ORTHO)
    assert net.ortho_ids.tolist() == ortho
    assert net.ortho_lengths.tolist() == [len(net.nodes[o].symbol) for o in ortho]
    # one row per letter position, one column per node, zero past its length
    assert net.ortho_codes.shape == (max(net.ortho_lengths), len(ortho))
    for column, o_id, length in zip(net.ortho_codes.T, ortho, net.ortho_lengths):
        assert "".join(map(chr, column[:length].tolist())) == net.nodes[o_id].symbol
        assert not column[length:].any()
    for array in (net.rest, net.ortho_ids, net.ortho_lengths, net.ortho_codes):
        with pytest.raises(ValueError):
            array[0] = array[0]


# letters outside ASCII, one outside the Basic Multilingual Plane, and one
# (ß) that uppercases to two letters
LETTERS = "ABÉßЖж😀"
SPELLINGS = st.text(alphabet=LETTERS, min_size=1, max_size=6)


@st.composite
def weighting_cases(draw):
    """Pairs over a few spellings, so that spellings repeat within and across
    languages; a stimulus that is a node's spelling, one letter, longer than
    every symbol, or any other spelling; and a gain that may be 0 or so small
    that a weight underflows to 0."""
    words = draw(st.lists(SPELLINGS, min_size=1, max_size=8))
    pairs = draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(words)),
                          min_size=1, max_size=8))
    longest = max(map(len, words))
    stimulus = draw(st.one_of(
        st.sampled_from(words), st.sampled_from(LETTERS),
        st.text(alphabet=LETTERS, min_size=longest + 1, max_size=longest + 3), SPELLINGS))
    gain = draw(st.sampled_from((0.0, 0.2, 1.0, 3.7, 5e-324)))
    return pairs, stimulus, gain


@settings(max_examples=300, deadline=None)
@given(weighting_cases())
@example(([("ABBA", "BAAB"), ("ABBA", "ÉÉÉÉÉ")], "A", 0.2))  # shorter than every symbol
@example(([("AB", "B"), ("ж", "ÉA")], "ABÉABÉ", 0.2))  # longer than every symbol
@example(([("ABBA", "ABBA"), ("ABBA", "ABBE")], "ABBA", 0.2))  # homographs
@example(([("ABBA", "AB")], "ABBA", 0.0))
# stimulus letters beyond the codes' type, uint8 then uint16; Ł (U+0141) and
# U+10416 keep the low bits of A and Ж, so a wrapped code would match those
@example(([("AB", "BA"), ("ÉA", "B")], "AЖB", 0.2))
@example(([("A÷", "÷")], "÷ŁĀ", 1.0))
@example(([("Ж", "AЖ"), ("ЖA", "B")], "Ж😀\U00010416A", 0.2))
def test_input_weights_match_scalar_loop(case):
    pairs, stimulus, gain = case
    net = build_network(_lexicon(pairs), Parameters().updated(IO_multiplier=gain))
    fast = net.input_weights(stimulus)
    slow = scalar_input_weights(net, stimulus)
    # same keys in the same order, same doubles bit for bit
    assert [(k, w.hex()) for k, w in fast.items()] == [(k, w.hex()) for k, w in slow.items()]
    assert isinstance(fast, InputWeights) and type(slow) is dict
    assert not fast.ids.flags.writeable and not fast.weights.flags.writeable
    assert fast.ids.dtype == np.intp and fast.weights.dtype == np.float64
    assert (np.diff(fast.ids) > 0).all()
    assert len(fast) == len(slow) == len(fast.ids) == len(fast.weights)
    assert fast == slow and slow == fast
    if gain == 0.0:
        assert fast == {} and {} == fast


@pytest.mark.parametrize("letters, dtype", [("AB", np.uint8), ("AÉ", np.uint8),
                                            ("Aж", np.uint16), ("Aж\U0001D538", np.uint32)],
                         ids=["ascii", "latin1", "bmp", "beyond_bmp"])
def test_ortho_codes_take_the_narrowest_type(letters, dtype):
    # the largest code point decides: É is 0xC9, ж 0x436, 𝔸 (U+1D538) 0x1D538
    net = build_network(_lexicon([(letters, "B")]), Parameters())
    codes = net.ortho_codes
    assert codes.dtype == dtype
    assert codes.flags.c_contiguous and not codes.flags.writeable
    assert codes[:, 0].tolist() == list(map(ord, net.nodes[net.ortho_ids[0]].symbol))


def test_ortho_phono_share_concept(table1_network):
    net = table1_network
    o = net.find(Pool.ORTHO, "AARDBEI", "NL")
    p = net.find(Pool.PHONO, "ardbK", "NL")
    o_b = net.find(Pool.ORTHO, "STRAWBERRY", "EN")
    assert o.concept == p.concept == o_b.concept


def test_find_missing_and_ambiguous_readings(table1_network):
    with pytest.raises(KeyError, match="no ortho node"):
        table1_network.find(Pool.ORTHO, "AARDE", "EN")
    # two NL concepts sharing one spelling: a lookup by reading cannot choose
    net = build_network(parse_lexicon(SINGLE + "\nAARDE,5.0,ard@,5.0,SOIL,3.0,sOIl,3.0",
                                      ParseOptions(allow_within_language_homographs=True)),
                        Parameters())
    with pytest.raises(KeyError, match="ambiguous"):
        net.find(Pool.ORTHO, "AARDE", "NL")
    assert net.find(Pool.ORTHO, "SOIL", "EN").concept == 1


def test_no_same_pool_connections(table1_network):
    net = table1_network
    for conn in net.connections():
        assert net.nodes[conn.from_id].pool is not net.nodes[conn.to_id].pool


def layout_edges(net):
    """Every nonzero (source, target, alpha) the fast engine's link tables
    imply, sorted: each entry's offsets, and each language place's links."""
    layout = net.layout
    edges = [(n, n + offset, w) for n, place in enumerate(layout.place.tolist())
             for offset, w, link in zip(layout.offsets[place].tolist(),
                                        layout.weights[place].tolist(), layout.links[place])
             if link]
    for place, l_id, w in net.to_language:
        edges += [(m, l_id, w) for m in range(net.first_entry + place, len(net), 5)]
    for l_id, place, w in net.from_language:
        edges += [(l_id, m, w) for m in range(net.first_entry + place, len(net), 5)]
    return sorted(edges)


def test_connection_index_unique_pairs(table1):
    # connections() is the reference engine's construction from node
    # metadata; the fast engine's layout tables must imply the same edges
    for change in ({}, {"SO_alpha": 0.0}, {"OL_alpha": 0.05, "LP_alpha": 0.02},
                   {"LO_alpha": 0.02, "PL_alpha": 0.05, "OP_alpha": 0.0}):
        net = build_network(table1, Parameters().updated(**change))
        edges = [(c.from_id, c.to_id, c.weight) for c in net.connections()]
        assert len({(src, dst) for src, dst, _w in edges}) == len(edges)
        assert all(w != 0.0 for _src, _dst, w in edges)
        assert edges == layout_edges(net), change
    # ten entries of ten links each without O->P, and 20 L->O and 20 P->L links
    assert len(edges) == 10 * 10 + 20 + 20


def test_node_ids_deterministic(table1, params):
    net1 = build_network(table1, params)
    net2 = build_network(table1, params)
    assert [(n.id, n.pool, n.symbol, n.language, n.rest, n.concept) for n in net1.nodes] \
        == [(n.id, n.pool, n.symbol, n.language, n.rest, n.concept) for n in net2.nodes]
    assert net1.connections() == net2.connections()
    for array1, array2 in zip(net1.layout, net2.layout):
        assert array1.dtype == array2.dtype and array1.tolist() == array2.tolist()
    assert (net1.to_language, net1.from_language) == (net2.to_language, net2.from_language)


def test_input_weights_exact_match(table1_network):
    weights = table1_network.input_weights("AARDE")
    node = table1_network.find(Pool.ORTHO, "AARDE", "NL")
    assert weights[node.id] == pytest.approx(0.2)


def test_input_weights_neighbour():
    # stimulus AARDE against AARD: distance 1 over max length 5
    net = build_network(parse_lexicon(
        "AARD,15.32,art,15.32,NATURE,11.29,n1J@R,11.29"), Parameters())
    weights = net.input_weights("AARDE")
    node = net.find(Pool.ORTHO, "AARD", "NL")
    assert weights[node.id] == pytest.approx(0.2 * 0.8 ** 3)
    assert weights[node.id] == pytest.approx(0.1024)


def test_input_weights_no_overlap(table1_network):
    # letters J/Q/V/X/Z never occur in the fixture
    assert table1_network.input_weights("XQZQX") == {}


def test_input_weights_reject_empty_stimulus(table1_network):
    with pytest.raises(ValueError):
        table1_network.input_weights("")


def test_homographs_both_receive_full_weight(homograph_network):
    weights = homograph_network.input_weights("ROOM")
    nodes = [n for n in homograph_network.nodes
             if n.pool is Pool.ORTHO and n.symbol == "ROOM"]
    assert len(nodes) == 2
    assert {n.language for n in nodes} == {"NL", "EN"}
    for n in nodes:
        assert weights[n.id] == pytest.approx(0.2)
