import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexsim import (Lexicon, LexiconEntry, ParseOptions, Parameters, build_network,
                    input_weight, levenshtein_similarity, parse_lexicon)
from lexsim.network import INHIBITED_POOLS, Pool
from lexsim.reference import scalar_input_weights


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
    assert len(net.pool_ids[Pool.ORTHO]) == 20
    assert len(net.pool_ids[Pool.PHONO]) == 20
    assert len(net.pool_ids[Pool.SEM]) == 10
    assert len(net.pool_ids[Pool.LANG]) == 2
    assert len(net.pool_ids[Pool.INPUT]) == 1


def test_build_single_entry_structure():
    net = build_network(parse_lexicon(SINGLE), Parameters())
    assert len(net.pool_ids[Pool.ORTHO]) == 2
    assert len(net.pool_ids[Pool.PHONO]) == 2
    assert len(net.pool_ids[Pool.SEM]) == 1
    o_a = net.find(Pool.ORTHO, "AARDE", "NL")
    # its phonology and its concept; the language link has weight 0 by default
    assert sorted(net.nodes[t].pool.value for t, _w in net.out[o_a.id]) == ["phono", "sem"]
    with_lang = build_network(parse_lexicon(SINGLE), Parameters(OL_alpha=0.05))
    assert sorted(with_lang.nodes[t].pool.value for t, _w in with_lang.out[o_a.id]) \
        == ["lang", "phono", "sem"]


def test_build_empty_lexicon():
    from lexsim import Lexicon
    net = build_network(Lexicon(entries=[]), Parameters())
    assert len(net) == 3  # input node plus two language nodes
    assert len(net.pool_ids[Pool.ORTHO]) == 0
    assert net.input_weights("A") == {}


def test_special_rest_levels(table1_network):
    net = table1_network
    assert net.nodes[net.pool_ids[Pool.INPUT][0]].rest == 1.0
    for s in net.pool_ids[Pool.SEM]:
        assert net.nodes[s].rest == -0.2
    for l in net.pool_ids[Pool.LANG]:
        assert net.nodes[l].rest == -0.2


def _lexicon(pairs):
    return Lexicon([LexiconEntry(a, 1.0, a.lower(), b, 2.0, b.lower()) for a, b in pairs])


def test_arrays_match_lists_and_are_read_only(table1_network):
    non_ascii = build_network(_lexicon([("ÉÉN", "ONE"), ("漢字😀", "Ж"), ("AB", "ÉÉN")]),
                              Parameters())
    for net in (table1_network, non_ascii):
        _check_arrays(net)


def _check_arrays(net):
    assert net.rest.tolist() == [node.rest for node in net.nodes]
    for pool, _gamma_name in INHIBITED_POOLS:
        assert net.pool_index[pool].dtype == np.intp
        assert net.pool_index[pool].tolist() == net.pool_ids[pool]
    ortho = net.pool_ids[Pool.ORTHO]
    assert net.ortho_ids.tolist() == ortho
    assert net.ortho_lengths.tolist() == [len(net.nodes[o].symbol) for o in ortho]
    # one row per letter position, one column per node, zero past its length
    assert net.ortho_codes.shape == (max(net.ortho_lengths), len(ortho))
    for column, o_id, length in zip(net.ortho_codes.T, ortho, net.ortho_lengths):
        assert "".join(map(chr, column[:length].tolist())) == net.nodes[o_id].symbol
        assert not column[length:].any()
    for array in (net.rest, *net.pool_index.values(), net.ortho_ids, net.ortho_lengths,
                  net.ortho_codes):
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
def test_input_weights_match_scalar_loop(case):
    pairs, stimulus, gain = case
    net = build_network(_lexicon(pairs), Parameters().updated(IO_multiplier=gain))
    fast = net.input_weights(stimulus)
    slow = scalar_input_weights(net, stimulus)
    # same keys in the same order, same doubles bit for bit
    assert [(k, w.hex()) for k, w in fast.items()] == [(k, w.hex()) for k, w in slow.items()]
    if gain == 0.0:
        assert fast == {}


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
    for src, targets in enumerate(net.out):
        for dst, _w in targets:
            assert net.nodes[src].pool is not net.nodes[dst].pool


def test_connection_index_unique_pairs(table1_network):
    net = table1_network
    seen = set()
    for conn in table1_network.connections():
        assert (conn.from_id, conn.to_id) not in seen
        seen.add((conn.from_id, conn.to_id))
        assert conn.weight != 0.0
        assert (conn.to_id, conn.weight) in net.out[conn.from_id]
    assert len(seen) == sum(len(targets) for targets in net.out)


def test_node_ids_deterministic(table1, params):
    net1 = build_network(table1, params)
    net2 = build_network(table1, params)
    assert [(n.id, n.pool, n.symbol, n.language, n.rest, n.concept) for n in net1.nodes] \
        == [(n.id, n.pool, n.symbol, n.language, n.rest, n.concept) for n in net2.nodes]
    assert net1.out == net2.out


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
