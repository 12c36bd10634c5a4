import random

import pytest

from lexsim import (ParseOptions, Parameters, ValidationError, build_network,
                    materialize_dense, parse_lexicon, run, synthetic_lexicon)
from lexsim.network import Pool
from lexsim.reference import DenseEngine
from lexsim.tasks import make_monitor


def test_dense_materialization_counts(table1_network):
    dense = materialize_dense(table1_network)
    for o in table1_network.pool_ids[Pool.ORTHO]:
        assert dense.inhibitory_count(o) == 19  # every other orthographic node
    for p in table1_network.pool_ids[Pool.PHONO]:
        assert dense.inhibitory_count(p) == 19
    for s in table1_network.pool_ids[Pool.SEM]:
        assert dense.inhibitory_count(s) == 9
    for other in table1_network.pool_ids[Pool.LANG] + table1_network.pool_ids[Pool.INPUT]:
        assert dense.inhibitory_count(other) == 0


def test_size_guard_refuses_large_lexicons():
    lex = synthetic_lexicon(501)
    net = build_network(lex, Parameters())
    with pytest.raises(ValidationError, match="refused"):
        materialize_dense(net)
    # explicit override for benchmark use
    assert materialize_dense(net, max_entries=600) is not None


def _assert_engines_agree(network, params, trials):
    """Full traces and outcomes of both engines agree on every trial."""
    engine = DenseEngine(network)
    for stimulus, task, source, target in trials:
        fast_trace, fast = run(network, stimulus, make_monitor(task, source, target, params),
                               params, trace="full")
        dense_trace, dense = engine.run(stimulus, make_monitor(task, source, target, params),
                                        params, trace="full")
        assert fast_trace.frames == dense_trace.frames, (stimulus, task)
        assert (fast.response_kind, fast.response_symbol, fast.cycles, fast.node_id) \
            == (dense.response_kind, dense.response_symbol, dense.cycles, dense.node_id)


@pytest.mark.parametrize("gamma", [0.0, -0.0001, -0.1])
def test_dense_trace_bit_identical(homograph_network, gamma):
    params = Parameters().updated(OO_gamma=gamma, PP_gamma=gamma)
    _assert_engines_agree(homograph_network, params,
                          [(stimulus, "WT", "NL", "EN")
                           for stimulus in ("ROOM", "AARDE", "AARDBEI")])


def test_zero_gamma_matches_inhibition_free_run(table1_network):
    p_zero = Parameters().updated(OO_gamma=0.0, PP_gamma=0.0)
    _assert_engines_agree(table1_network, p_zero, [("AAP", "NAME", "NL", "NL")])


# -- equivalence beyond the fixtures ------------------------------------------

SWEEP_GAMMAS = (0.0, -0.001, -0.05, -0.5)


def _random_case(seed):
    """A small lexicon over a four-letter alphabet (dense neighbourhoods,
    homographs in and across languages) and parameters with semantic
    inhibition, positive rest levels and strong gammas."""
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice("ABDE") for _ in range(rng.randint(2, 5)))

    rows = []
    for _ in range(rng.randint(3, 7)):
        (a, fa), (b, fb) = [(word(), rng.choice((0.0, round(rng.uniform(0.5, 300.0), 2))))
                            for _ in range(2)]
        rows.append(f"{a},{fa},{a.lower()},{fa},{b},{fb},{b.lower()},{fb}")
    lexicon = parse_lexicon("\n".join(rows),
                            ParseOptions(allow_within_language_homographs=True))
    # frequency-derived rests span [MIN_REST, MAX_REST], so a positive MAX_REST
    # starts the most frequent readings active
    max_rest = rng.choice((0.0, 0.05, 0.3))
    params = Parameters().updated(OO_gamma=rng.choice(SWEEP_GAMMAS),
                                  PP_gamma=rng.choice(SWEEP_GAMMAS),
                                  SS_multiplier=rng.choice((0.0, 0.2, 1.0)),
                                  MAX_REST=max_rest,
                                  MIN_REST=rng.choice((-0.2, max_rest / 2)),
                                  S_rest=rng.choice((-0.2, max_rest)))
    stimuli = [rng.choice(lexicon.entries).ortho_a, rng.choice(lexicon.entries).ortho_b, word()]
    trials = [(stim, task, source, target)
              for stim in stimuli
              for task, source, target in (("LD", "NL", None), ("NAME", "EN", "EN"),
                                           ("WT", "NL", "EN"), ("WT", "EN", "NL"))]
    return lexicon, params, trials


@pytest.mark.parametrize("seed", range(16))
def test_engines_agree_on_random_lexicons(seed):
    lexicon, params, trials = _random_case(seed)
    _assert_engines_agree(build_network(lexicon, params), params, trials)


def test_engines_agree_on_synthetic_120():
    lexicon = synthetic_lexicon(120)
    params = Parameters().updated(OO_gamma=-0.5, PP_gamma=-0.05, SS_multiplier=0.2,
                                  MAX_REST=0.05, MIN_REST=0.01, S_rest=0.05)
    first, other = lexicon.entries[0], lexicon.entries[57]
    _assert_engines_agree(build_network(lexicon, params), params,
                          [(first.ortho_a, "WT", "NL", "EN"), (other.ortho_b, "LD", "EN", None),
                           (other.ortho_a, "NAME", "NL", "NL")])


def test_engines_agree_with_language_links(homograph_lexicon):
    # language nodes rest above zero, so from cycle 1 they are active and fan
    # out to every reading of their language through the nonzero L->O/P links
    params = Parameters().updated(OL_alpha=0.05, PL_alpha=0.05, LO_alpha=0.02,
                                  LP_alpha=0.02, MAX_REST=0.05, L_rest=0.05)
    network = build_network(homograph_lexicon, params)
    for l_id in network.pool_ids[Pool.LANG]:
        assert len(network.out[l_id]) == 2 * len(homograph_lexicon)
    _assert_engines_agree(network, params,
                          [("ROOM", "WT", "NL", "EN"), ("AARDBEI", "WT", "NL", "EN"),
                           ("AARDE", "LD", "NL", None), ("AAP", "NAME", "NL", "NL")])
