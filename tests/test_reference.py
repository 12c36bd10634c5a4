import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import (NullMonitor, ParseOptions, Parameters, ValidationError,
                    build_network, materialize_dense, parse_lexicon, run, step,
                    synthetic_lexicon, update_activation)
from lexsim.network import INHIBITED_POOLS, Pool, pool_gamma
from lexsim.params import ALPHA_NAMES, THRESHOLD_NAMES
from lexsim.reference import DenseEngine, excitatory_in, scalar_input_weights
from lexsim.tasks import make_monitor


def test_dense_materialization_counts(table1_network):
    dense = materialize_dense(table1_network)

    def inhibitory_count(node_id):
        srcs = dense.inhib_in[node_id]
        return 0 if srcs is None else srcs.size

    for o in table1_network.pool_ids[Pool.ORTHO]:
        assert inhibitory_count(o) == 19  # every other orthographic node
    for p in table1_network.pool_ids[Pool.PHONO]:
        assert inhibitory_count(p) == 19
    for s in table1_network.pool_ids[Pool.SEM]:
        assert inhibitory_count(s) == 9
    for other in table1_network.pool_ids[Pool.LANG] + table1_network.pool_ids[Pool.INPUT]:
        assert inhibitory_count(other) == 0


def test_size_guard_refuses_large_lexicons():
    lex = synthetic_lexicon(501)
    net = build_network(lex, Parameters())
    with pytest.raises(ValidationError, match="refused"):
        materialize_dense(net)
    # explicit override for benchmark use
    assert materialize_dense(net, max_entries=600) is not None


def _bits(frames):
    """Every activation of every frame as float.hex, which tells 0.0 from
    -0.0 where == does not."""
    return [[a.hex() for a in frame] for frame in frames]


def _assert_engines_agree(network, params, trials):
    """Full traces, bit for bit, and outcomes of both engines agree on every trial."""
    engine = DenseEngine(network)
    for stimulus, task, source, target in trials:
        fast_trace, fast = run(network, stimulus, make_monitor(task, source, target, params),
                               params, trace="full")
        dense_trace, dense = engine.run(stimulus, make_monitor(task, source, target, params),
                                        params, trace="full")
        assert _bits(fast_trace.frames) == _bits(dense_trace.frames), (stimulus, task)
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

SWEEP_GAMMAS = (0.0, -0.001, -0.05, -0.5, -1.0)


def _random_case(rng):
    """A small lexicon over a four-letter alphabet (dense neighbourhoods,
    homographs in and across languages), parameters drawn from the whole
    validated space, and a few short trials of every task.

    ``rng`` is a random.Random, or the one hypothesis draws from.
    """
    def word():
        return "".join(rng.choice("ABDE") for _ in range(rng.randint(2, 5)))

    rows = []
    for _ in range(rng.randint(2, 6)):
        (a, fa), (b, fb) = [(word(), rng.choice((0.0, round(rng.uniform(0.5, 300.0), 2))))
                            for _ in range(2)]
        rows.append(f"{a},{fa},{a.lower()},{fa},{b},{fb},{b.lower()},{fb}")
    lexicon = parse_lexicon("\n".join(rows),
                            ParseOptions(allow_within_language_homographs=True))
    min_act = rng.choice((-0.2, -1.0, -0.0))
    max_act = rng.choice((1.0, 0.8))
    # frequency-derived rests span [MIN_REST, MAX_REST], so a positive MAX_REST
    # starts the most frequent readings active
    max_rest = rng.choice((0.0, 0.05, 0.3, -0.0))
    min_rest = rng.choice((min_act, max_rest / 2, max_rest))

    def rest_level():
        return rng.choice((min_act, min_rest, max_rest))

    def threshold():
        return rng.choice((-0.1, 0.0, -0.0, 0.3, 0.72, max_act))

    def alpha(default):
        return rng.choice((0.0, default, round(rng.uniform(0.0, 0.5), 3)))

    defaults = Parameters()
    params = defaults.updated(
        MIN_ACT=min_act, MAX_ACT=max_act, MAX_REST=max_rest, MIN_REST=min_rest,
        S_rest=rest_level(), L_rest=rest_level(),
        I_rest=rng.choice((max_act, 0.5, 0.0, -0.0, min_act)),
        DECAY_RATE=rng.choice((0.0, 0.07, 1.0, rng.random())),
        IO_multiplier=rng.choice((0.2, 1.0, 5.0)),
        **{name: rng.choice(SWEEP_GAMMAS) for name in ("OO_gamma", "PP_gamma", "SS_gamma")},
        SS_multiplier=rng.choice((0.0, 0.2, 1.0)),
        **{name: alpha(getattr(defaults, name)) for name in ALPHA_NAMES},
        **{name: threshold() for name in THRESHOLD_NAMES},
        max_cycles=rng.randint(1, 12))
    tasks = (("LD", "NL", None), ("NAME", "EN", "EN"), ("WT", "NL", "EN"), ("WT", "EN", "NL"))
    stimuli = (rng.choice(lexicon.entries).ortho_a, rng.choice(lexicon.entries).ortho_b, word())
    trials = [(rng.choice(stimuli), *task) for task in tasks]
    return lexicon, params, trials


@pytest.mark.parametrize("seed", range(16))
def test_engines_agree_on_random_lexicons(seed):
    lexicon, params, trials = _random_case(random.Random(seed))
    _assert_engines_agree(build_network(lexicon, params), params, trials)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False))
def test_engines_agree_on_searched_lexicons(rng):
    lexicon, params, trials = _random_case(rng)
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
        assert sum(c.from_id == l_id for c in network.connections()) == 2 * len(homograph_lexicon)
    _assert_engines_agree(network, params,
                          [("ROOM", "WT", "NL", "EN"), ("AARDBEI", "WT", "NL", "EN"),
                           ("AARDE", "LD", "NL", None), ("AAP", "NAME", "NL", "NL")])


@pytest.mark.parametrize("change", [
    {}, {"SO_alpha": 0.0},
    {"OL_alpha": 0.05, "PL_alpha": 0.05, "LO_alpha": 0.02, "LP_alpha": 0.02, "L_rest": 0.05}])
def test_touched_updates_match_a_brute_force_count(homograph_lexicon, change):
    # a node is touched when an active node's connection (the dense
    # engine's exc_in) targets it, when it has a stimulus term, when its
    # pool takes an inhibition step, or when it is away from rest
    params = Parameters().updated(MAX_REST=0.05, **change)
    network = build_network(homograph_lexicon, params)
    exc_in = materialize_dense(network).exc_in
    counts = []

    def counting(state, net, p):
        prev = state.activation.tolist()
        stepped = {pool for pool, _name in INHIBITED_POOLS if pool_gamma(p, pool) != 0.0
                   and any(prev[m] > 0.0 for m in net.pool_ids[pool])}
        expected = sum(1 for n, node in enumerate(net.nodes)
                       if any(prev[src] > 0.0 for src, _w in exc_in[n])
                       or n in state.input_weights or node.pool in stepped
                       or prev[n] != node.rest)
        before = state.counters["touched_updates"]
        step(state, net, p)
        counts.append((state.counters["touched_updates"] - before, expected))

    for stimulus, task, source, target in (("ROOM", "WT", "NL", "EN"), ("AARDE", "LD", "NL", None),
                                           ("AAP", "NAME", "NL", "NL")):
        run(network, stimulus, make_monitor(task, source, target, params), params, trace=None,
            step_fn=counting)
    assert all(got == expected for got, expected in counts), counts
    assert len({expected for _got, expected in counts}) > 3


@pytest.mark.parametrize("change", [
    {"DECAY_RATE": 0.0}, {"DECAY_RATE": 1.0}, {"I_rest": 0.0}, {"I_rest": -0.0},
    # clamp bounds of -0.0, with the rest levels and thresholds they allow
    {"MIN_ACT": -0.0, "MIN_REST": 0.0, "S_rest": 0.0, "L_rest": 0.0, "OO_gamma": -1.0,
     "PP_gamma": -1.0},
    {"MAX_ACT": -0.0, "MAX_REST": 0.0, "I_rest": -0.0, "criterion_value": -0.0,
     "shortlist_input_threshold": -0.0, "shortlist_output_threshold": -0.0}])
def test_engines_agree_at_parameter_edges(homograph_lexicon, change):
    # MAX_REST > 0 starts the most frequent readings active, so activity and
    # inhibition flow even when I_rest = 0.0 makes every stimulus product a
    # zero: stimulus-weighted nodes are then updated with no input
    params = Parameters().updated(**{"MAX_REST": 0.05, "OO_gamma": -0.05, "PP_gamma": -0.05,
                                     **change})
    _assert_engines_agree(build_network(homograph_lexicon, params), params,
                          [("ROOM", "WT", "NL", "EN"), ("AARDBEI", "WT", "NL", "EN"),
                           ("AARDE", "LD", "NL", None), ("AAP", "NAME", "NL", "NL")])


def test_engines_agree_where_both_clamps_bind(homograph_lexicon, monkeypatch):
    # a strong stimulus term pushes its nodes past MAX_ACT and full-strength
    # inhibition pushes the losers past MIN_ACT, so the fast step's
    # np.minimum and np.maximum both change values
    params = Parameters().updated(OO_gamma=-1.0, PP_gamma=-1.0, IO_multiplier=5.0,
                                  MAX_REST=0.05)
    bound = set()

    def recording_update(a, net, rest, p):
        d = p.MAX_ACT - a if net > 0.0 else a - p.MIN_ACT
        unclamped = a + net * d - p.DECAY_RATE * (a - rest)
        bound.update(side for side, hit in (("MAX_ACT", unclamped > p.MAX_ACT),
                                            ("MIN_ACT", unclamped < p.MIN_ACT)) if hit)
        return update_activation(a, net, rest, p)

    monkeypatch.setattr("lexsim.reference.update_activation", recording_update)
    _assert_engines_agree(build_network(homograph_lexicon, params), params,
                          [("ROOM", "WT", "NL", "EN"), ("AARDBEI", "WT", "NL", "EN"),
                           ("AARDE", "LD", "NL", None)])
    assert bound == {"MAX_ACT", "MIN_ACT"}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_engines_raise_alike_when_a_one_product_sum_overflows(table1):
    # an orthographic node's only source is its phonological node, and its
    # stimulus term is near the largest double: once that node is active,
    # the one product plus the stimulus term overflows, which fsum raises
    # and a plain add would round to inf
    params = Parameters().updated(IO_multiplier=1.7e308, PO_alpha=1.7e308, SO_alpha=0.0)
    network = build_network(table1, params)
    ortho = network.find(Pool.ORTHO, "AARDE", "NL").id
    assert [src for src, _w in excitatory_in(network)[ortho]] \
        == [network.find(Pool.PHONO, "ard@", "NL").id]
    raised = []
    for step_fn in (step, DenseEngine(network).step):
        cycles = []

        def counting(state, net, p, step_fn=step_fn):
            cycles.append(state.cycle)
            step_fn(state, net, p)

        with pytest.raises(OverflowError) as info:
            run(network, "AARDE", NullMonitor(), params, trace=None, step_fn=counting,
                input_weights=scalar_input_weights(network, "AARDE"))
        raised.append((str(info.value), cycles[-1]))
    assert raised[0] == raised[1]


def test_engines_agree_when_only_the_total_of_the_sums_overflows(table1):
    # every one-add sum is finite, but their total overflows: the fast step
    # must take no fsum fallback and warn about nothing (warnings are errors)
    params = Parameters().updated(OP_alpha=1e308, PO_alpha=1e308, IO_multiplier=1e308)
    _assert_engines_agree(build_network(table1, params), params,
                          [("AARDBEI", "WT", "NL", "EN")])
