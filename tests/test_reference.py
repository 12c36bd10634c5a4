import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import (Network, NullMonitor, Parameters, ValidationError, build_network, run, step,
                    synthetic_lexicon, update_activation)
from lexsim.dynamics import run_rows, step_rows
from lexsim.network import INHIBITED_POOLS, Pool, pool_gamma
from lexsim.reference import DenseEngine, excitatory_in, scalar_input_weights
from lexsim.tasks import make_monitor

from conftest import members, random_case
from lockstep import lockstep_mismatches


@pytest.mark.parametrize("weights", [scalar_input_weights, Network.input_weights],
                         ids=["scalar", "array"])
def test_weightings_reject_an_empty_stimulus(table1_network, weights):
    with pytest.raises(ValueError) as info:
        weights(table1_network, "")
    assert str(info.value) == "stimulus must be non-empty"


def test_dense_engine_reads_its_weights_from_a_plain_dict(table1_network, params):
    # the oracle's per-node .get stays a dict lookup, never the arrays' searchsorted
    engine = DenseEngine(table1_network)
    dense_step, seen = engine.step, []

    def capturing(state, network, p):
        seen.append(type(state.input_weights))
        dense_step(state, network, p)

    engine.step = capturing
    engine.run("AARDE", make_monitor("WT", "NL", "EN", params), params)
    assert seen and set(seen) == {dict}


def test_size_guard_refuses_large_lexicons():
    # DenseEngine(network, max_entries=k) refuses more than k entries; by default it takes any
    net = build_network(synthetic_lexicon(501), Parameters())
    with pytest.raises(ValidationError, match="refused for 501 entries"):
        DenseEngine(net, max_entries=500)
    assert DenseEngine(net, max_entries=501).dense.base is net
    assert DenseEngine(net).dense.base is net


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


@pytest.mark.parametrize("change", [{}, {"OL_alpha": 0.05, "PL_alpha": 0.05, "LO_alpha": 0.02,
                                        "LP_alpha": 0.02, "MAX_REST": 0.05, "L_rest": 0.05}])
def test_oracle_reads_only_params_and_node_metadata(homograph_lexicon, change):
    # without the fast engine's layout tables and orthographic arrays the
    # oracle builds the same links, pools, weights and frames
    params = Parameters().updated(OO_gamma=-0.05, PP_gamma=-0.05, **change)
    intact = build_network(homograph_lexicon, params)
    bare = dataclasses.replace(intact, first_entry=None, layout=None, to_language=None,
                               from_language=None, pools=None, ortho_ids=None,
                               ortho_lengths=None, ortho_codes=None)
    with pytest.raises(AttributeError):
        bare.input_weights("ROOM")

    assert excitatory_in(bare) == excitatory_in(intact)
    for stimulus, task, source, target in (("ROOM", "WT", "NL", "EN"), ("AARDE", "LD", "NL", None),
                                           ("AAP", "NAME", "NL", "NL")):
        assert scalar_input_weights(bare, stimulus) == scalar_input_weights(intact, stimulus)
        frames = [DenseEngine(net).run(stimulus, make_monitor(task, source, target, params),
                                       params)[0].frames for net in (bare, intact)]
        assert _bits(frames[0]) == _bits(frames[1])


# -- equivalence beyond the fixtures ------------------------------------------

@pytest.mark.parametrize("seed", range(16))
def test_engines_agree_on_random_lexicons(seed):
    lexicon, params, trials = random_case(random.Random(seed))
    _assert_engines_agree(build_network(lexicon, params), params, trials)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False))
def test_engines_agree_on_searched_lexicons(rng):
    lexicon, params, trials = random_case(rng)
    _assert_engines_agree(build_network(lexicon, params), params, trials)


def test_engines_agree_on_synthetic_120():
    lexicon = synthetic_lexicon(120)
    params = Parameters().updated(OO_gamma=-0.5, PP_gamma=-0.05, SS_multiplier=0.2,
                                  MAX_REST=0.05, MIN_REST=0.01, S_rest=0.05)
    first, other = lexicon.entries[0], lexicon.entries[57]
    _assert_engines_agree(build_network(lexicon, params), params,
                          [(first.ortho_a, "WT", "NL", "EN"), (other.ortho_b, "LD", "EN", None),
                           (other.ortho_a, "NAME", "NL", "NL")])


def test_engines_step_in_lockstep_on_synthetic_1000():
    # every node's bits after every cycle, at a size where a table of each
    # pool member's fellow members would not fit; on most cycles each of
    # the three pools inhibits with two or more active members
    lexicon = synthetic_lexicon(1000)
    params = Parameters().updated(OO_gamma=-0.005, PP_gamma=-0.005, SS_multiplier=0.02)
    network = build_network(lexicon, params)
    ids = [members(network, pool) for pool in INHIBITED_POOLS]
    crowded = []  # per cycle: do all three pools have several active members

    def count_active(activation):
        crowded.append(all(np.count_nonzero(activation[pool_ids] > 0.0) > 1 for pool_ids in ids))

    for stimulus in (lexicon.entries[0].ortho_a, lexicon.entries[617].ortho_b):
        assert lockstep_mismatches(network, params, stimulus, 30, count_active) == []
    assert sum(crowded) > 20, crowded


def test_engines_step_in_lockstep_on_synthetic_1000_at_defaults():
    # SS_multiplier 0.0: the semantic pool never steps, so the step leaves
    # its places out of the shared add while the other two pools step
    lexicon = synthetic_lexicon(1000)
    params = Parameters()
    network = build_network(lexicon, params)
    ortho, phono = members(network, Pool.ORTHO), members(network, Pool.PHONO)
    stepping = []  # per cycle: do the ortho and phono pools both have an active member

    def count_active(activation):
        stepping.append((activation[ortho] > 0.0).any() and (activation[phono] > 0.0).any())

    assert pool_gamma(params, Pool.SEM) == 0.0
    assert lockstep_mismatches(network, params, lexicon.entries[0].ortho_a, 30,
                               count_active) == []
    assert sum(stepping) > 20, stepping


def test_engines_agree_with_language_links(homograph_lexicon):
    # language nodes rest above zero, so from cycle 1 they are active and fan
    # out to every reading of their language through the nonzero L->O/P links
    params = Parameters().updated(OL_alpha=0.05, PL_alpha=0.05, LO_alpha=0.02,
                                  LP_alpha=0.02, MAX_REST=0.05, L_rest=0.05)
    network = build_network(homograph_lexicon, params)
    for l_id in members(network, Pool.LANG):
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
    # pool takes an inhibition step, or when it is away from rest; one row
    # at a time, then as the rows of one run_rows call whose pools step
    # differently: the default pools, no orthographic step, a semantic step
    params = Parameters().updated(MAX_REST=0.05, **change)
    network = build_network(homograph_lexicon, params)
    exc_in = excitatory_in(network)
    trials = (("ROOM", "WT", "NL", "EN"), ("AARDE", "LD", "NL", None), ("AAP", "NAME", "NL", "NL"))
    counts, states = [], set()

    def expected(state, p):
        prev = state.activation.tolist()
        stepped = {pool for pool in INHIBITED_POOLS if pool_gamma(p, pool) != 0.0
                   and any(prev[m] > 0.0 for m in members(network, pool))}
        return sum(1 for n, node in enumerate(network.nodes)
                   if any(prev[src] > 0.0 for src, _w in exc_in[n])
                   or n in state.input_weights or node.pool in stepped
                   or prev[n] != node.rest)

    def counting(state, net, p):
        want, before = expected(state, p), state.counters["touched_updates"]
        step(state, net, p)
        counts.append((state.counters["touched_updates"] - before, want))
        states.add(state)

    for stimulus, task, source, target in trials:
        run(network, stimulus, make_monitor(task, source, target, params), params, trace=None,
            step_fn=counting)

    row_params, rows_trials = {}, []  # each row's parameters, by its input weights' id
    for p in (params, params.updated(OO_gamma=0.0), params.updated(SS_multiplier=1.0)):
        for stimulus, task, source, target in trials:
            weights = dict(network.input_weights(stimulus))
            row_params[id(weights)] = p
            rows_trials.append((stimulus, make_monitor(task, source, target, p), weights))

    def counting_rows(rows):
        wants = [(expected(state, row_params[id(state.input_weights)]),
                  state.counters["touched_updates"]) for state in rows.states]
        step_rows(rows)
        counts.extend((state.counters["touched_updates"] - before, want)
                      for state, (want, before) in zip(rows.states, wants))
        states.update(rows.states)

    run_rows(network, rows_trials, list(row_params.values()), step_fn=counting_rows)
    assert all(got == expected for got, expected in counts), counts
    assert len({expected for _got, expected in counts}) > 3
    assert all(type(value) is int for state in states for value in state.counters.values())


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
