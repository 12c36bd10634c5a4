import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsim import (ConfigError, DenseEngine, InvariantError, Lexicon, Network, NullMonitor,
                    Parameters, StimulusRecord, build_network, lexical_decision, parse_lexicon,
                    run, run_batch, set_stimulus, step, update_activation, word_translation)
from lexsim import dynamics
from lexsim.dynamics import (Rows, SimulationState, Trace, _excite, _expansion, _inhibit, _sum3,
                             _update, check_invariants, run_rows, step_rows)
from lexsim.network import INHIBITED_POOLS, InputWeights, Pool
from lexsim.reference import scalar_input_weights
from lexsim.tasks import LexicalDecisionMonitor, WordTranslationMonitor, make_monitor

from conftest import members, random_case

SINGLE = "AARDE,100.07,ard@,100.07,EARTH,24.87,3T,24.87"


# -- net input, seen through one cycle of either engine ----------------------

def _steps(net):
    """The fast step and the dense reference step, both as step_fn."""
    return [step, DenseEngine(net).step]


def test_net_input_no_active_sources(table1_network, params):
    sem = members(table1_network, Pool.SEM)[0]
    for step_fn in _steps(table1_network):
        state = SimulationState(table1_network)
        step_fn(state, table1_network, params)
        assert state.activation[sem] == table1_network.nodes[sem].rest


def test_net_input_single_source(params):
    net = build_network(parse_lexicon(SINGLE), params)
    o = net.find(Pool.ORTHO, "AARDE", "NL")
    s = net.find(Pool.SEM, "EARTH")
    expected = update_activation(s.rest, 0.03 * 0.5, s.rest, params)
    for step_fn in _steps(net):
        state = SimulationState(net)
        state.activation[o.id] = 0.5
        step_fn(state, net, params)
        assert state.activation[s.id] == expected


def test_net_input_subthreshold_source_gated(params):
    net = build_network(parse_lexicon(SINGLE), params)
    o = net.find(Pool.ORTHO, "AARDE", "NL")
    p = net.find(Pool.PHONO, "ard@", "NL")
    assert p.rest > params.MIN_ACT  # a negative input would move it
    for activation in (-0.1, 0.0):
        for step_fn in _steps(net):
            state = SimulationState(net)
            state.activation[o.id] = activation
            step_fn(state, net, params)
            assert state.activation[p.id] == p.rest


def test_net_input_includes_stimulus_term(params):
    net = build_network(parse_lexicon(SINGLE), params)
    o = net.find(Pool.ORTHO, "AARDE", "NL")
    expected = update_activation(o.rest, 0.2 * 1.0, o.rest, params)
    for step_fn in _steps(net):
        state = SimulationState(net)
        set_stimulus(state, net, "AARDE")
        step_fn(state, net, params)
        assert state.activation[o.id] == expected


# -- lateral inhibition ------------------------------------------------------

PAIR = SINGLE + "\nAAP,50.0,ap,50.0,MONKEY,20.0,mVNki,20.0"


def _inhibition_step(gamma, activations):
    """One cycle of either engine with the given orthographic nodes active.

    Orthographic nodes have no orthographic sources, so their net input is
    the inhibition alone. Returns per engine the network, the parameters,
    the orthographic ids in build order and the new activations.
    """
    params = Parameters().updated(OO_gamma=gamma)
    net = build_network(parse_lexicon(PAIR), params)
    ortho = members(net, Pool.ORTHO)
    results = []
    for step_fn in _steps(net):
        state = SimulationState(net)
        state.activation[ortho[:len(activations)]] = activations
        step_fn(state, net, params)
        results.append((net, params, ortho, state.activation))
    return results


def test_inhibition_zero_gamma():
    for net, params, ortho, act in _inhibition_step(0.0, (0.5, 0.3)):
        assert act[ortho[0]] == update_activation(0.5, 0.0, net.nodes[ortho[0]].rest, params)
        assert act[ortho[2]] == net.nodes[ortho[2]].rest


def test_inhibition_excludes_self():
    for net, params, ortho, act in _inhibition_step(-0.1, (0.9,)):
        # the only active member gets no inhibition; the quiet ones get its share
        assert act[ortho[0]] == update_activation(0.9, 0.0, net.nodes[ortho[0]].rest, params)
        rest = net.nodes[ortho[1]].rest
        assert act[ortho[1]] == update_activation(rest, -0.1 * 0.9, rest, params)


def test_inhibition_sums_other_members():
    for net, params, ortho, act in _inhibition_step(-0.1, (0.2, 0.5, 0.3)):
        inhibition = math.fsum([-0.1 * 0.5, -0.1 * 0.3])
        assert inhibition == pytest.approx(-0.08)
        assert act[ortho[0]] == update_activation(0.2, inhibition, net.nodes[ortho[0]].rest,
                                                  params)
        rest = net.nodes[ortho[3]].rest
        shared = math.fsum([-0.1 * 0.2, -0.1 * 0.5, -0.1 * 0.3])
        assert act[ortho[3]] == update_activation(rest, shared, rest, params)


# -- exclusion sums from the repeated-fsum expansion ---------------------------

# signed zeros, subnormals, the smallest normal, halfway cases around 1.0 and
# values whose sums cancel across many binades
TRICKY = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
          1.0, -1.0, 2.0 ** -53, -(2.0 ** -53), 2.0 ** -54, 2.0 ** -105, 1.0 + 2.0 ** -52,
          2.0 ** 53, -(2.0 ** 53), 1e16, -1e16, 0.1, -0.1, 1e300, -1e300)
FLOATS = st.one_of(st.sampled_from(TRICKY),
                   st.floats(min_value=-1e300, max_value=1e300),
                   st.floats(min_value=-1e-300, max_value=1e-300))
# terms anywhere from about 2**997 down to the smallest subnormal, so that no
# double holds their sum and the expansion needs round after round
SPANNING = st.lists(st.builds(math.ldexp, st.floats(min_value=-2.0, max_value=2.0),
                              st.integers(min_value=-1074, max_value=996)),
                    min_size=1, max_size=24)
TERMS = st.one_of(st.lists(FLOATS, min_size=1, max_size=12),
                  # each even-indexed term cancelled by a later one
                  st.lists(FLOATS, min_size=1, max_size=6).map(
                      lambda xs: xs + [-x for x in xs[::2]]),
                  SPANNING)
# 1e300, 1e275, ..., 1e-300 and 5e-324: no two within a factor of 2**53
LADDER = [10.0 ** e for e in range(300, -301, -25)] + [5e-324]
# each residual is at most 2**-53 of the round before it, and the first is
# below 2**1024, so a 41st would lie under the smallest subnormal
MAX_ROUNDS = 40


def _bits(x):
    return x.hex()  # distinguishes 0.0 from -0.0


def _assert_exact_exclusion_sums(xs):
    expansion = _expansion(xs)
    assert len(expansion) <= MAX_ROUNDS
    assert 0.0 not in expansion
    assert _bits(math.fsum(expansion)) == _bits(math.fsum(xs))
    for i, x in enumerate(xs):
        assert _bits(math.fsum(expansion + [-x])) == _bits(math.fsum(xs[:i] + xs[i + 1:]))


@settings(max_examples=400, deadline=None)
@given(TERMS)
def test_expansion_gives_exact_exclusion_sums(xs):
    _assert_exact_exclusion_sums(xs)


def test_expansion_of_terms_spanning_every_binade_takes_many_rounds():
    assert len(_expansion(LADDER)) > 20
    _assert_exact_exclusion_sums(LADDER)
    _assert_exact_exclusion_sums(LADDER[::-1])


# -- update rule -------------------------------------------------------------

def test_update_fixed_point_at_rest():
    p = Parameters()
    assert update_activation(-0.15, 0.0, -0.15, p) == -0.15


def test_update_positive_net_example():
    p = Parameters()
    assert update_activation(0.0, 0.1, -0.2, p) == pytest.approx(0.086)


def test_update_clamps_at_floor():
    p = Parameters()
    assert update_activation(p.MIN_ACT, -5.0, -0.2, p) == p.MIN_ACT


def test_update_clamps_at_ceiling():
    p = Parameters()
    assert update_activation(0.5, 3.0, 0.0, p) == p.MAX_ACT


def test_update_negative_net_scales_by_distance_to_floor():
    p = Parameters()
    a, net, rest = 0.5, -0.1, -0.1
    expected = a + net * (a - p.MIN_ACT) - p.DECAY_RATE * (a - rest)
    assert update_activation(a, net, rest, p) == expected


def _no_negative_zero(doubles):
    return doubles.map(lambda x: x + 0.0)  # the step never sees -0.0 (lexsim.dynamics)


_ACTIVATIONS = st.one_of(st.sampled_from([-0.2, 1.0, math.nan]),  # MIN_ACT, MAX_ACT
                         _no_negative_zero(st.floats(-0.2, 1.0)))
_NETS = st.one_of(st.sampled_from([0.0, math.nan]), _no_negative_zero(st.floats(-50.0, 50.0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_no_negative_zero(st.floats(-0.2, 0.0)), _ACTIVATIONS, _NETS,
                          _ACTIVATIONS, _NETS), min_size=1, max_size=12),
       st.sampled_from([0.0, 0.07, 1.0]))
@example([(-0.2, -0.2, 0.0, 1.0, 0.0), (0.0, 0.5, 50.0, 0.5, -50.0),
          (-0.1, math.nan, 0.3, 0.1, math.nan), (-0.2, -0.2, -0.3, 1.0, 0.3)], 0.07)
def test_update_gives_update_activation_bits(nodes, decay):
    # the step's update over two rows: per node (rest, then activation and
    # net in each row), update_activation's bits, a NaN kept as NaN, and
    # the away-from-rest mask of the activations it read
    p = Parameters().updated(DECAY_RATE=decay)
    rest = [node[0] for node in nodes]
    act = [node[1] for node in nodes] + [node[3] for node in nodes]
    net = [node[2] for node in nodes] + [node[4] for node in nodes]
    prev = np.array(act)
    away = _update(prev, np.array(net), np.array(rest), p)
    for a, x, r, got in zip(act, net, rest * 2, prev.tolist()):
        want = update_activation(a, x, r, p)
        assert math.isnan(got) if math.isnan(want) else got.hex() == want.hex(), (a, x, r)
    assert away.tolist() == [a != r for a, r in zip(act, rest * 2)]
    if any(map(math.isnan, prev.tolist())):
        with pytest.raises(InvariantError):
            check_invariants(SimpleNamespace(activation=prev, cycle=1), p)


# -- step --------------------------------------------------------------------

def test_quiescent_state_is_fixed_point(table1_network, params):
    state = SimulationState(table1_network)
    before = [a.hex() for a in state.activation.tolist()]
    step(state, table1_network, params)
    assert [a.hex() for a in state.activation.tolist()] == before
    assert state.cycle == 1


def test_first_cycle_only_weighted_ortho_rises(table1_network, params):
    state = SimulationState(table1_network)
    set_stimulus(state, table1_network, "AARDE")
    weighted = set(state.input_weights)
    step(state, table1_network, params)
    net = table1_network
    for n in range(len(net)):
        moved = state.activation[n] != net.nodes[n].rest
        if net.nodes[n].pool is Pool.ORTHO:
            assert moved == (n in weighted)
        elif net.nodes[n].pool in (Pool.PHONO, Pool.SEM, Pool.LANG):
            assert not moved


def test_set_stimulus_resets(table1_network, params):
    state = SimulationState(table1_network)
    set_stimulus(state, table1_network, "AARDE")
    for _ in range(5):
        step(state, table1_network, params)
    set_stimulus(state, table1_network, "AAP")
    assert state.cycle == 0
    assert [a.hex() for a in state.activation.tolist()] \
        == [node.rest.hex() for node in table1_network.nodes]


@pytest.mark.parametrize("stimulus", ["AARDE", "ROOM", "XQZQX"])
def test_reset_reads_input_weights_and_a_dict_of_them_alike(table1_network, params, stimulus):
    # the arrays input_weights returns, the same weights as a dict, and as a
    # dict in descending id order: bit-identical rows, runs and traces
    weights = table1_network.input_weights(stimulus)
    forms = (weights, dict(weights), dict(reversed(list(weights.items()))))
    assert InputWeights.of(weights) is weights
    assert InputWeights.of(forms[2]).ids.tolist() == weights.ids.tolist()
    states = [SimulationState(table1_network, None, w) for w in forms]
    for state, w in zip(states, forms):
        assert state.input_weights is w
        for name in ("stimulus", "weighted"):
            row, first = getattr(state, name), getattr(states[0], name)
            assert row.dtype == first.dtype and row.tobytes() == first.tobytes()
    runs = [run_rows(table1_network, [(stimulus, make_monitor("WT", "NL", "EN", params), w)],
                     params, trace="full")[0] for w in forms]
    for trace, outcome in runs:
        assert outcome == runs[0][1]
        assert np.array(trace.frames).tobytes() == np.array(runs[0][0].frames).tobytes()


def test_activation_is_an_own_float64_array(homograph_network, params):
    # after the reset and after each of three steps, in both engines
    for step_fn in _steps(homograph_network):
        state = SimulationState(homograph_network)
        set_stimulus(state, homograph_network, "ROOM")
        for cycle in range(4):
            if cycle:
                step_fn(state, homograph_network, params)
            act = state.activation
            assert isinstance(act, np.ndarray) and act.dtype == np.float64
            assert act.shape == (len(homograph_network),)
            assert not np.shares_memory(act, homograph_network.rest)


def test_clamp_invariant_strong_inhibition(homograph_network):
    p = Parameters().updated(OO_gamma=-1.0, PP_gamma=-1.0)
    state = SimulationState(homograph_network)
    set_stimulus(state, homograph_network, "ROOM")
    for _ in range(40):
        step(state, homograph_network, p)
        assert all(p.MIN_ACT <= a <= p.MAX_ACT for a in state.activation)


def test_off_rest_tracking_matches_activations(table1_network, params):
    # each frame is the activation array after its cycle, as Python floats,
    # and the sampled nodes are those above their rest level in some frame
    trace, outcome = run(table1_network, "AARDBEI", NullMonitor(), params)
    state = SimulationState(table1_network)
    set_stimulus(state, table1_network, "AARDBEI")
    rests = [node.rest for node in table1_network.nodes]
    above = set()
    assert len(trace) == outcome.cycles
    for frame in trace.frames:
        step(state, table1_network, params)
        assert [a.hex() for a in frame] == [a.hex() for a in state.activation.tolist()]
        assert all(type(a) is float for a in frame)
        above |= {n for n, (a, r) in enumerate(zip(frame, rests)) if a > r}
    assert sorted({row[1] for row in trace.rows()}) == sorted(above)


def test_sparse_trace_mode_is_rejected(table1_network):
    with pytest.raises(ValueError, match="unknown trace mode 'sparse'"):
        SimulationState(table1_network, trace="sparse")


def test_entry_order_does_not_change_symbol_activations(table1, params):
    forward = build_network(table1, params)
    reversed_lex = Lexicon(entries=list(reversed(table1.entries)),
                           language_a=table1.language_a, language_b=table1.language_b)
    backward = build_network(reversed_lex, params)

    s1 = SimulationState(forward)
    set_stimulus(s1, forward, "AARDE")
    s2 = SimulationState(backward)
    set_stimulus(s2, backward, "AARDE")
    for _ in range(20):
        step(s1, forward, params)
        step(s2, backward, params)

    def by_symbol(net, state):
        return {(n.pool.value, n.language, n.symbol): state.activation[n.id]
                for n in net.nodes if n.pool is not Pool.SEM}

    assert by_symbol(forward, s1) == by_symbol(backward, s2)


def test_active_count_non_increasing_in_inhibition(table1_network, table1):
    stimuli = [e.ortho_a for e in table1.entries]
    finals = []
    for gamma in (0.0, -0.0001, -0.001, -0.01, -0.1):
        p = Parameters().updated(OO_gamma=gamma, PP_gamma=gamma)
        total = 0
        for stim in stimuli:
            state = SimulationState(table1_network)
            set_stimulus(state, table1_network, stim)
            for _ in range(p.max_cycles):
                step(state, table1_network, p)
            total += sum(len(state.active_by_pool[pool])
                         for pool in (Pool.ORTHO, Pool.PHONO, Pool.SEM))
        finals.append(total)
    assert all(a >= b for a, b in zip(finals, finals[1:]))
    assert finals[0] > finals[-1]


# -- run ---------------------------------------------------------------------

def test_run_without_decision_reaches_cycle_limit(table1_network, params):
    trace, outcome = run(table1_network, "AARDE", NullMonitor(), params)
    assert outcome.response_kind == "none"
    assert outcome.cycles == params.max_cycles


def test_unknown_language_raises_before_the_first_step(table1_network, params, monkeypatch):
    calls = []
    monkeypatch.setattr(Network, "input_weights", lambda *args: calls.append("weights"))
    monkeypatch.setattr(dynamics, "step", lambda *args: calls.append("step"))
    with pytest.raises(ConfigError) as info:
        run(table1_network, "AARDE", LexicalDecisionMonitor("DE", params), params)
    assert str(info.value) == "unknown language tag 'DE'; network has ('NL', 'EN')"
    assert calls == []


def test_untraced_run_builds_no_trace(table1_network, params, monkeypatch):
    def no_trace(*args):
        raise AssertionError("an untraced run built a Trace")

    monkeypatch.setattr(Trace, "__init__", no_trace)
    trace, outcome = run(table1_network, "AARDE", NullMonitor(), params, trace=None)
    assert trace is None and outcome.cycles == params.max_cycles


def test_run_resets_the_state_once(table1_network, monkeypatch):
    resets = []
    reset = SimulationState.reset
    monkeypatch.setattr(SimulationState, "reset",
                        lambda state, weights=None: resets.append(reset(state, weights)))
    assert lexical_decision(table1_network, "AARDE", "NL").response_kind == "yes"
    assert len(resets) == 1


@pytest.mark.parametrize("engine", ["rows", "fast", "dense"])
def test_steps_keep_each_state_a_view_of_its_row(table1_network, params, monkeypatch, engine):
    # a step writes its activations into rows.activation in place, so after
    # every step each live state's activation is still its row of the
    # chunk's buffer: several rows of run_rows for either engine's row step,
    # and run's one row for the dynamics.step it looks up
    built, steps, buffers = [], [], []

    class Recorded(Rows):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
            buffers.append(self.activation)

        def keep(self, rows):
            super().keep(rows)
            buffers.append(self.activation)

    def check(rows):
        assert rows.activation is buffers[-1]
        grid = rows.activation.reshape(len(rows.states), -1)
        for state, row in zip(rows.states, grid):
            assert np.shares_memory(state.activation, row)
            assert state.activation.tolist() == row.tolist()
        steps.append(len(rows.states))

    monkeypatch.setattr(dynamics, "Rows", Recorded)
    if engine != "fast":
        row_step = step_rows if engine == "rows" else DenseEngine(table1_network).step_rows
        trials = [(stimulus, make_monitor(task, "NL", "EN", params), None) for stimulus, task
                  in (("AARDBEI", "WT"), ("AARDE", "LD"), ("AAP", "NAME"), ("XQZQX", "LD"))]
        run_rows(table1_network, trials, params,
                 step_fn=lambda rows: (row_step(rows), check(rows)))
        assert steps[0] == 4 and steps[-1] == 1 and len(set(steps)) > 2  # rows were dropped
        return

    def checked_step(state, network, p):
        step(state, network, p)
        check(built[0])

    monkeypatch.setattr(dynamics, "step", checked_step)
    trace, outcome = run(table1_network, "AARDBEI", make_monitor("WT", "NL", "EN", params),
                         params, trace="full")
    assert outcome.cycles == len(trace) == len(steps) > 1
    assert built[0].activation.tolist() == trace.frames[-1] != table1_network.rest.tolist()


def test_step_rejects_an_i_rest_the_network_fixed(table1_network, params):
    # the stimulus row is built with the network's I_rest, so a step with
    # another would disagree with the dense engine, which multiplies by it
    state = SimulationState(table1_network)
    set_stimulus(state, table1_network, "AARDE")
    step(state, table1_network, params)
    before = [a.hex() for a in state.activation.tolist()]
    for step_fn in (step, DenseEngine(table1_network).step):
        with pytest.raises(ConfigError, match=r"^I_rest is fixed by the network \(1\.0\); "
                                              r"a trial cannot set it to 0\.5$"):
            step_fn(state, table1_network, params.updated(I_rest=0.5))
        assert [a.hex() for a in state.activation.tolist()] == before
        assert state.cycle == 1


@pytest.mark.parametrize("change, field", [
    ({"SP_alpha": 0.0, "PS_alpha": 0.0}, "PS_alpha"), ({"IO_multiplier": 0.05}, "IO_multiplier"),
    ({"MAX_REST": -0.1}, "MAX_REST"), ({"MIN_ACT": -0.3}, "MIN_ACT"),
    ({"OP_alpha": 0.5}, "OP_alpha")])
def test_run_rejects_parameters_the_network_fixed(table1_network, params, change, field):
    # the network's weights and rest levels come from its own parameters; a
    # trial that changed them would run on the built ones. Both engines' steps
    # refuse what a run refuses, before they change any state
    changed = Parameters().updated(**change)
    message = re.escape(f"{field} is fixed by the network ({getattr(Parameters(), field)!r}); "
                        f"a trial cannot set it to {getattr(changed, field)!r}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        word_translation(table1_network, "AARDBEI", "NL", "EN", changed)
    state = SimulationState(table1_network)
    set_stimulus(state, table1_network, "AARDBEI")
    step(state, table1_network, params)
    before = [a.hex() for a in state.activation.tolist()]
    for step_fn in (step, DenseEngine(table1_network).step):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            step_fn(state, table1_network, changed)
        assert [a.hex() for a in state.activation.tolist()] == before
        assert state.cycle == 1


def test_run_takes_trial_parameters_the_network_leaves_free(table1, table1_network):
    gammas = Parameters().updated(OO_gamma=-0.01, PP_gamma=-0.01, max_cycles=60)
    outcome = word_translation(table1_network, "AARDBEI", "NL", "EN", gammas)
    assert outcome == word_translation(build_network(table1, gammas), "AARDBEI", "NL", "EN")
    assert outcome != word_translation(table1_network, "AARDBEI", "NL", "EN")


def test_run_lexical_decision_golden(table1_network, params):
    outcome = lexical_decision(table1_network, "AARDE", "NL")
    assert outcome.response_kind == "yes"
    assert outcome.cycles == 12  # frozen under default parameters


def test_trace_row_count_contract(table1_network, params):
    monitor = LexicalDecisionMonitor("NL", params)
    trace, outcome = run(table1_network, "AARDE", monitor, params)
    rows = trace.rows()
    sampled = [node.id for node in table1_network.nodes
               if any(frame[node.id] > node.rest for frame in trace.frames)]
    assert len(rows) == outcome.cycles * len(sampled)


def test_trace_top_k_limits_nodes(table1_network, params):
    trace, _ = run(table1_network, "AARDE", NullMonitor(), params)
    rows = trace.rows(top_k=6)
    assert len({r[1] for r in rows}) == 6


@pytest.mark.parametrize("top_k", [0, -1])
def test_trace_rows_reject_top_k_below_one(table1_network, params, top_k):
    trace, _ = run(table1_network, "AARDBEI", NullMonitor(), params)
    with pytest.raises(ValueError) as info:
        trace.rows(top_k=top_k)
    assert str(info.value) == f"top_k must be at least 1, got {top_k}"


def test_work_counter_accumulates(table1_network, params):
    state = SimulationState(table1_network)
    set_stimulus(state, table1_network, "AARDE")
    for _ in range(10):
        step(state, table1_network, params)
    assert state.counters["active_node_updates"] > 0
    assert state.counters["touched_updates"] >= state.counters["active_node_updates"]


# -- the per-trial invariant -------------------------------------------------

def corrupting_step(corrupt):
    """A stand-in for dynamics.step that runs the fast step, then applies ``corrupt``
    to the state."""
    def step_fn(state, network, params):
        step(state, network, params)
        corrupt(state)
    return step_fn


def _after_last_cycle(corrupt):
    """``corrupt`` applied once, after the cycle limit's step: an active inf
    would make the next step's inhibition sum raise before any check."""
    def apply(state):
        if state.cycle == state.network.params.max_cycles:
            corrupt(state)
    return apply


# node 5 is the EN orthographic node of the first entry
CORRUPTIONS = {
    "nan": (lambda s: s.activation.__setitem__(5, math.nan), "node 5 has activation nan"),
    "inf": (_after_last_cycle(lambda s: s.activation.__setitem__(5, math.inf)),
            "node 5 has activation inf"),
    "above MAX_ACT": (lambda s: s.activation.__setitem__(5, 1.5), "node 5 has activation 1.5"),
    "below MIN_ACT": (lambda s: s.activation.__setitem__(5, -0.5),
                      "node 5 has activation -0.5"),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", CORRUPTIONS)
def test_run_raises_invariant_error_on_corrupt_state(table1_network, params, monkeypatch, name):
    corrupt, message = CORRUPTIONS[name]
    monkeypatch.setattr(dynamics, "step", corrupting_step(corrupt))
    with pytest.raises(InvariantError, match=message):
        run(table1_network, "AARDE", NullMonitor(), params, trace=None)


def test_invariant_error_is_not_a_batch_row_error(table1_network, params, monkeypatch):
    # run_batch records a ValueError as a row error and goes on; a broken
    # invariant must stop the batch instead
    assert not issubclass(InvariantError, ValueError)
    monkeypatch.setattr("lexsim.dynamics.step", corrupting_step(CORRUPTIONS["nan"][0]))
    with pytest.raises(InvariantError):
        run_batch(table1_network, [StimulusRecord("AARDE", "NL", task="LD")], params)


# -- trials stepped together as rows -----------------------------------------

class _Observed:
    """A task monitor that keeps the state it last observed and the cycles it
    observed; it has no watch."""

    def __init__(self, monitor):
        self.monitor = monitor
        self.languages = monitor.languages
        self.cycles = []

    def observe(self, state, network):
        self.state = state
        self.cycles.append(state.cycle)
        return self.monitor.observe(state, network)

    def timeout(self, state, network):
        return self.monitor.timeout(state, network)


def _frame_bits(frames):
    return [[a.hex() for a in frame] for frame in frames]


def _assert_rows_match_runs(network, params, trials, monkeypatch, rows_per_chunk=3,
                            oracle=False):
    """Stepped together as rows, in chunks of ``rows_per_chunk``, ``trials``
    ((stimulus, task, source, target)) give what one run each gives: every
    cycle's activations bit for bit, the outcome with its rejections, and
    both work counters. ``params`` is one Parameters or one per trial; with
    ``oracle`` each one-row run must also match the dense engine's frames,
    and the same chunks stepped by DenseEngine.step_rows, on scalar input
    weights, the batch's frames and outcomes. Returns what the batch covered."""
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", rows_per_chunk * len(network))
    row_params = params if isinstance(params, list) else [params] * len(trials)
    covered = {"chunks": 0, "partial_pool_step": False, "gammas_in_a_step": 1}

    def recording_step(rows):
        # a chunk starts with every row at cycle 0
        covered["chunks"] += all(state.cycle == 0 for state in rows.states)
        covered["gammas_in_a_step"] = max(covered["gammas_in_a_step"],
                                          len({tuple(g) for g in rows.gammas.tolist()}))
        for k, pool in enumerate(INHIBITED_POOLS):
            steps = [bool(state.active_by_pool[pool]) and gamma != 0.0
                     for state, gamma in zip(rows.states, rows.gammas[:, k])]
            covered["partial_pool_step"] |= any(steps) and not all(steps)
        step_rows(rows)

    monitors = [_Observed(make_monitor(task, source, target, p))
                for (_stimulus, task, source, target), p in zip(trials, row_params)]
    rows = [(trial[0], monitor, None) for trial, monitor in zip(trials, monitors)]
    batch = run_rows(network, rows, params, trace="full", step_fn=recording_step)
    dense = DenseEngine(network) if oracle else None
    if oracle:
        dense_rows = [(stimulus, make_monitor(*spec, p), scalar_input_weights(network, stimulus))
                      for (stimulus, *spec), p in zip(trials, row_params)]
        dense_batch = run_rows(network, dense_rows, params, trace="full", step_fn=dense.step_rows)
        for trial, (trace, outcome), (dense_trace, dense_outcome) in zip(trials, batch,
                                                                          dense_batch):
            assert _frame_bits(trace.frames) == _frame_bits(dense_trace.frames), trial
            assert outcome == dense_outcome, trial
    for trial, p, monitor, (trace, outcome) in zip(trials, row_params, monitors, batch):
        alone = _Observed(make_monitor(*trial[1:], p))
        alone_trace, alone_outcome = run(network, trial[0], alone, p, trace="full")
        assert _frame_bits(trace.frames) == _frame_bits(alone_trace.frames), trial
        assert outcome == alone_outcome, trial
        assert monitor.state.counters == alone.state.counters, trial
        if oracle:
            dense_trace, _outcome = dense.run(trial[0], make_monitor(*trial[1:], p), p)
            assert _frame_bits(trace.frames) == _frame_bits(dense_trace.frames), trial
    covered["cycles"] = {outcome.cycles for _trace, outcome in batch}
    covered["timeouts"] = sum(outcome.cycles == p.max_cycles and not outcome.responded
                              for p, (_trace, outcome) in zip(row_params, batch))
    covered["rejections"] = sum(outcome.n_rejected for _trace, outcome in batch)
    return covered


ROW_NETWORKS = {
    "defaults": {},
    "language links": {"OL_alpha": 0.05, "PL_alpha": 0.05, "LO_alpha": 0.02, "LP_alpha": 0.02,
                       "MAX_REST": 0.05, "L_rest": 0.05},
}
ROW_TRIAL_PARAMETERS = {
    "defaults": {},
    "gamma 0": {"OO_gamma": 0.0, "PP_gamma": 0.0},
    "gamma -1, no decay": {"OO_gamma": -1.0, "PP_gamma": -1.0, "DECAY_RATE": 0.0},
    "semantic inhibition": {"SS_multiplier": 1.0},
}
ROW_SETTINGS = ([("defaults", trial) for trial in ROW_TRIAL_PARAMETERS]
                + [("language links", "defaults")])


@pytest.mark.parametrize("fixture", ["table1", "homograph_lexicon"])
@pytest.mark.parametrize("built, trial", ROW_SETTINGS, ids=[f"{b}/{t}" for b, t in ROW_SETTINGS])
def test_rows_match_one_run_per_trial(request, monkeypatch, fixture, built, trial):
    lexicon = request.getfixturevalue(fixture)
    network = build_network(lexicon, Parameters().updated(**ROW_NETWORKS[built]))
    params = network.params.updated(**ROW_TRIAL_PARAMETERS[trial])
    entries = lexicon.entries
    trials = [(entries[0].ortho_a, "WT", "NL", "EN"), (entries[1].ortho_b, "WT", "EN", "NL"),
              (entries[2].ortho_a, "LD", "NL", None), (entries[3].ortho_b, "NAME", "EN", "EN"),
              ("XQXQXQ", "LD", "NL", None), (entries[-1].ortho_a, "NAME", "NL", "NL"),
              (entries[-2].ortho_a, "WT", "NL", "EN")]
    covered = _assert_rows_match_runs(network, params, trials, monkeypatch, oracle=True)
    assert covered["chunks"] == 3
    assert len(covered["cycles"]) > 1  # rows finish at different cycles
    assert covered["timeouts"] >= 1  # the nonword LD times out
    assert covered["rejections"] >= 1


def test_rows_cover_a_pool_step_in_some_rows_only(homograph_network, params, monkeypatch):
    # the first cycles: a stimulus that weights many readings and one that
    # weights few activate their pools at different cycles
    trials = [("ROOM", "WT", "NL", "EN"), ("XQXQXQ", "LD", "NL", None),
              ("AARDBEI", "WT", "NL", "EN")]
    covered = _assert_rows_match_runs(homograph_network, params.updated(OO_gamma=-0.01),
                                      trials, monkeypatch)
    assert covered["partial_pool_step"]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rows_match_one_run_per_trial_on_searched_lexicons(rng):
    lexicon, params, trials = random_case(rng)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_rows_match_runs(build_network(lexicon, params), params, trials * 2, monkeypatch)


def test_rows_chunk_bound_keeps_one_row_when_a_row_exceeds_it(homograph_network, params,
                                                              monkeypatch):
    covered = _assert_rows_match_runs(homograph_network, params,
                                      [("ROOM", "WT", "NL", "EN"), ("AARDE", "LD", "NL", None)],
                                      monkeypatch, rows_per_chunk=0)
    assert covered["chunks"] == 2



def test_rows_with_different_gammas_match_one_run_each(homograph_lexicon, monkeypatch):
    # one chunk of rows at several inhibition weights, semantic included;
    # each one-row run is checked against the dense engine too
    network = build_network(homograph_lexicon, Parameters())
    settings = [Parameters().updated(**change) for change in (
        {}, {"OO_gamma": 0.0, "PP_gamma": -0.3}, {"OO_gamma": -0.5, "PP_gamma": 0.0},
        {"SS_multiplier": 1.0, "SS_gamma": -0.2}, {"OO_gamma": -0.01, "PP_gamma": -0.01})]
    stimuli = [("ROOM", "WT", "NL", "EN"), ("AARDBEI", "WT", "NL", "EN"),
               ("AARDE", "LD", "NL", None)]
    trials = [trial for _p in settings for trial in stimuli]
    params = [p for p in settings for _trial in stimuli]
    covered = _assert_rows_match_runs(network, params, trials, monkeypatch,
                                      rows_per_chunk=len(trials), oracle=True)
    assert covered["chunks"] == 1
    assert covered["gammas_in_a_step"] == len(settings)
    assert covered["partial_pool_step"]
    assert len(covered["cycles"]) > 1


class _Cycles(NullMonitor):
    """Never decides; keeps the cycles it observed, like the stats monitor."""

    def __init__(self):
        self.cycles = []

    def observe(self, state, network):
        self.cycles.append(state.cycle)


class _Woken(WordTranslationMonitor):
    """A WT monitor, watch kept, that counts the cycles it observed."""

    cycles = 0

    def observe(self, state, network):
        self.cycles += 1
        return super().observe(state, network)


@pytest.mark.parametrize("rows_per_chunk", [4, 64])
@pytest.mark.parametrize("fixture", ["table1", "homograph_lexicon"])
def test_rows_observe_only_woken_monitors_and_match_one_run_each(request, monkeypatch,
                                                                 fixture, rows_per_chunk):
    # watched monitors (WT, LD, NAME) skip the rows without candidates;
    # NullMonitor, a subclass of it and a wrapper without watch see every cycle.
    # Chunks of 4 end with one row, which is observed every cycle
    lexicon = request.getfixturevalue(fixture)
    network = build_network(lexicon, Parameters())
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", rows_per_chunk * len(network))
    params = Parameters().updated(OO_gamma=-0.01, PP_gamma=-0.01)
    entries = lexicon.entries
    specs = [(e.ortho_a, "WT", "NL", "EN") for e in entries[:4]]
    specs += [(entries[1].ortho_b, "WT", "EN", "NL"), (entries[0].ortho_a, "LD", "NL", None),
              ("XQZQX", "WT", "NL", "EN"), (entries[2].ortho_b, "NAME", "EN", "EN"),
              ("XQZQX", "LD", "NL", None), (entries[3].ortho_a, "WT", "NL", "EN")]

    def monitors():
        made = [_Woken(source, target, params) if task == "WT"
                else make_monitor(task, source, target, params)
                for _stimulus, task, source, target in specs]
        return made + [NullMonitor(), _Cycles(), _Observed(make_monitor("WT", "NL", "EN", params))]

    stimuli = [spec[0] for spec in specs] + [entries[0].ortho_a] * 3
    batch = monitors()
    got = [outcome for _trace, outcome in
           run_rows(network, [(s, m, None) for s, m in zip(stimuli, batch)], params)]
    alone = monitors()
    for stimulus, monitor, outcome in zip(stimuli, alone, got):
        assert run(network, stimulus, monitor, params, trace=None)[1] == outcome, stimulus
    assert len({outcome.cycles for outcome in got}) > 1
    assert not hasattr(batch[-3], "watch") and not hasattr(batch[-1], "watch")
    for monitor, outcome in zip(batch[-2:], got[-2:]):
        assert monitor.cycles == list(range(1, outcome.cycles + 1))
    woken = [(monitor.cycles, one.cycles) for monitor, one in zip(batch, alone)
             if isinstance(monitor, _Woken)]
    assert all(rows <= cycles for rows, cycles in woken)
    assert sum(rows for rows, _cycles in woken) < sum(cycles for _rows, cycles in woken)


def test_rows_may_differ_only_in_inhibition_weights(table1_network, params):
    # run_rows refuses before the first step, and Rows made directly refuses
    # the same rows before any state changes
    trials = [("AARDE", NullMonitor(), None)] * 2
    states = [SimulationState(table1_network, None, table1_network.input_weights(stimulus))
              for stimulus in ("AARDE", "AARDBEI")]
    for state in states:
        step(state, table1_network, params)
    before = [(state.activation, state.activation.tobytes()) for state in states]

    def refused(row_params, message):
        with pytest.raises(ConfigError, match=message):
            run_rows(table1_network, trials, row_params)
        with pytest.raises(ConfigError, match=message):
            step_rows(Rows(table1_network, states, row_params))
        for state, (activation, bits) in zip(states, before):
            assert state.activation is activation and activation.tobytes() == bits
            assert state.cycle == 1

    for change in ({"DECAY_RATE": 0.1}, {"max_cycles": 3}, {"criterion_value": 0.5}):
        refused([params, params.updated(**change)], "^rows stepped together may differ only "
                "in OO_gamma, PP_gamma, SS_gamma, SS_multiplier; ")
    refused([params, params.updated(IO_multiplier=0.1)], "IO_multiplier is fixed by the network")
    refused([params, params.updated(OP_alpha=0.5, MIN_ACT=-0.3)],
            r"^MIN_ACT is fixed by the network \(-0\.2\); a trial cannot set it to -0\.3$")
    refused([params], "^1 parameter sets for 2 trials$")
    refused([params] * 3, "^3 parameter sets for 2 trials$")
    assert run_rows(table1_network, [], []) == []


def test_one_step_with_one_and_two_member_pool_steps_in_different_rows(homograph_network):
    # row 0: one active orthographic node and two phonological ones; row 1
    # the other way round, at other gammas; every other node at rest. Each
    # row must give the dense engine's bits and a one-row step's counters
    ortho, phono = members(homograph_network, Pool.ORTHO), members(homograph_network, Pool.PHONO)
    setups = [(Parameters().updated(OO_gamma=-0.1, PP_gamma=-0.2),
               {ortho[3]: 0.5, phono[0]: 0.3, phono[7]: 0.6}),
              (Parameters().updated(OO_gamma=-0.3, PP_gamma=-0.05),
               {ortho[1]: 0.4, ortho[8]: 0.9, phono[5]: 0.7})]

    def at(active):
        state = SimulationState(homograph_network)
        state.activation[list(active)] = list(active.values())
        return state

    rows = Rows(homograph_network, [at(active) for _p, active in setups],
                [p for p, _active in setups])
    assert [{pool: len(ids) for pool, ids in state.active_by_pool.items() if ids}
            for state in rows.states] == [{Pool.ORTHO: 1, Pool.PHONO: 2},
                                          {Pool.ORTHO: 2, Pool.PHONO: 1}]
    step_rows(rows)
    dense = DenseEngine(homograph_network)
    for state, (p, active) in zip(rows.states, setups):
        alone, oracle = at(active), at(active)
        step(alone, homograph_network, p)
        dense.step(oracle, homograph_network, p)
        assert _bits_of(state.activation) == _bits_of(alone.activation) \
            == _bits_of(oracle.activation)
        assert state.counters == alone.counters


def _bits_of(activation):
    return [a.hex() for a in activation.tolist()]


# -- the array phases against fsum --------------------------------------------

# a product w*a is never -0.0 (w > 0, a > 0); a stimulus-only net input is
# x + 0.0 or 0.0, never -0.0
PRODUCTS = st.one_of(st.sampled_from((0.0, 5e-324, 1.0, 2.0 ** -53, 1e300)),
                     st.floats(min_value=0.0, max_value=1e300))
STIMULI = st.one_of(st.just(0.0), st.floats(min_value=-1e300, max_value=1e300).map(
    lambda x: x + 0.0))
GROUPS = st.lists(st.tuples(STIMULI, st.lists(PRODUCTS, min_size=1, max_size=5)),
                  min_size=1, max_size=12)


def _scatter(groups, rng):
    """The net array and the (target, product) pairs, shuffled, of ``groups``."""
    net = np.array([s for s, _prods in groups] + [0.25])  # the last node gets nothing
    pairs = [(t, p) for t, (_s, prods) in enumerate(groups) for p in prods]
    rng.shuffle(pairs)
    return net, np.array([t for t, _p in pairs], dtype=np.intp), np.array([p for _t, p in pairs])


def _assert_gather_sums_are_the_fsum_of_each_target(groups, rng):
    net, dst, prod = _scatter(groups, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # as in step_rows
        targets = _excite(net, dst, prod)
    assert targets.tolist() == list(range(len(groups)))
    expected = [math.fsum(prods + [s] if s else prods) for s, prods in groups]
    assert _bits_of(net) == [x.hex() for x in expected] + [(0.25).hex()]


@settings(max_examples=300, deadline=None)
@given(GROUPS, st.randoms(use_true_random=False))
def test_gather_sums_are_the_fsum_of_each_target(groups, rng):
    _assert_gather_sums_are_the_fsum_of_each_target(groups, rng)


@settings(max_examples=300, deadline=None)
@given(GROUPS, st.randoms(use_true_random=False))
def test_gather_sums_through_the_three_term_adder_are_the_fsum_of_each_target(groups, rng):
    # these draws hold at most 12 targets, under the gate: open it to every step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_SUM3_GROUPS", 0)
        _assert_gather_sums_are_the_fsum_of_each_target(groups, rng)


@pytest.mark.parametrize("stimulus, products", [
    (1.7e308, [1.7e308]), (0.0, [1.7e308, 1.7e308]), (1e308, [1e308, 1e308]),
    (0.0, [1e308, 1e308, 1e308]), (-1e308, [1.7e308, 1.7e308, 1e308])])
def test_gather_raises_where_a_finite_sum_overflows(stimulus, products):
    net, dst, prod = _scatter([(0.0, [1.0, 2.0]), (stimulus, products)], random.Random(0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OverflowError, match="intermediate overflow"):
        _excite(net, dst, prod)


# an inhibition term gamma*a is <= 0 (gamma <= 0, a > 0), -0.0 if it underflows
TERMS_OF_A_POOL = st.lists(st.one_of(st.sampled_from((-0.0, -5e-324, -1.0, -2.0 ** -53, -1e300)),
                                     st.floats(min_value=-1e300, max_value=0.0)),
                           min_size=1, max_size=5)


def _assert_pool_steps_give_the_fsum_of_the_members(pools, rng):
    # the sign of a zero sum does not count: it is added to a net input that
    # is never -0.0, which it leaves as it is
    members = [(key, t) for key, terms in enumerate(pools) for t in terms]
    rng.shuffle(members)
    keys = np.array([key for key, _t in members], dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # as in step_rows
        order, groups, sums, exclusion = _inhibit(keys, np.array([t for _key, t in members]))
    assert groups.tolist() == list(range(len(pools)))
    assert [(x + 0.0).hex() for x in sums.tolist()] \
        == [(math.fsum(terms) + 0.0).hex() for terms in pools]
    for i, excluded in zip(order.tolist(), exclusion.tolist()):
        key, t = members[i]
        others = list(pools[key])
        others.remove(t)
        assert (excluded + 0.0).hex() == (math.fsum(others) + 0.0).hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(TERMS_OF_A_POOL, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_pool_steps_give_the_fsum_of_the_members(pools, rng):
    _assert_pool_steps_give_the_fsum_of_the_members(pools, rng)


@settings(max_examples=300, deadline=None)
@given(st.lists(TERMS_OF_A_POOL, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_pool_steps_through_the_three_term_adder_give_the_fsum_of_the_members(pools, rng):
    # these draws hold at most 8 pools, under the gate: open it to every step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_SUM3_GROUPS", 0)
        _assert_pool_steps_give_the_fsum_of_the_members(pools, rng)


# -- the three-term adder against fsum -------------------------------------------

# no term is -0.0 (x + 0.0), as in a step's excitation sums
THREE_TERMS = st.one_of(st.floats(min_value=-1e300, max_value=1e300),
                        st.floats(min_value=-1e-300, max_value=1e-300),
                        st.builds(math.ldexp, st.floats(min_value=-2.0, max_value=2.0),
                                  st.integers(min_value=-1074, max_value=996))).map(
    lambda x: x + 0.0)
TIE = 2.0 ** -53  # half an ulp of 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(THREE_TERMS, THREE_TERMS, THREE_TERMS), min_size=1, max_size=40))
@example([(1.0, TIE, 0.0),  # a tie, to even: 1.0
          (1.0 + 2.0 ** -52, TIE, 0.0),  # a tie, to even: up
          (1.0, TIE, 5e-324), (1.0, TIE, -5e-324),  # a subnormal decides the tie
          (2.0 ** 53, 1.0, 2.0 ** -60),  # the third term decides the tie
          (5e-324, -1e-320, 2.5e-308),  # subnormal terms
          (1e-310, 1e-310, -2e-310),  # a zero sum of subnormals: +0.0
          (0.25, 0.5, -0.75), (0.1, 0.2, -0.3),  # a negative stimulus term (I_rest < 0)
          (1e300, 1.0, -1e300)])  # cancellation leaves the smallest term
def test_three_term_adder_is_the_fsum_of_its_terms(triples):
    got = _sum3(*map(np.array, zip(*triples))).tolist()
    assert [x.hex() for x in got] == [math.fsum(t).hex() for t in triples]


@pytest.mark.parametrize("a, b, c", [(1e308, 1e308, -1e308), (1.7e308, 1.7e308, 1.7e308),
                                     (-1e308, -1e308, -1e308)])
def test_three_term_sums_that_are_not_finite_take_fsum(monkeypatch, a, b, c):
    # the adder overflows; the step leaves the sum to fsum, which raises
    monkeypatch.setattr(dynamics, "_SUM3_GROUPS", 0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_sum3(np.array([a]), np.array([b]), np.array([c]))).any()
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum([a, b, c])
    if a > 0:  # products are positive: two, and the third as the stimulus term
        net, dst, prod = _scatter([(0.0, [1.0, 2.0]), (c + 0.0, [a, b])], random.Random(0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowError, match="intermediate overflow"):
            _excite(net, dst, prod)
    if a < 0:  # inhibition terms share their gamma's sign
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowError, match="intermediate overflow"):
            _inhibit(np.array([0, 1, 1, 1, 2]), np.array([-1.0, a, b, c, -2.0]))
