"""Cycle engine: two-phase activation propagation with an ad-hoc lateral
inhibition step over the active set, and the one trial loop every engine
and caller shares.

Every cycle reads only the previous cycle's snapshot, so results are
independent of node iteration order. Bit-identity with the dense reference
engine rests on correct rounding: every per-node net input is one
math.fsum over a list of weight-times-activation products, and fsum
returns the exactly rounded value of the true sum of its inputs whatever
their order. This engine scatters products from active sources into each
target's list; the dense engine gathers them over each node's incoming
connections. The two orders differ, but the lists hold the same multiset
of products, so the sums -- and everything computed from them -- agree
bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable

from .network import INHIBITED_POOLS, Network, Pool, pool_gamma
from .params import Parameters


class Trace:
    """Per-cycle activation samples.

    mode "sparse" stores only nodes away from their resting level, "full"
    stores the complete activation vector per cycle, None records nothing
    (benchmark runs).
    """

    def __init__(self, network: Network, mode: str | None = "sparse"):
        if mode not in ("sparse", "full", None):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self._network = network
        self.frames: list = []

    def record(self, state: "SimulationState") -> None:
        if self.mode is None:
            return
        if self.mode == "full":
            self.frames.append(list(state.activation))
        else:
            act = state.activation
            self.frames.append({n: act[n] for n in state.off_rest})

    def __len__(self) -> int:
        return len(self.frames)

    def activation_at(self, cycle: int, node_id: int) -> float:
        """Activation of a node after the given 1-based cycle."""
        frame = self.frames[cycle - 1]
        if self.mode == "full":
            return frame[node_id]
        return frame.get(node_id, self._network.nodes[node_id].rest)

    def sampled_nodes(self) -> list[int]:
        """Nodes whose activation exceeded their resting level at any cycle."""
        nodes = self._network.nodes
        seen: set[int] = set()
        for frame in self.frames:
            items = enumerate(frame) if self.mode == "full" else frame.items()
            for n, a in items:
                if a > nodes[n].rest:
                    seen.add(n)
        return sorted(seen)

    def rows(self, node_ids: Iterable[int] | None = None, top_k: int | None = None):
        """Expand to (cycle, node_id, pool, language, symbol, activation) rows.

        Row count is exactly cycles x sampled nodes. ``top_k`` keeps the k
        nodes with the highest peak activation.
        """
        ids = list(node_ids) if node_ids is not None else self.sampled_nodes()
        if top_k is not None and len(ids) > top_k:
            peak = {n: max(self.activation_at(c, n) for c in range(1, len(self.frames) + 1))
                    for n in ids}
            ids = sorted(sorted(ids, key=lambda n: -peak[n])[:top_k])
        nodes = self._network.nodes
        out = []
        for cycle in range(1, len(self.frames) + 1):
            for n in ids:
                node = nodes[n]
                out.append((cycle, n, node.pool.value, node.language or "",
                            node.symbol, self.activation_at(cycle, n)))
        return out


class SimulationState:
    """Mutable per-trial state over one immutable network."""

    def __init__(self, network: Network, trace: str | None = "sparse"):
        self.network = network
        self.activation: list[float] = list(network.rest_levels)
        self.active: set[int] = {n for n, a in enumerate(self.activation) if a > 0.0}
        self.active_by_pool: dict[Pool, set[int]] = {
            pool: {n for n in self.active if network.pool_of[n] is pool}
            for pool, _g in INHIBITED_POOLS}
        self.off_rest: set[int] = set()
        self.input_weights: dict[int, float] = {}
        self.cycle = 0
        self.counters = {"active_node_updates": 0, "touched_updates": 0}
        self.trace = Trace(network, trace)

    def recomputed_active(self) -> set[int]:
        """Active set derived from scratch; used to check the incremental one."""
        return {n for n, a in enumerate(self.activation) if a > 0.0}


def set_stimulus(state: SimulationState, network: Network, stimulus: str) -> None:
    """Reset the trial: rest activations, cleared active set, fresh weights."""
    state.input_weights = network.input_weights(stimulus)
    state.activation = list(network.rest_levels)
    state.active = {n for n, a in enumerate(state.activation) if a > 0.0}
    for pool, _gamma in INHIBITED_POOLS:
        state.active_by_pool[pool] = {n for n in state.active
                                      if network.pool_of[n] is pool}
    state.off_rest = set()
    state.cycle = 0
    state.counters = {"active_node_updates": 0, "touched_updates": 0}
    state.trace.frames.clear()


def apply_lateral_inhibition(node_id: int,
                             pool_active: Iterable[tuple[int, float]],
                             gamma: float) -> float:
    """Inhibitory input from same-pool active nodes, excluding the node itself."""
    return math.fsum(gamma * a for m, a in pool_active if m != node_id)


def update_activation(a: float, net: float, rest: float, params: Parameters) -> float:
    """Interactive-activation update, clamped to [MIN_ACT, MAX_ACT]."""
    if net > 0.0:
        a_new = a + net * (params.MAX_ACT - a) - params.DECAY_RATE * (a - rest)
    else:
        a_new = a + net * (a - params.MIN_ACT) - params.DECAY_RATE * (a - rest)
    if a_new > params.MAX_ACT:
        return params.MAX_ACT
    if a_new < params.MIN_ACT:
        return params.MIN_ACT
    return a_new


def step(state: SimulationState, network: Network, params: Parameters) -> SimulationState:
    """Advance one cycle: net inputs, lateral inhibition, activation update.

    Only nodes that can change are updated: targets of active nodes'
    connections, stimulus-weighted orthographic nodes, members of a pool
    with an active inhibition step, and nodes away from their rest level.
    Every other node is a fixed point of the update rule.
    """
    prev = state.activation
    rests = network.rest_levels
    pool_of = network.pool_of
    state.counters["active_node_updates"] += len(state.active)

    # phase 1: excitation scattered from active sources (reads snapshot only)
    contributions: dict[int, list[float]] = {}
    for src in state.active:
        a = prev[src]
        for dst, w in network.out[src]:
            contributions.setdefault(dst, []).append(w * a)
    i_rest = params.I_rest
    for o_id, iw in state.input_weights.items():
        contributions.setdefault(o_id, []).append(iw * i_rest)

    # phase 2: one inhibition step per pool with a nonzero gamma
    pool_steps: dict[Pool, tuple[float, list[tuple[int, float]], float]] = {}
    for pool, _gamma_name in INHIBITED_POOLS:
        gamma = pool_gamma(params, pool)
        members = state.active_by_pool[pool]
        if gamma == 0.0 or not members:
            continue
        pairs = [(m, prev[m]) for m in members]
        shared = apply_lateral_inhibition(-1, pairs, gamma)
        pool_steps[pool] = (gamma, pairs, shared)

    touched = set(contributions)
    touched |= state.off_rest
    for pool in pool_steps:
        touched.update(state.active_by_pool[pool])
    n_touched = len(touched)

    # phase 3: activation update from the snapshot
    new_act = list(prev)
    active = state.active
    by_pool = state.active_by_pool
    off_rest = state.off_rest
    min_act, max_act, decay = params.MIN_ACT, params.MAX_ACT, params.DECAY_RATE
    fsum = math.fsum

    # fast path: pool members still at rest with no excitatory input receive
    # only the shared inhibition term; they cannot cross zero, so only the
    # off-rest bookkeeping can change. Arithmetic matches update_activation's
    # net <= 0 branch exactly (the decay term is identically zero at rest).
    for pool, (gamma, pairs, shared) in pool_steps.items():
        memo: dict[float, float] = {}
        for n in network.pool_ids[pool]:
            if n in touched:
                continue
            n_touched += 1
            rest = rests[n]
            a_new = memo.get(rest)
            if a_new is None:
                a_new = rest + shared * (rest - min_act) - decay * (rest - rest)
                if a_new < min_act:
                    a_new = min_act
                memo[rest] = a_new
            if a_new != rest:
                new_act[n] = a_new
                off_rest.add(n)

    for n in touched:
        prods = contributions.get(n)
        net = fsum(prods) if prods else 0.0
        step_info = pool_steps.get(pool_of[n])
        if step_info is not None:
            gamma, pairs, shared = step_info
            if n in by_pool[pool_of[n]]:
                net = net + apply_lateral_inhibition(n, pairs, gamma)
            else:
                net = net + shared
        a = prev[n]
        rest = rests[n]
        # inlined update_activation; keep in sync with that function
        if net > 0.0:
            a_new = a + net * (max_act - a) - decay * (a - rest)
        else:
            a_new = a + net * (a - min_act) - decay * (a - rest)
        if a_new > max_act:
            a_new = max_act
        elif a_new < min_act:
            a_new = min_act
        new_act[n] = a_new
        now_active = a_new > 0.0
        if now_active != (a > 0.0):
            pool_set = by_pool.get(pool_of[n])
            if now_active:
                active.add(n)
                if pool_set is not None:
                    pool_set.add(n)
            else:
                active.discard(n)
                if pool_set is not None:
                    pool_set.discard(n)
        if a_new != rest:
            off_rest.add(n)
        else:
            off_rest.discard(n)

    state.counters["touched_updates"] += n_touched
    state.activation = new_act
    state.cycle += 1
    state.trace.record(state)
    return state


def run(network: Network, stimulus: str, monitor, params: Parameters | None = None,
        trace: str | None = "sparse", step_fn=None):
    """Simulate one trial: set the stimulus, cycle until the task monitor
    decides or the cycle limit is reached. Returns (trace, outcome).

    ``step_fn(state, network, params)`` advances one cycle; None means this
    module's ``step``, looked up at call time so a wrapper installed on
    ``dynamics.step`` sees every cycle.
    """
    params = params or network.params
    step_fn = step_fn or step
    state = SimulationState(network, trace=trace)
    set_stimulus(state, network, stimulus)
    outcome = None
    while state.cycle < params.max_cycles:
        step_fn(state, network, params)
        outcome = monitor.observe(state, network)
        if outcome is not None:
            break
    if outcome is None:
        outcome = monitor.timeout(state, network)
    return state.trace, outcome
