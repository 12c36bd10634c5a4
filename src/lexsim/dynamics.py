"""Cycle engine: two-phase activation propagation with lateral inhibition
over the active set, and the one trial loop every engine and caller shares.

Every cycle reads only the previous cycle's snapshot, so results are
independent of node iteration order. Bit-identity with the dense reference
engine rests on correct rounding. In both engines a node's net input is its
excitatory sum plus its inhibitory sum, one IEEE add, and each sum is the
exactly rounded value of its weight-times-activation products, as
math.fsum returns it whatever their order. The dense engine gathers each
node's products into one fsum per sum. This engine computes the same
values over numpy arrays:

- Excitation: a node with no product gets 0.0; a node whose only product
  is its stimulus term x = iw*I_rest gets x + 0.0, computed once per trial
  over all such nodes (for finite x, fsum((x,)) equals x + 0.0, and both
  map -0.0 to +0.0); every target of an active source gets fsum over its
  products.
- Inhibition: the members of a pool that are not active all get the same
  fsum over the active members' terms gamma*a, added through the pool's
  index array. An active member gets fsum(expansion + [-gamma*a_m]). The
  expansion is built by repeated fsum: r_0 = fsum(terms), then
  r_k = fsum(terms + [-r_0, ..., -r_{k-1}]) until r_k == 0.0. Each r_k is
  the correctly rounded residual, and every residual is an exact multiple
  of 2**-1074 (the terms and the r_k all are), so r_k == 0.0 only when the
  residual is exactly 0: the expansion then sums exactly to the terms, and
  fsum(expansion + [-t]) is the correctly rounded sum over the other
  members, the double the dense engine computes. It stops: each residual
  is at most half an ulp of the r_k before it, so |r_{k+1}| <= 2**-53 *
  |r_k| and |r_k| < 2**(1024 - 53*k). r_40 would lie under 2**-1096,
  below the smallest subnormal, so the expansion has at most 40 entries.
- The add and the update rule run as elementwise float64 ufuncs in
  update_activation's operation order; none takes a where= mask. Each
  rounds exactly as the Python float operation does (numpy does not fuse
  multiply-add). The branch on net > 0.0 is np.where over both
  differences, the clamps are np.minimum then np.maximum, and untouched
  nodes take prev back through np.where. min/max pick what the
  comparisons of update_activation pick, NaN activations included (a tie
  is between equal doubles, as no value is -0.0), except at a NaN bound,
  where the comparison never fires and min/max would return NaN;
  Parameters.validate rejects non-finite MIN_ACT and MAX_ACT.
  Most nodes are quiet: their net input is that one add of the shared
  inhibition to 0.0 or to their stimulus term, and no Python code runs for
  them one by one.

Bit-identity includes the sign of zero, because no activation is ever
-0.0. Parameters stores every float as value + 0.0, which maps -0.0 to
+0.0 and leaves every other value unchanged, so no rest level and neither
clamp bound (MIN_ACT, MAX_ACT = -0.0 clamp to +0.0) is -0.0. The update
a + net*d - decay*(a - rest) then cannot yield -0.0 from an a that is not:
in round-to-nearest x + y is -0.0 only if x and y both are, and x - y only
if x is. So a node at its rest level holds that level's exact bits, and
the update rule maps it to itself: the nodes this engine leaves untouched
hold what the dense engine recomputes for them.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .network import INHIBITED_POOLS, Network, Pool, pool_gamma
from .params import Parameters


class Trace:
    """Per-cycle activation samples.

    mode "sparse" stores only nodes away from their resting level, "full"
    stores the complete activation vector per cycle, None records nothing
    (run never calls record then). Frames hold Python floats.
    """

    def __init__(self, network: Network, mode: str | None = "sparse"):
        if mode not in ("sparse", "full", None):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self._network = network
        self.frames: list = []

    def record(self, state: "SimulationState") -> None:
        act = state.activation
        if self.mode == "full":
            self.frames.append(act.tolist())
        else:
            off_rest = np.flatnonzero(act != self._network.rest)
            self.frames.append(dict(zip(off_rest.tolist(), act[off_rest].tolist())))

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
    """Mutable per-trial state over one immutable network, starting at rest."""

    def __init__(self, network: Network, trace: str | None = "sparse"):
        self.network = network
        self.trace = Trace(network, trace)
        self.reset()

    def reset(self) -> None:
        """Back to rest: rest activations, no stimulus, cycle 0, no frames."""
        network = self.network
        self.activation: np.ndarray = network.rest.copy()
        self.active: set[int] = set(np.flatnonzero(network.rest > 0.0).tolist())
        nodes = network.nodes
        self.active_by_pool: dict[Pool, set[int]] = {
            pool: {n for n in self.active if nodes[n].pool is pool}
            for pool, _g in INHIBITED_POOLS}
        self.input_weights: dict[int, float] = {}
        self._stimulus_input = None
        self.cycle = 0
        self.counters = {"active_node_updates": 0, "touched_updates": 0}
        self.trace.frames.clear()

    def stimulus_input(self, i_rest: float) -> tuple[np.ndarray, np.ndarray]:
        """(net input, mask) of the stimulus term alone: iw * I_rest + 0.0
        at every stimulus-weighted orthographic node, 0.0 elsewhere. Kept
        for the trial; rebuilt only if I_rest changes."""
        if self._stimulus_input is None or self._stimulus_input[0] != i_rest:
            net = np.zeros(len(self.network))
            mask = np.zeros(len(self.network), dtype=bool)
            ids = list(self.input_weights)
            weights = np.fromiter(self.input_weights.values(), np.float64, len(ids))
            net[ids] = weights * i_rest + 0.0
            mask[ids] = True
            self._stimulus_input = (i_rest, net, mask)
        return self._stimulus_input[1:]


def set_stimulus(state: SimulationState, network: Network, stimulus: str,
                 input_weights: dict[int, float] | None = None) -> None:
    """Reset the trial: rest activations, cleared active set, fresh weights.

    ``input_weights`` are the stimulus's ``network.input_weights``, when the
    caller already has them.
    """
    state.reset()
    state.input_weights = (network.input_weights(stimulus) if input_weights is None
                           else input_weights)


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


def _expansion(terms: list[float]) -> list[float]:
    """Nonzero doubles whose exact sum is the exact sum of ``terms``:
    r_k = fsum(terms + [-r_0, ..., -r_{k-1}]) until r_k == 0.0. The first
    is fsum(terms); finite terms give at most 40 (see the module docstring)."""
    expansion: list[float] = []
    residual = list(terms)
    while r := math.fsum(residual):
        expansion.append(r)
        residual.append(-r)
    return expansion


def step(state: SimulationState, network: Network, params: Parameters) -> SimulationState:
    """Advance one cycle: net inputs, lateral inhibition, activation update.

    A node is touched -- updated and counted -- when it is the target of an
    active node's connection, a stimulus-weighted orthographic node, a
    member of a pool with an active inhibition step, or away from its rest
    level. Every other node is a fixed point of the update rule and keeps
    its activation.
    """
    prev = state.activation
    rest = network.rest
    fsum = math.fsum
    state.counters["active_node_updates"] += len(state.active)
    srcs = list(state.active)
    active_act = dict(zip(srcs, prev[srcs].tolist()))

    # phase 1: excitation. Quiet nodes start from their stimulus-only net
    # input; every target of an active source sums its products and its
    # stimulus term (reads the snapshot only).
    stimulus_net, has_input = state.stimulus_input(params.I_rest)
    net = stimulus_net.copy()
    touched = np.not_equal(prev, rest)
    touched |= has_input
    contributions: dict[int, list[float]] = {}
    for src, a in active_act.items():
        for dst, w in network.out[src]:
            contributions.setdefault(dst, []).append(w * a)
    if contributions:
        weights, i_rest = state.input_weights, params.I_rest
        sums = []
        for dst, prods in contributions.items():
            iw = weights.get(dst)
            if iw is not None:
                prods.append(iw * i_rest)
            sums.append(fsum(prods))
        targets = list(contributions)
        net[targets] = sums
        touched[targets] = True

    # phase 2: one inhibition step per pool with a nonzero gamma and an
    # active member. Every member gets the sum over the active members,
    # each active member the sum over the others, from one expansion.
    for pool, _gamma_name in INHIBITED_POOLS:
        gamma = pool_gamma(params, pool)
        members = state.active_by_pool[pool]
        if gamma == 0.0 or not members:
            continue
        ids = list(members)
        terms = (gamma * prev[ids]).tolist()
        expansion = _expansion(terms)
        own = net[ids]
        in_pool = network.pool_index[pool]
        net[in_pool] += fsum(expansion)
        net[ids] = own + [fsum(expansion + [-t]) for t in terms]
        touched[in_pool] = True

    # phase 3: update_activation elementwise, in its operation order
    max_act, min_act = params.MAX_ACT, params.MIN_ACT
    new = np.where(net > 0.0, max_act - prev, prev - min_act)
    new *= net
    new += prev
    decay = np.subtract(prev, rest)
    decay *= params.DECAY_RATE
    new -= decay
    np.minimum(new, max_act, out=new)
    np.maximum(new, min_act, out=new)
    state.counters["touched_updates"] += int(np.count_nonzero(touched))
    new = np.where(touched, new, prev)

    # only nodes that crossed 0 move between the active sets
    state.activation = new
    active, by_pool, nodes = state.active, state.active_by_pool, network.nodes
    crossed = np.not_equal(prev > 0.0, new > 0.0).nonzero()[0]
    for n, now_active in zip(crossed.tolist(), (new[crossed] > 0.0).tolist()):
        pool_set = by_pool.get(nodes[n].pool)
        if now_active:
            active.add(n)
            if pool_set is not None:
                pool_set.add(n)
        else:
            active.discard(n)
            if pool_set is not None:
                pool_set.discard(n)
    state.cycle += 1
    return state


def run(network: Network, stimulus: str, monitor, params: Parameters | None = None,
        trace: str | None = "sparse", step_fn=None,
        input_weights: dict[int, float] | None = None):
    """Simulate one trial: set the stimulus, cycle until the task monitor
    decides or the cycle limit is reached. Returns (trace, outcome); the
    trace records each cycle after its step, unless ``trace`` is None.

    ``step_fn(state, network, params)`` advances one cycle; None means this
    module's ``step``, looked up at call time so a wrapper installed on
    ``dynamics.step`` sees every cycle. ``input_weights`` are the
    stimulus's ``network.input_weights``, when the caller already has them.
    """
    params = params or network.params
    step_fn = step_fn or step
    state = SimulationState(network, trace=trace)  # at rest, like set_stimulus
    state.input_weights = (network.input_weights(stimulus) if input_weights is None
                           else input_weights)
    outcome = None
    while state.cycle < params.max_cycles:
        step_fn(state, network, params)
        if trace is not None:
            state.trace.record(state)
        outcome = monitor.observe(state, network)
        if outcome is not None:
            break
    if outcome is None:
        outcome = monitor.timeout(state, network)
    return state.trace, outcome
