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

- Excitation: every node starts from its stimulus-only net input, x + 0.0
  for a stimulus term x = iw*I_rest and 0.0 elsewhere, computed once per
  trial (for finite x, fsum((x,)) equals x + 0.0, and both map -0.0 to
  +0.0). A target of one active source adds its product p = w*a to that
  in one vector add. fsum of one or two finite terms with a finite sum is
  one IEEE add: both return the sum rounded to nearest-even, and a zero
  sum is +0.0 in both, because p is never -0.0 (w > 0, a > 0). If any such
  sum is not finite, fsum sums every target again, so a finite sum that
  overflows raises OverflowError as it does in the dense engine. A target
  of two or more active sources gets fsum over its products and x. The
  links follow the entry layout (Network.entry_edges, to_language and
  from_language); the dense engine builds its own from node metadata.
- Inhibition: the excitation loop buckets the active entry nodes by place,
  and a pool's active members are the buckets of its places, not in id
  order. That is safe: every sum over them is an fsum, whose value does
  not depend on the order of its terms, and each member keeps its own
  term. The members of a pool that are not active all get the same
  fsum over the active members' terms gamma*a, added through the pool's
  basic slices (Network.pool_slices). build_network lays out every entry
  as [O_a, P_a, O_b, P_b, S], so a pool is one stride-5 slice per place
  it takes there, and the slices cover each member exactly once. An
  active member gets fsum(expansion + [-gamma*a_m]) on its excitatory net,
  read before the shared adds. The expansion is built by repeated fsum:
  r_0 = fsum(terms), then r_k = fsum(terms + [-r_0, ..., -r_{k-1}]) until
  r_k == 0.0. Each r_k is the correctly rounded residual, and every
  residual is an exact multiple of 2**-1074 (the terms and the r_k all
  are), so r_k == 0.0 only when the residual is exactly 0: the expansion
  then sums exactly to the terms, and fsum(expansion + [-t]) is the
  correctly rounded sum over the other members, the double the dense
  engine computes. It stops: each residual is at most half an ulp of the
  r_k before it, so |r_{k+1}| <= 2**-53 * |r_k| and |r_k| < 2**(1024 -
  53*k). r_40 would lie under 2**-1096, below the smallest subnormal, so
  the expansion has at most 40 entries.
- The add and the update rule run over every node as elementwise float64
  ufuncs in update_activation's operation order. Each rounds exactly as
  the Python float operation does (numpy does not fuse multiply-add). The
  branch on net > 0.0 is prev - MIN_ACT, overwritten by MAX_ACT - prev
  where net > 0.0 (a where= mask: few nodes take that branch), and the
  clamps are np.minimum then np.maximum. min/max pick what the comparisons
  of update_activation pick, NaN activations included (a tie is between
  equal doubles, as no value is -0.0), except at a NaN bound, where the
  comparison never fires and min/max would return NaN;
  Parameters.validate rejects non-finite MIN_ACT and MAX_ACT.
  Most nodes are quiet: their net input is 0.0, their stimulus term, or
  one add of the shared inhibition to either, and no Python code runs for
  them one by one.

Bit-identity includes the sign of zero, because no activation is ever
-0.0. Parameters stores every float as value + 0.0, which maps -0.0 to
+0.0 and leaves every other value unchanged, so no rest level and neither
clamp bound (MIN_ACT, MAX_ACT = -0.0 clamp to +0.0) is -0.0. The update
a + net*d - decay*(a - rest) then cannot yield -0.0 from an a that is not:
in round-to-nearest x + y is -0.0 only if x and y both are, and x - y only
if x is.

Untouched nodes are fixed points. A node that is no target, has no
stimulus term, is in no pool that steps and sits at its rest level r has
net +0.0, and r lies in [MIN_ACT, MAX_ACT], a span Parameters.validate
keeps finite, so d = r - MIN_ACT is finite and >= +0.0, net*d = +0.0,
r + 0.0 = r, decay*(r - r) = +0.0, r - 0.0 = r and the clamps keep r:
the update maps the node to its own bits. The step computes such nodes
all the same, as the dense engine does, so only the touched_updates
counter depends on this; it counts the other nodes.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import ConfigError, InvariantError
from .network import INHIBITED_POOLS, Network, Pool, pool_gamma
from .params import TRIAL_NAMES, Parameters


class Trace:
    """Per-cycle activation samples: the complete activation vector of each
    cycle, as Python floats."""

    def __init__(self, network: Network):
        self._network = network
        self.frames: list[list[float]] = []

    def record(self, state: "SimulationState") -> None:
        self.frames.append(state.activation.tolist())

    def __len__(self) -> int:
        return len(self.frames)

    def sampled_nodes(self) -> list[int]:
        """Nodes whose activation exceeded their resting level at any cycle."""
        frames = np.reshape(self.frames, (-1, len(self._network)))
        return np.flatnonzero((frames > self._network.rest).any(axis=0)).tolist()

    def rows(self, top_k: int | None = None):
        """Expand to (cycle, node_id, pool, language, symbol, activation) rows.

        Row count is exactly cycles x sampled nodes. ``top_k`` keeps the k
        nodes with the highest peak activation, for k >= 1.
        """
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        ids = self.sampled_nodes()
        if top_k is not None and len(ids) > top_k:
            peak = {n: max(frame[n] for frame in self.frames) for n in ids}
            ids = sorted(sorted(ids, key=lambda n: -peak[n])[:top_k])
        nodes = self._network.nodes
        out = []
        for cycle, frame in enumerate(self.frames, start=1):
            for n in ids:
                node = nodes[n]
                out.append((cycle, n, node.pool.value, node.language or "",
                            node.symbol, frame[n]))
        return out


class SimulationState:
    """Mutable per-trial state over one immutable network, starting at rest.
    ``trace`` "full" keeps a Trace of every cycle, None keeps none."""

    def __init__(self, network: Network, trace: str | None = "full"):
        if trace not in ("full", None):
            raise ValueError(f"unknown trace mode {trace!r}")
        self.network = network
        self.trace = Trace(network) if trace == "full" else None
        self.reset()

    def reset(self) -> None:
        """Back to rest: rest activations, no stimulus, cycle 0, no frames."""
        network = self.network
        self.activation: np.ndarray = network.rest.copy()
        self.input_weights: dict[int, float] = {}
        self._stimulus_input = None
        self._touched_by: dict[tuple[Pool, ...], np.ndarray] = {}
        self.cycle = 0
        self.counters = {"active_node_updates": 0, "touched_updates": 0}
        if self.trace is not None:
            self.trace.frames.clear()

    @property
    def active_by_pool(self) -> dict[Pool, list[int]]:
        """The active nodes (activation > 0) of each inhibited pool, in id order."""
        nodes = self.network.nodes
        ids = (self.activation > 0.0).nonzero()[0].tolist()
        return {pool: [n for n in ids if nodes[n].pool is pool]
                for pool in INHIBITED_POOLS}

    def stimulus_input(self, i_rest: float) -> np.ndarray:
        """Net input of the stimulus term alone: iw * I_rest + 0.0 at every
        stimulus-weighted orthographic node, 0.0 elsewhere. Kept for the
        trial; rebuilt only if I_rest changes."""
        if self._stimulus_input is None or self._stimulus_input[0] != i_rest:
            net = np.zeros(len(self.network))
            ids = list(self.input_weights)
            weights = np.fromiter(self.input_weights.values(), np.float64, len(ids))
            net[ids] = weights * i_rest + 0.0
            self._stimulus_input = (i_rest, net)
        return self._stimulus_input[1]

    def touched_by(self, pools: tuple[Pool, ...]) -> np.ndarray:
        """Mask of the stimulus-weighted nodes and the members of ``pools``:
        what a step in which those pools take an inhibition step touches
        whatever the excitation. Kept for the trial, one per pool tuple."""
        mask = self._touched_by.get(pools)
        if mask is None:
            mask = np.zeros(len(self.network), dtype=bool)
            mask[list(self.input_weights)] = True
            for pool in pools:
                for part in self.network.pool_slices[pool]:
                    mask[part] = True
            self._touched_by[pools] = mask
        return mask


def set_stimulus(state: SimulationState, network: Network, stimulus: str) -> None:
    """Reset the trial: rest activations, no frames, fresh weights."""
    state.reset()
    state.input_weights = network.input_weights(stimulus)


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

    Every node is updated. A node is touched -- counted in touched_updates
    -- when it is the target of an active node's connection, a
    stimulus-weighted orthographic node, a member of a pool with an active
    inhibition step, or away from its rest level. Every other node is a
    fixed point of the update rule (module docstring).
    """
    prev = state.activation
    fsum = math.fsum
    srcs = (prev > 0.0).nonzero()[0].tolist()
    state.counters["active_node_updates"] += len(srcs)
    acts = prev[srcs].tolist()
    active_act = dict(zip(srcs, acts))

    # phase 1: excitation. Every node starts from its stimulus-only net
    # input. A target of one active source adds that product to it in one
    # vector add; a target of several takes fsum over its products and its
    # stimulus term. An entry node's targets sit at its place's offsets;
    # the loop also buckets the active entry nodes by place.
    net = state.stimulus_input(params.I_rest).copy()
    first: dict[int, float] = {}
    several: dict[int, list[float]] = {}
    start, entry_edges = network.first_entry, network.entry_edges
    by_place: tuple[list[int], ...] = ([], [], [], [], [])
    heads = bisect.bisect_left(srcs, start)  # the input and language nodes
    for src, a in zip(srcs[heads:], acts[heads:]):
        place = (src - start) % 5
        by_place[place].append(src)
        for offset, w in entry_edges[place]:
            dst = src + offset
            if dst in first:
                several.setdefault(dst, [first[dst]]).append(w * a)
            else:
                first[dst] = w * a
    if network.to_language or network.from_language:
        # language links: a place's nodes and their language's node, both ways
        extra = [(l_id, w * active_act[m])
                 for place, l_id, w in network.to_language for m in by_place[place]]
        extra += [(dst, w * active_act[l_id]) for l_id, place, w in network.from_language
                  if l_id in active_act for dst in range(start + place, len(net), 5)]
        for dst, p in extra:
            if dst in first:
                several.setdefault(dst, [first[dst]]).append(p)
            else:
                first[dst] = p
    targets = np.fromiter(first, np.intp, len(first))
    if first:
        sums = net[targets]
        sums += np.fromiter(first.values(), np.float64, len(first))
        if np.isfinite(sums).all():
            net[targets] = sums
        else:
            # some sum is not finite: fsum decides them all, and raises
            # where a finite sum overflows
            several = {dst: several.get(dst, [p]) for dst, p in first.items()}
    if several:
        weights, i_rest = state.input_weights, params.I_rest
        sums = []
        for dst, prods in several.items():
            iw = weights.get(dst)
            sums.append(fsum(prods if iw is None else prods + [iw * i_rest]))
        net[list(several)] = sums

    # phase 2: one inhibition step per pool with a nonzero gamma and an
    # active member. Every member gets the sum over the active members,
    # each active member the sum over the others, from one expansion.
    stepped, shared, members, exclusion = [], [], [], []
    for pool, parts in network.pool_slices.items():
        gamma = pool_gamma(params, pool)
        if gamma == 0.0:
            continue
        # a pool's slices start at first_entry + each place it takes
        ids = [m for part in parts for m in by_place[part.start - start]]
        if not ids:
            continue
        terms = [gamma * active_act[m] for m in ids]
        expansion = _expansion(terms)
        stepped.append(pool)
        shared.append(fsum(expansion))
        members += ids
        exclusion += [fsum(expansion + [-t]) for t in terms]
    if members:
        own = net[members]
        for pool, inhibition in zip(stepped, shared):
            for part in network.pool_slices[pool]:
                in_part = net[part]
                in_part += inhibition
        own += exclusion
        net[members] = own

    # phase 3: update_activation elementwise, in its operation order, over
    # every node; an untouched node maps to itself (module docstring)
    max_act, min_act = params.MAX_ACT, params.MIN_ACT
    new = prev - min_act
    np.subtract(max_act, prev, out=new, where=net > 0.0)
    new *= net
    new += prev
    decay = np.subtract(prev, network.rest)
    decay *= params.DECAY_RATE
    new -= decay
    np.minimum(new, max_act, out=new)
    np.maximum(new, min_act, out=new)
    touched = np.not_equal(prev, network.rest)
    touched |= state.touched_by(tuple(stepped))
    touched[targets] = True
    state.counters["touched_updates"] += int(np.count_nonzero(touched))

    state.activation = new
    state.cycle += 1
    return state


def run(network: Network, stimulus: str, monitor, params: Parameters | None = None,
        trace: str | None = "full", step_fn=None,
        input_weights: dict[int, float] | None = None):
    """Simulate one trial: set the stimulus, cycle until the task monitor
    decides or the cycle limit is reached. Returns (trace, outcome); the
    trace records each cycle after its step, and is None when ``trace`` is.

    After each step ``monitor.observe(state, network)`` returns the outcome
    or None to go on; ``monitor.timeout(state, network)`` gives it once
    max_cycles pass. run raises ConfigError before the first step if the
    network lacks one of ``monitor.languages``, or if ``params`` sets a
    field the network fixed (check_trial_params).

    ``step_fn(state, network, params)`` advances one cycle; None means this
    module's ``step``, looked up at call time so a wrapper installed on
    ``dynamics.step`` sees every cycle. ``input_weights`` are the
    stimulus's ``network.input_weights``, when the caller already has them.
    """
    for language in monitor.languages:
        if language not in network.languages:
            raise ConfigError(f"unknown language tag {language!r}; "
                              f"network has {network.languages}")
    params = check_trial_params(network, params)
    step_fn = step_fn or step
    state = SimulationState(network, trace=trace)  # at rest: set_stimulus would reset again
    state.input_weights = (network.input_weights(stimulus) if input_weights is None
                           else input_weights)
    outcome = None
    while state.cycle < params.max_cycles:
        step_fn(state, network, params)
        if state.trace is not None:
            state.trace.record(state)
        outcome = monitor.observe(state, network)
        if outcome is not None:
            break
    if outcome is None:
        outcome = monitor.timeout(state, network)
    check_invariants(state, params)
    return state.trace, outcome


def check_trial_params(network: Network, params: Parameters | None) -> Parameters:
    """``params`` (None: the network's); ConfigError if it differs outside TRIAL_NAMES."""
    params = params or network.params
    if params is not network.params:
        for name, built in network.params.as_dict().items():
            if name not in TRIAL_NAMES and getattr(params, name) != built:
                raise ConfigError(f"{name} is fixed by the network ({built!r}); a trial "
                                  f"cannot set it to {getattr(params, name)!r}")
    return params


def check_invariants(state: SimulationState, params: Parameters) -> None:
    """Raise InvariantError unless every activation is finite and inside
    [MIN_ACT, MAX_ACT]. run checks once per trial."""
    act = state.activation
    # NaN fails both comparisons, and the bounds are finite (validate)
    inside = act >= params.MIN_ACT
    inside &= act <= params.MAX_ACT
    if not inside.all():
        n = int(np.argmin(inside))
        raise InvariantError(f"cycle {state.cycle}: node {n} has activation {act.item(n)!r}, "
                             f"outside [{params.MIN_ACT!r}, {params.MAX_ACT!r}]")
