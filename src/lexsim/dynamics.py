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

- Excitation: every node starts from its stimulus-only net input s, x + 0.0
  for a stimulus term x = iw*I_rest and 0.0 elsewhere, computed once per
  trial (for finite x, fsum((x,)) equals x + 0.0, and both map -0.0 to
  +0.0). The active entry nodes' products p = w*a are gathered from the
  entry layout (Network.layout, one table row per place, plus
  to_language and from_language), and one stable sort groups them by
  target. A lone product takes one add, s + p; two products where s is
  zero take one add, p1 + p2, formed as (s + p1) + p2, where s + p1 is p1
  exactly. fsum of one or two finite terms with a finite sum is one IEEE
  add: both return the sum rounded to nearest-even, and a zero sum is +0.0
  in both, because p is never -0.0 (w > 0, a > 0). Every other target --
  two products and a stimulus term, or three or more products -- gets
  fsum over its products and s, s left out where it is zero: s differs
  from x only where x is a zero or absent, and a zero term changes neither
  the exact sum nor, next to a product that is not -0.0, the sign of a
  zero sum. fsum decides every sum that is not finite, so a finite sum
  that overflows raises OverflowError as it does in the dense engine (the
  array adds run with numpy's overflow warnings off for that reason). In a
  step of at least _SUM3_GROUPS such targets, those of three terms take
  _sum3 (below). The dense engine builds its links on its own.
- Inhibition: one stable sort groups the active members' terms gamma*a
  by pool. Every sum over them is correctly rounded, so their order does
  not matter. The members of a pool that are not active all get the
  pool's shared sum fsum(terms); an active member gets the sum over the
  other members' terms on its excitatory net, read before the shared
  add. A pool with one active member has shared sum t and exclusion +0.0
  (fsum([t]) and fsum([t, -t])); one with two has shared sum t1 + t2, one
  IEEE add as above, and each member's exclusion is the other term, a
  one-term sum. A term that underflows is -0.0 where fsum would give
  +0.0; the sign does not matter, as the sum is added to a net input that
  is not -0.0. Three members in a step of at least _SUM3_GROUPS such pools
  get _sum3 and, as each exclusion, the add of the other two terms, finite
  where the shared sum is, as the terms share gamma's sign. More members,
  or a sum that is not finite, take the expansion: r_0 = fsum(terms), then
  r_k = fsum(terms + [-r_0, ..., -r_{k-1}]) until r_k == 0.0; the shared
  sum is fsum(expansion) and an exclusion fsum(expansion + [-t]). Each
  r_k is the correctly rounded residual, and every
  residual is an exact multiple of 2**-1074 (the terms and the r_k all
  are), so r_k == 0.0 only when the residual is exactly 0: the expansion
  then sums exactly to the terms, and fsum(expansion + [-t]) is the
  correctly rounded sum over the other members, the double the dense
  engine computes. It stops: each residual is at most half an ulp of the
  r_k before it, so |r_{k+1}| <= 2**-53 * |r_k| and |r_k| < 2**(1024 -
  53*k). r_40 would lie under 2**-1096, below the smallest subnormal, so
  the expansion has at most 40 entries. Each node is in at most one pool
  (Network.pools; the input and language nodes in none; entry place k,
  node first_entry + 5*e + k, fixes it), so the shared sums form one
  table, +0.0 where a pool did not step, and each place whose pool steps
  in some row gets its row's entry in one strided add. A node elsewhere
  keeps its net input, as adding +0.0 would: no net input is -0.0 (s is
  not, products are not, and neither are their sums).
- Three terms: _sum3 is Boldo and Melquiond's adder ("Emulation of FMA
  and correctly rounded sums: proved algorithms using rounding to odd",
  IEEE Trans. Computers 57(4), 2008). TwoSums give a + b + c = th + tl + ul
  exactly; v = RO(tl + ul), rounded to odd from a third TwoSum's error,
  keeps the sticky bit that makes RN(th + v) = RN(a + b + c), fsum's value,
  on subnormals too; a zero sum of terms that are not -0.0 is +0.0. An
  overflow gives inf or NaN, which fsum decides.
- The update rule runs over every node as elementwise float64 ufuncs in
  update_activation's operation order (_update). Each rounds exactly as
  the Python float operation does (numpy does not fuse multiply-add). The
  branch on net > 0.0 is prev - MIN_ACT, then MAX_ACT - prev at the nodes
  (net > 0.0).nonzero() lists, and np.clip, min(max(x, MIN_ACT), MAX_ACT)
  with NaN passed through, picks what the comparisons of update_activation
  pick, NaN included, as Parameters.validate keeps MIN_ACT <= MAX_ACT
  finite (a tie is between equal doubles, as no value is -0.0). The
  decay's prev - rest is 0.0 only where prev == rest (gradual underflow),
  so it also marks touched nodes. Most nodes are quiet: their net input
  is 0.0, their stimulus term, or one add of the shared inhibition to
  either, and no Python code runs for them one by one.

Rows: step_rows steps several trials over one network as the rows of one
flat array (node n of row b at b*N + n) and gives each row the bits a
one-row step gives it. Each elementwise ufunc sees a node with its own
row's operands. A row's links stay in the row, so grouping products by
target groups them by (row, target), and the inhibition groups by (row,
pool); the shared-sum table has one row per row. Each row takes its
inhibition weights from its own parameters (Rows.gammas, network.pool_gamma
per row): a member's term is its row's gamma times its activation, and a
pool whose weight is 0.0 in a row does not step there. Every other field
is shared, so rows stepped together may differ only in ROW_NAMES. fsum
decides every non-finite sum: an overflow in any row still raises.

Bit-identity includes the sign of zero, because no activation is ever
-0.0. Parameters stores every float as value + 0.0, which maps -0.0 to
+0.0 and leaves every other value unchanged, so no rest level and neither
clamp bound is -0.0. The update a + net*d - decay*(a - rest) then cannot
yield -0.0 from an a that is not: in round-to-nearest x + y is -0.0 only
if x and y both are, and x - y only if x is.

Untouched nodes are fixed points. A node that is no target, has no
stimulus term, is in no pool that steps and sits at its rest level r has
net +0.0, and r lies in [MIN_ACT, MAX_ACT], a span Parameters.validate
keeps finite, so d = r - MIN_ACT is finite and >= +0.0, net*d = +0.0,
r + 0.0 = r, decay*(r - r) = +0.0, r - 0.0 = r and the clamp keeps r:
the update maps the node to its own bits. The step computes such nodes
all the same, as the dense engine does, so only the touched_updates
counter depends on this; it counts the other nodes, pools by their masks.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvariantError
from .network import INHIBITED_POOLS, InputWeights, Network, Pool, pool_gamma
from .params import GAMMA_NAMES, TRIAL_NAMES, Parameters


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

    def rows(self, top_k: int | None = None):
        """Expand to (cycle, node_id, pool, language, symbol, activation) rows.

        Row count is exactly cycles x sampled nodes, the nodes whose
        activation exceeded their resting level at any cycle. ``top_k``
        keeps the k nodes with the highest peak activation, for k >= 1.
        """
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        frames = np.reshape(self.frames, (-1, len(self._network)))
        ids = np.flatnonzero((frames > self._network.rest).any(axis=0))
        if top_k is not None and len(ids) > top_k:  # the highest peaks, ties to the lower id
            ids = np.sort(ids[np.argsort(-frames[:, ids].max(axis=0), kind="stable")[:top_k]])
        net = self._network
        picked = [(n, net.pool_of[n].value, net.language_of[n] or "", net.symbol_of[n])
                  for n in ids.tolist()]
        return [(cycle, n, pool, language, symbol, frame[n])
                for cycle, frame in enumerate(self.frames, start=1)
                for n, pool, language, symbol in picked]


class SimulationState:
    """Mutable per-trial state over one immutable network, starting at rest
    with ``input_weights`` (see reset). ``trace`` "full" keeps a Trace of
    every cycle, None keeps none."""

    def __init__(self, network: Network, trace: str | None = "full",
                 input_weights: Mapping[int, float] | None = None):
        if trace not in ("full", None):
            raise ValueError(f"unknown trace mode {trace!r}")
        self.network = network
        self.trace = Trace(network) if trace == "full" else None
        self.reset(input_weights)

    def reset(self, input_weights: Mapping[int, float] | None = None) -> None:
        """Back to rest for a trial with ``input_weights``, any Mapping of id
        to weight kept as given (None: no stimulus): rest activations, cycle
        0, no frames. From its InputWeights arrays, builds the row of
        stimulus-only net input -- iw * I_rest + 0.0 at every weighted node,
        0.0 elsewhere, with the network's I_rest -- and the weighted mask."""
        network = self.network
        self.activation: np.ndarray = network.rest.copy()
        self.input_weights = {} if input_weights is None else input_weights
        weights = InputWeights.of(self.input_weights)
        self.stimulus = np.zeros(len(network))
        self.stimulus[weights.ids] = weights.weights * network.params.I_rest + 0.0
        self.weighted = np.zeros(len(network), dtype=bool)
        self.weighted[weights.ids] = True
        self.scan: tuple[Scan, int] | None = None  # (Scan, row) while run_rows observes rows
        self.cycle = 0
        self.counters = {"active_node_updates": 0, "touched_updates": 0}
        if self.trace is not None:
            self.trace.frames.clear()

    @property
    def active_by_pool(self) -> dict[Pool, list[int]]:
        """The active nodes (activation > 0) of each inhibited pool, in id order."""
        active = self.activation > 0.0
        return {pool: (active & members).nonzero()[0].tolist()
                for pool, members in self.network.members.items()}


def set_stimulus(state: SimulationState, network: Network, stimulus: str) -> None:
    """Reset the trial: rest activations, no frames, the stimulus's weights."""
    state.reset(network.input_weights(stimulus))


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


# the trial parameters in which the rows of one step may differ: the
# inhibition weights (network.pool_gamma)
ROW_NAMES = GAMMA_NAMES + ("SS_multiplier",)


class Rows:
    """Trials stepped together by step_rows, as the rows of flat buffers:
    row b (node n at b*N + n) belongs to ``states[b]``, whose activation is
    a view of its row, which each step overwrites. ``params`` gives every
    field but the inhibition weights; ``gammas[b, k]`` is row b's weight for
    INHIBITED_POOLS[k], and column 3 is 0.0 for the nodes in no pool. The
    rows of stimulus-only net inputs and stimulus-weighted masks are the
    states' own (SimulationState.reset), built with the network's I_rest,
    so ConfigError rejects parameters with another. keep drops rows; with
    several, ``rejected[b]`` masks the ids row b's monitor rejected."""

    def __init__(self, network: Network, states: list[SimulationState],
                 params: Sequence[Parameters]):
        self.network, self.states, self.params = network, states, params[0]
        if self.params.I_rest != network.params.I_rest:
            raise ConfigError(f"I_rest is fixed by the network ({network.params.I_rest!r}); "
                              f"a step cannot set it to {self.params.I_rest!r}")
        if len(states) == 1:
            state, = states
            self.activation, self.stimulus, self.weighted = (state.activation, state.stimulus,
                                                             state.weighted)
        else:
            self.activation = np.concatenate([state.activation for state in states])
            self.stimulus = np.concatenate([state.stimulus for state in states])
            self.weighted = np.concatenate([state.weighted for state in states])
            self.rejected = np.zeros((len(states), len(network)), dtype=bool)
            self._share()
        self.gammas = np.array([[pool_gamma(p, pool) for pool in INHIBITED_POOLS] + [0.0]
                                for p in params])

    def _share(self) -> None:
        for state, row in zip(self.states, self.activation.reshape(len(self.states), -1)):
            state.activation = row

    def keep(self, rows: list[int]) -> None:
        """Keep only ``rows``, in that order."""
        shape = (len(self.states), -1)
        self.states = [self.states[b] for b in rows]
        self.activation = self.activation.reshape(shape)[rows].ravel()
        self.stimulus = self.stimulus.reshape(shape)[rows].ravel()
        self.weighted = self.weighted.reshape(shape)[rows].ravel()
        self.rejected = self.rejected[rows]
        self.gammas = self.gammas[rows]
        self._share()


class Scan(dict):
    """After a step of several rows, ``scan[pool, threshold]`` is (ids, bounds,
    found): row b's members of the pool at or above the threshold, in id
    order, are ids[bounds[b]:bounds[b + 1]], and found[b] is whether one is
    not in Rows.rejected; scanned on first request over the flat buffer."""

    def __init__(self, rows: Rows):
        self.activation = rows.activation.reshape(len(rows.states), -1)
        self.members, self.rejected = rows.network.members, rows.rejected.ravel()

    def __missing__(self, key: tuple[Pool, float]) -> tuple[list[int], list[int], np.ndarray]:
        pool, threshold = key
        hits = self.activation >= threshold
        hits &= self.members[pool]
        n = hits.shape[1]
        ids = np.flatnonzero(hits)
        bounds = ids.searchsorted(np.arange(0, hits.size + 1, n))
        found = np.zeros(len(hits), dtype=bool)  # the rows of the hits not rejected
        found[ids[~self.rejected[ids]] // n] = True
        return self.setdefault(key, ((ids % n).tolist(), bounds.tolist(), found))


def _woken(scan: Scan, watches: dict, codes: np.ndarray) -> np.ndarray:
    """Each row's flag: its watch (``watches`` maps each to a code) is None or found a candidate."""
    woken = np.zeros(len(codes), dtype=bool)
    for watch, code in watches.items():
        rows = codes == code
        if watch is not None and rows.any():
            rows &= np.logical_or.reduce([scan[key][2] for key in watch])
        woken |= rows
    return woken


def _groups(keys: np.ndarray):
    """One stable sort of ``keys``: the order, and each run of equal keys'
    key, first position, length, and whether it has exactly two."""
    order = keys.argsort(kind="stable")
    keys = keys[order]
    # where each run starts, then the end (with no keys, only the end)
    bounds = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    bounds = bounds.nonzero()[0]
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    return order, keys[starts], starts, sizes, sizes == 2


def _two_sum(a: np.ndarray, b: np.ndarray):
    """(s, e): s = RN(a + b) and e = a + b - s, exact without overflow (Knuth's TwoSum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _sum3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """RN(a + b + c) elementwise, or a value that is not finite (module docstring)."""
    uh, ul = _two_sum(a, b)
    th, tl = _two_sum(c, uh)
    v, e = _two_sum(tl, ul)
    bits, inexact = v.view(np.int64), e != 0.0
    bits -= inexact & ((bits ^ e.view(np.int64)) < 0)  # toward zero where inexact,
    bits |= inexact  # then the last bit set: v = RO(tl + ul)
    return th + v


# _excite, _inhibit: slow groups from which three-term ones take _sum3. Median
# µs per call at 8, 16, 32, 64, 128, 256 slow groups, 2-vCPU Xeon VM: _excite
# 28 34 48 75 132 272 by fsum, 54 59 60 67 82 138 with _sum3; _inhibit 46 74
# 128 236 449 930 and 55 58 60 64 73 89. One-row steps have at most 49 and 3
# (mixed_1k, wt_10k); a criterion-7 grid step a median of 407 and 27.
_SUM3_GROUPS = 64


def _excite(net: np.ndarray, dst: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Add the products ``prod`` to their targets ``dst`` (any order) in ``net``, which
    holds the stimulus-only net inputs (each sum: module docstring); return the targets."""
    order, targets, starts, sizes, pairs = _groups(dst)
    prod = prod[order]
    stim = net[targets]
    sums = stim + prod[starts]
    sums += prod[starts + pairs] * pairs  # the second product of a pair, else 0.0
    count = sizes + (stim != 0.0)  # terms
    slow = ((count > 2) | ~np.isfinite(sums)).nonzero()[0]
    if slow.size >= _SUM3_GROUPS:  # three terms: two products and a third or s
        three = count[slow] == 3
        i = starts[slow[three]]
        sums[slow[three]] = _sum3(prod[i], prod[i + 1], np.where(
            sizes[slow[three]] == 3, prod.take(i + 2, mode="clip"), stim[slow[three]]))
        slow = slow[~three | ~np.isfinite(sums[slow])]
    if slow.size:  # only the slow groups' products, in order, as Python floats
        flags = np.zeros(len(sizes), dtype=bool)
        flags[slow] = True
        terms = prod[flags.repeat(sizes)].tolist()
        sizes = sizes[slow].tolist()
        sums[slow] = [math.fsum(terms[e - k:e] + [s] if s else terms[e - k:e]) for e, k, s
                      in zip(itertools.accumulate(sizes), sizes, stim[slow].tolist())]
    net[targets] = sums
    return targets


def _inhibit(keys: np.ndarray, terms: np.ndarray):
    """Inhibition steps over the terms gamma*a of the active members,
    grouped by ``keys`` (any order). Returns the order that groups them,
    each group's key and shared sum (module docstring), and each member's
    exclusion sum, in that order."""
    order, groups, starts, sizes, pairs = _groups(keys)
    terms = terms[order]
    one = starts[pairs]
    two = one + 1
    sums = terms[starts]
    sums[pairs] += terms[two]
    exclusion = np.zeros(len(terms))
    exclusion[one] = terms[two]
    exclusion[two] = terms[one]
    slow = ((sizes > 2) | ~np.isfinite(sums)).nonzero()[0]
    if slow.size >= _SUM3_GROUPS:  # three members: each exclusion is one add
        three = sizes[slow] == 3
        i = starts[slow[three]]
        t = terms[i], terms[i + 1], terms[i + 2]
        sums[slow[three]] = _sum3(*t)
        exclusion[i], exclusion[i + 1], exclusion[i + 2] = t[1] + t[2], t[0] + t[2], t[0] + t[1]
        slow = slow[~three | ~np.isfinite(sums[slow])]
    if slow.size:
        values = terms.tolist()
        for g, i, k in zip(slow.tolist(), starts[slow].tolist(), sizes[slow].tolist()):
            expansion = _expansion(values[i:i + k])
            sums[g] = math.fsum(expansion)
            others = expansion + [0.0]  # fsum(expansion + [-t]) for each term t
            excluded = []
            for t in values[i:i + k]:
                others[-1] = -t
                excluded.append(math.fsum(others))
            exclusion[i:i + k] = excluded
    return order, groups, sums, exclusion


def _language_links(network: Network, row: np.ndarray, node: np.ndarray, place: np.ndarray,
                    acts: np.ndarray, dst: np.ndarray, prod: np.ndarray):
    """``dst`` and ``prod`` with the products along the language links."""
    n, first = len(network), network.first_entry
    base = row * n
    dsts, prods = [dst], [prod]
    for k, l_id, w in network.to_language:  # place k's nodes to their language node
        at = place == k
        dsts.append(base[at] + l_id)
        prods.append(w * acts[at])
    for l_id, k, w in network.from_language:  # a language node to place k's nodes
        at = node == l_id
        dsts.append((base[at][:, None] + np.arange(first + k, n, 5)).ravel())
        prods.append(np.repeat(w * acts[at], (n - first) // 5))
    return np.concatenate(dsts), np.concatenate(prods)


def _update(prev: np.ndarray, net: np.ndarray, rest: np.ndarray, params: Parameters) -> np.ndarray:
    """update_activation elementwise on rows of activations ``prev``, written in place, with net
    inputs ``net`` (spent) and one row's ``rest`` (module docstring). Returns prev != rest."""
    min_act, max_act = params.MIN_ACT, params.MAX_ACT
    new = prev - min_act
    up = (net > 0.0).nonzero()[0]
    new[up] = max_act - prev[up]
    new *= net
    new += prev
    np.subtract(prev.reshape(-1, len(rest)), rest, out=net.reshape(-1, len(rest)))  # the decay
    away = net != 0.0
    net *= params.DECAY_RATE
    new -= net
    np.clip(new, min_act, max_act, out=prev)
    return away


def step(state: SimulationState, network: Network, params: Parameters) -> SimulationState:
    """Advance one cycle: step_rows on one row."""
    step_rows(Rows(network, [state], [params]))
    return state


def step_rows(rows: Rows) -> None:
    """Advance each row one cycle, writing its activations into
    rows.activation, of which every state's activation is a view. A node is
    touched -- counted in its row's touched_updates, a Python int -- when it
    is away from its rest level, stimulus-weighted, an active node's target,
    or a member of a pool that steps (module docstring)."""
    network, params, states = rows.network, rows.params, rows.states
    n, count = len(network), len(states)
    layout, pools = network.layout, network.pools
    prev = rows.activation
    ids = (prev > 0.0).nonzero()[0]
    acts = prev[ids]
    row, node = np.divmod(ids, n)
    place = layout.place[node]
    with np.errstate(over="ignore", invalid="ignore"):  # fsum decides what is not finite
        # phase 1: excitation. Each active entry node's products go to the
        # targets at its place's offsets; every target starts from its
        # stimulus-only net input
        links = layout.links.take(place, axis=0)
        dst = (ids[:, None] + layout.offsets.take(place, axis=0))[links]
        prod = (layout.weights.take(place, axis=0) * acts[:, None])[links]
        if network.to_language or network.from_language:
            dst, prod = _language_links(network, row, node, place, acts, dst, prod)
        net = rows.stimulus.copy()
        targets = _excite(net, dst, prod)

        # phase 2: one inhibition step per row and pool with a nonzero gamma
        # and an active member in the row. A stepping pool's members get
        # its row's shared sum, and the active members their exclusion sums
        key = pools[node]
        key += 4 * row  # row and pool: a flat index of rows.gammas
        gamma = rows.gammas.take(key)
        inhibited = gamma.nonzero()[0]
        order, groups, sums, exclusion = _inhibit(key[inhibited],
                                                  gamma[inhibited] * acts[inhibited])
    stepped = np.zeros((count, 4), dtype=bool)
    stepped.ravel()[groups] = True
    every, some = stepped.all(axis=0).tolist(), stepped.any(axis=0).tolist()  # per pool
    if groups.size:
        members = ids[inhibited[order]]
        own = net[members]
        own += exclusion
        shared = np.zeros((count, 4))
        shared.ravel()[groups] = sums
        grid, first = net.reshape(count, n), network.first_entry
        for k, pool in enumerate(pools[first:first + 5].tolist()):  # entry place k
            if some[pool]:
                grid[:, first + k::5] += shared[:, pool, None]
        net[members] = own

    # phase 3, then touched; a uint32 sum counts a row faster than count_nonzero's intp one
    marks = _update(prev, net, network.rest, params).reshape(count, n)
    marks |= rows.weighted.reshape(count, n)
    marks.ravel()[targets] = True
    for k, pool in enumerate(INHIBITED_POOLS):
        if every[k]:
            marks |= network.members[pool]
        elif some[k]:
            marks[stepped[:, k]] |= network.members[pool]
    touched = marks.sum(axis=1, dtype=np.uint32)
    active = np.bincount(row, minlength=count)
    for state, a, t in zip(states, active.tolist(), touched.tolist()):
        counters = state.counters
        counters["active_node_updates"] += a
        counters["touched_updates"] += t
        state.cycle += 1


# run_rows: nodes in a chunk of rows. On a 2-vCPU Xeon virtual machine, 120
# lexical decisions on a 1,000-pair lexicon (5,003 nodes) in one call took
# 0.37-0.49 s in chunks of 2**16, 2**18 or 2**20 nodes (13, 52 or 209
# rows), the three within noise of each other, and 0.59-0.75 s one row at
# a time. The smallest bound keeps a step's full-width temporaries smallest
# and still holds a 20-point grid iteration on the 73-node homograph
# network (280 rows, 20,440 nodes) in one chunk.
_CHUNK_ELEMENTS = 2**16


def run(network: Network, stimulus: str, monitor, params: Parameters | None = None,
        trace: str | None = "full", step_fn=None,
        input_weights: Mapping[int, float] | None = None):
    """Simulate one trial: run_rows on one row, advanced by ``step_fn(state, network,
    params)`` (None: this module's ``step``, looked up at call time so a wrapper on
    ``dynamics.step`` sees every cycle), which steps state.activation in place.
    Returns (trace, outcome)."""
    step_fn = step_fn or step

    def step_row(rows: Rows) -> None:
        step_fn(rows.states[0], network, rows.params)

    return run_rows(network, [(stimulus, monitor, input_weights)], params, trace, step_row)[0]


def run_rows(network: Network, trials, params: Parameters | Sequence[Parameters] | None = None,
             trace: str | None = None, step_fn=None) -> list:
    """Simulate independent trials, (stimulus, monitor, input weights or
    None) triples, as Rows that ``step_fn(rows)`` (None: step_rows)
    advances together, in chunks of at most _CHUNK_ELEMENTS nodes and at
    least one row. ``params`` is one Parameters for every row or one per
    trial (None: the network's). Returns each trial's (trace, outcome), in
    order; a trace records each cycle after its step, None when ``trace``
    is. After each step ``monitor.observe(state, network)`` gives a row's
    outcome or None; ``monitor.timeout`` gives it once max_cycles pass. A
    row with its outcome drops out, after check_invariants. Several rows'
    monitors read a Scan of rows.activation, and only _woken rows are
    observed (a monitor's ``watch``; its ``rejected`` ids wake no row,
    lexsim.tasks). ConfigError comes before the first step for a monitor
    language the network lacks, a field of a row's parameters the network
    fixed (check_trial_params), or rows that differ outside ROW_NAMES."""
    for _stimulus, monitor, _weights in trials:
        for language in monitor.languages:
            if language not in network.languages:
                raise ConfigError(f"unknown language tag {language!r}; "
                                  f"network has {network.languages}")
    row_params = _row_params(network, params, len(trials))
    step_fn = step_fn or step_rows
    results: list = [None] * len(trials)
    chunk = max(1, _CHUNK_ELEMENTS // len(network))
    for first in range(0, len(trials), chunk):
        live = list(range(first, min(first + chunk, len(trials))))
        rows = Rows(network, [_start(network, trials[i], trace) for i in live],
                    row_params[first:first + chunk])
        watches: dict = {}  # each distinct watch in the chunk: its code
        codes = np.array([watches.setdefault(getattr(trials[i][1], "watch", None), len(watches))
                          for i in live])
        while live:
            step_fn(rows)
            if trace is not None:
                for state in rows.states:
                    state.trace.record(state)
            scan = Scan(rows) if len(live) > 1 else None
            woken = None if scan is None else _woken(scan, watches, codes)
            last = rows.states[0].cycle >= rows.params.max_cycles  # rows step together
            done = set()
            for b in range(len(live)) if last or scan is None else woken.nonzero()[0].tolist():
                i, state = live[b], rows.states[b]
                monitor = trials[i][1]
                state.scan = None if scan is None else (scan, b)
                outcome = monitor.observe(state, network) if scan is None or woken[b] else None
                if outcome is None and last:
                    outcome = monitor.timeout(state, network)
                state.scan = None
                if outcome is not None:
                    check_invariants(state, rows.params)
                    results[i] = (state.trace, outcome)
                    done.add(b)
                elif scan is not None:  # observe may have changed the watch and rejected ids
                    codes[b] = watches.setdefault(getattr(monitor, "watch", None), len(watches))
                    if rejected := getattr(monitor, "rejected", None):
                        rows.rejected[b, list(rejected)] = True
            if done:
                kept = [b for b in range(len(live)) if b not in done]
                live = [live[b] for b in kept]
                codes = codes[kept]
                if kept:
                    rows.keep(kept)
    return results


def _start(network: Network, trial, trace: str | None) -> SimulationState:
    """A trial's state at rest, with its input weights."""
    stimulus, _monitor, weights = trial
    return SimulationState(network, trace,
                           network.input_weights(stimulus) if weights is None else weights)


def _row_params(network: Network, params, count: int) -> list[Parameters]:
    """One checked Parameters per row: ``params`` for all, or one each."""
    if params is None or isinstance(params, Parameters):
        return [check_trial_params(network, params)] * count
    params = list(params)
    if len(params) != count:
        raise ConfigError(f"{len(params)} parameter sets for {count} trials")
    for p in {id(p): p for p in params}.values():
        check_trial_params(network, p)
        for name, shared in params[0].as_dict().items():
            if name not in ROW_NAMES and getattr(p, name) != shared:
                raise ConfigError(f"rows stepped together may differ only in "
                                  f"{', '.join(ROW_NAMES)}; {name} is {shared!r} and "
                                  f"{getattr(p, name)!r}")
    return params


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
