"""Slow reference engine kept for equivalence testing.

The dense engine materialises every same-pool inhibitory connection and
recomputes every node every cycle, and weights its stimulus with the
scalar edit-distance loop below; it exists so the fast active-set engine
and the array input weighting can be checked against it bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationState, run, update_activation
from .errors import ValidationError
from .network import INHIBITED_POOLS, Network, Pool, pool_gamma
from .params import Parameters

DENSE_ENTRY_GUARD = 500


def levenshtein_similarity(a: str, b: str) -> float:
    """Length-normalised edit-distance similarity in [0, 1].

    Unit-cost insert/delete/substitute only; no transposition primitive, so
    a two-letter exchange costs 2.
    """
    if not a or not b:
        raise ValueError("symbols must be non-empty")
    if a == b:
        return 1.0
    # classic two-row DP over the shorter symbol
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for i, cb in enumerate(b, start=1):
        current = [i]
        for j, ca in enumerate(a, start=1):
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    dist = previous[len(a)]
    return 1.0 - dist / max(len(a), len(b))


def input_weight(stimulus: str, ortho_symbol: str, params: Parameters) -> float:
    """Stimulus-to-node weight: IO_multiplier x similarity cubed, 0 below overlap."""
    score = levenshtein_similarity(stimulus, ortho_symbol)
    if score <= 0.0:
        return 0.0
    return params.IO_multiplier * (score * score * score)


def scalar_input_weights(network: Network, stimulus: str) -> dict[int, float]:
    """``network.input_weights(stimulus)``, one orthographic node at a time."""
    if not stimulus:
        raise ValueError("stimulus must be non-empty")
    stimulus = stimulus.upper()
    weights: dict[int, float] = {}
    for o_id in network.pool_ids[Pool.ORTHO]:
        w = input_weight(stimulus, network.nodes[o_id].symbol, network.params)
        if w > 0.0:
            weights[o_id] = w
    return weights


def excitatory_in(network: Network) -> list[list[tuple[int, float]]]:
    """Each node's nonzero excitatory (source id, weight) pairs by source id,
    from node metadata alone: an O or P node links with the other of its
    concept and language, its concept's S node and its language's node,
    both ways, with one alpha per (source, target) pool pair."""
    p, O, P, S, L = network.params, Pool.ORTHO, Pool.PHONO, Pool.SEM, Pool.LANG
    alpha = {(O, P): p.OP_alpha, (P, O): p.PO_alpha, (O, S): p.OS_alpha, (S, O): p.SO_alpha,
             (P, S): p.PS_alpha, (S, P): p.SP_alpha, (O, L): p.OL_alpha, (L, O): p.LO_alpha,
             (P, L): p.PL_alpha, (L, P): p.LP_alpha}
    concepts: dict[int, list] = {}
    for node in network.nodes:
        if node.concept is not None:
            concepts.setdefault(node.concept, []).append(node)
    # candidates: two nodes of one concept and language, or of one concept
    # with its S node; a language node and each node of its language
    pairs = [(u, v) for group in concepts.values() for u in group for v in group
             if u.language == v.language or S in (u.pool, v.pool)]
    pairs += [pair for lang in (network.nodes[i] for i in network.pool_ids[L])
              for n in network.nodes if n.language == lang.language
              for pair in ((lang, n), (n, lang))]
    exc_in: list = [[] for _ in network.nodes]
    for u, v in pairs:
        w = alpha.get((u.pool, v.pool), 0.0)
        if w != 0.0:
            exc_in[v.id].append((u.id, w))
    return [sorted(sources) for sources in exc_in]


@dataclass
class DenseNetwork:
    """A built network plus its gathered in-connections.

    ``exc_in`` lists each node's nonzero excitatory (source, weight) pairs.
    Each orthographic/phonological/semantic node also stores the ids of
    every other node in its pool; that connection's weight is the pool's
    gamma.
    """

    base: Network
    exc_in: list  # per node: list of (source id, weight), zero weights dropped
    inhib_in: list  # per node: int array of same-pool ids excluding self, or None


def materialize_dense(network: Network, max_entries: int | None = DENSE_ENTRY_GUARD) -> DenseNetwork:
    n_entries = len(network.pool_ids[Pool.SEM])
    if max_entries is not None and n_entries > max_entries:
        raise ValidationError(
            f"dense materialization refused for {n_entries} entries "
            f"(guard {max_entries}); raise max_entries explicitly for benchmark use")
    exc_in = excitatory_in(network)
    inhib_in: list = [None] * len(network)
    for pool, _gamma in INHIBITED_POOLS:
        ids = np.asarray(network.pool_ids[pool], dtype=np.int64)
        for i, node_id in enumerate(network.pool_ids[pool]):
            inhib_in[node_id] = np.concatenate([ids[:i], ids[i + 1:]])
    return DenseNetwork(base=network, exc_in=exc_in, inhib_in=inhib_in)


def _dense_step(state: SimulationState, dense: DenseNetwork, params: Parameters) -> None:
    network = dense.base
    prev_np = state.activation
    prev = prev_np.tolist()
    active_mask = prev_np > 0.0
    nodes = network.nodes
    gamma_of = {pool: pool_gamma(params, pool) for pool, _name in INHIBITED_POOLS}
    i_rest = params.I_rest
    n_nodes = len(network)

    state.counters["active_node_updates"] += int(np.count_nonzero(active_mask))
    state.counters["touched_updates"] += n_nodes

    new_act = [0.0] * n_nodes
    for n in range(n_nodes):
        products = [w * prev[src] for src, w in dense.exc_in[n] if prev[src] > 0.0]
        iw = state.input_weights.get(n)
        if iw is not None:
            products.append(iw * i_rest)
        net = math.fsum(products)
        inhib = 0.0
        gamma = gamma_of.get(nodes[n].pool, 0.0)
        srcs = dense.inhib_in[n]
        if gamma != 0.0 and srcs is not None:
            sel = srcs[active_mask[srcs]]
            if sel.size:
                inhib = math.fsum((gamma * prev_np[sel]).tolist())
        new_act[n] = update_activation(prev[n], net + inhib, nodes[n].rest, params)

    state.activation = np.array(new_act)
    state.cycle += 1


class DenseEngine:
    """Reusable dense-engine wrapper over one materialised network."""

    def __init__(self, network: Network, max_entries: int | None = DENSE_ENTRY_GUARD):
        self.dense = materialize_dense(network, max_entries)

    def step(self, state: SimulationState, _network: Network, params: Parameters) -> None:
        """One dense cycle, in the ``step_fn`` form dynamics.run takes."""
        _dense_step(state, self.dense, params)

    def run(self, stimulus: str, monitor, params: Parameters | None = None,
            trace: str | None = "full"):
        network = self.dense.base
        return run(network, stimulus, monitor, params, trace, step_fn=self.step,
                   input_weights=scalar_input_weights(network, stimulus))
