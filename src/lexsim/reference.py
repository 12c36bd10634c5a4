"""Slow reference engine kept for equivalence testing.

The dense engine recomputes every node every cycle: it sums each node's
gathered excitatory connections and the inhibition of its pool's active
members, listed once per cycle, and weights its stimulus with the scalar
edit-distance loop below; it exists so the fast active-set engine and the
array input weighting can be checked against it bit-for-bit. It reads only
the network's params and node columns, never the fast engine's tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import SimulationState, run, update_activation
from .errors import ValidationError
from .network import INHIBITED_POOLS, Network, Pool, pool_gamma
from .params import Parameters


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
    """``network.input_weights(stimulus)`` as a plain dict, node by node over
    its ``pool_of`` and ``symbol_of`` columns: the oracle's weights."""
    if not stimulus:
        raise ValueError("stimulus must be non-empty")
    stimulus, params = stimulus.upper(), network.params
    return {n: w for n, (pool, symbol) in enumerate(zip(network.pool_of, network.symbol_of))
            if pool is Pool.ORTHO if (w := input_weight(stimulus, symbol, params)) > 0.0}


def excitatory_in(network: Network) -> list[list[tuple[int, float]]]:
    """Each node's nonzero excitatory (source id, weight) pairs by source id,
    from ``network.params`` and the node columns alone: an O or P node links
    with the other of its concept and language, its concept's S node and its
    language's node, both ways, with one alpha per (source, target) pool
    pair. Each list is made in source id order: a language node's id is
    below every entry node's, and a concept's nodes are listed in id order."""
    p = network.params
    O, P, S, L = Pool.ORTHO, Pool.PHONO, Pool.SEM, Pool.LANG
    alpha = {(O, P): p.OP_alpha, (P, O): p.PO_alpha, (O, S): p.OS_alpha, (S, O): p.SO_alpha,
             (P, S): p.PS_alpha, (S, P): p.SP_alpha, (O, L): p.OL_alpha, (L, O): p.LO_alpha,
             (P, L): p.PL_alpha, (L, P): p.LP_alpha}
    links = {pools: w for pools, w in alpha.items() if w != 0.0}
    pool_of, language_of, concepts, language_node = network.pool_of, network.language_of, {}, {}
    for n, (pool, language, concept) in enumerate(zip(pool_of, language_of, network.concept_of)):
        if concept is not None:
            concepts.setdefault(concept, []).append(n)
        elif pool is L:
            language_node[language] = n
    exc_in: list = [[] for _ in pool_of]
    # a language node's links from the nodes of its language (the links back: below)
    for language, lang in language_node.items():
        exc_in[lang] = [(u, w) for u, (pool, language_u) in enumerate(zip(pool_of, language_of))
                        if language_u == language and (w := links.get((pool, L)))]
    # two nodes of one concept and language, or of one concept with its S node
    for group in concepts.values():
        for v in group:
            pool, language, sources = pool_of[v], language_of[v], exc_in[v]
            if language in language_node and (w := links.get((L, pool))):
                sources.append((language_node[language], w))
            for u in group:
                if (w := links.get((pool_of[u], pool))) and (
                        language_of[u] == language or S in (pool_of[u], pool)):
                    sources.append((u, w))
    return exc_in


@dataclass
class DenseNetwork:
    """A built network plus its gathered excitatory in-connections.

    ``exc_in`` lists each node's nonzero excitatory (source, weight) pairs;
    each cycle reads the pool and rest columns of ``base``. Inhibition needs
    no table: a node of an inhibited pool takes the pool's gamma from every
    other active member of its pool.
    """

    base: Network
    exc_in: list  # per node: list of (source id, weight), zero weights dropped


def _dense_step(state: SimulationState, dense: DenseNetwork, params: Parameters) -> None:
    prev = state.activation.tolist()
    pool_of, rest = dense.base.pool_of, dense.base.rest.tolist()
    gamma_of = {pool: pool_gamma(params, pool) for pool in INHIBITED_POOLS}
    n_nodes = len(pool_of)

    # each inhibiting pool's active members as (id, gamma x activation), from the pool column
    inhibitors: dict = {pool: [] for pool, gamma in gamma_of.items() if gamma != 0.0}
    for n, pool in enumerate(pool_of):
        if prev[n] > 0.0 and pool in inhibitors:
            inhibitors[pool].append((n, gamma_of[pool] * prev[n]))

    state.counters["active_node_updates"] += sum(a > 0.0 for a in prev)
    state.counters["touched_updates"] += n_nodes

    new_act = [0.0] * n_nodes
    for n in range(n_nodes):
        products = [w * prev[src] for src, w in dense.exc_in[n] if prev[src] > 0.0]
        iw = state.input_weights.get(n)
        if iw is not None:
            products.append(iw * params.I_rest)
        net = math.fsum(products)
        # fsum is correctly rounded, so the order of the terms does not matter
        inhib = math.fsum([term for src, term in inhibitors.get(pool_of[n], ()) if src != n])
        new_act[n] = update_activation(prev[n], net + inhib, rest[n], params)

    state.activation[:] = new_act
    state.cycle += 1


class DenseEngine:
    """The oracle over one network, built from its params and node columns alone."""

    def __init__(self, network: Network, max_entries: int | None = None):
        """ValidationError for more than ``max_entries`` entries (None: no limit)."""
        n_entries = network.pool_of.count(Pool.SEM)  # one S node per entry
        if max_entries is not None and n_entries > max_entries:
            raise ValidationError(f"dense engine refused for {n_entries} entries "
                                  f"(max_entries {max_entries})")
        self.dense = DenseNetwork(base=network, exc_in=excitatory_in(network))

    def step(self, state: SimulationState, _network: Network, params: Parameters) -> None:
        """One dense cycle, in the ``step_fn`` form dynamics.run takes."""
        _dense_step(state, self.dense, params)

    def run(self, stimulus: str, monitor, params: Parameters | None = None,
            trace: str | None = "full"):
        """dynamics.run with dense steps and scalar input weights: the oracle end to end."""
        network = self.dense.base
        return run(network, stimulus, monitor, params, trace, step_fn=self.step,
                   input_weights=scalar_input_weights(network, stimulus))
