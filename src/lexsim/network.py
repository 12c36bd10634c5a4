"""Lexical network structure: node pools, sparse excitatory connections,
and stimulus-dependent input weighting.

The network is immutable once built. Anything that depends on the stimulus
(input weights, activations, the active set) lives in the per-simulation
state so that many simulations can share one network concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lexicon import Lexicon, rest_activation
from .params import Parameters


class Pool(enum.Enum):
    INPUT = "input"
    ORTHO = "ortho"
    PHONO = "phono"
    SEM = "sem"
    LANG = "lang"


# pools that take a lateral-inhibition step, with their gamma parameter name
INHIBITED_POOLS = ((Pool.ORTHO, "OO_gamma"), (Pool.PHONO, "PP_gamma"), (Pool.SEM, "SS_gamma"))


def pool_gamma(params, pool: "Pool") -> float:
    """Effective inhibition weight for one pool.

    The semantic step is scaled by SS_multiplier: the default parameter set
    carries SS_gamma=-0.5 with SS_multiplier=0.0, i.e. no semantic
    competition unless explicitly enabled. An active semantic winner-take-all
    would suppress the stimulus concept whenever a higher-frequency
    neighbour's concept activates first, making word translation impossible.
    """
    if pool is Pool.ORTHO:
        return params.OO_gamma
    if pool is Pool.PHONO:
        return params.PP_gamma
    if pool is Pool.SEM:
        return params.SS_gamma * params.SS_multiplier
    return 0.0


@dataclass(frozen=True)
class Node:
    id: int
    pool: Pool
    symbol: str
    language: str | None
    rest: float
    concept: int | None = None


@dataclass(frozen=True)
class Connection:
    from_id: int
    to_id: int
    weight: float


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


class Network:
    """Built lexical network; structurally immutable after construction."""

    def __init__(self, params: Parameters, language_a: str, language_b: str):
        self.params = params
        self.languages = (language_a, language_b)
        self.nodes: list[Node] = []
        # outgoing excitatory connections per source: (target id, weight),
        # nonzero weights only; a zero-weight link never moves an activation
        self.out: list[list[tuple[int, float]]] = []
        self.pool_ids: dict[Pool, list[int]] = {pool: [] for pool in Pool}
        self.pool_of: list[Pool] = []
        self.rest_levels: list[float] = []
        # read-only array forms of pool_ids (a membership mask per inhibited
        # pool) and rest_levels, set once the build is complete
        self.pool_mask: dict[Pool, np.ndarray] = {}
        self.rest = np.zeros(0)

    # -- construction -----------------------------------------------------

    def _add_node(self, pool: Pool, symbol: str, language: str | None,
                  rest: float, concept: int | None = None) -> int:
        node = Node(id=len(self.nodes), pool=pool, symbol=symbol,
                    language=language, rest=rest, concept=concept)
        self.nodes.append(node)
        self.out.append([])
        self.pool_ids[pool].append(node.id)
        self.pool_of.append(pool)
        self.rest_levels.append(rest)
        return node.id

    def _connect(self, from_id: int, to_id: int, weight: float) -> None:
        if weight != 0.0:
            self.out[from_id].append((to_id, weight))

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def find(self, pool: Pool, symbol: str, language: str | None = None) -> Node:
        matches = [n for n in self.nodes
                   if n.pool is pool and n.symbol == symbol and n.language == language]
        if not matches:
            raise KeyError(f"no {pool.value} node {symbol!r} ({language})")
        if len(matches) > 1:
            raise KeyError(f"ambiguous {pool.value} reading {symbol!r} ({language})")
        return matches[0]

    def connections(self) -> list[Connection]:
        return [Connection(src, dst, w)
                for src, targets in enumerate(self.out)
                for dst, w in sorted(targets)]

    def input_weights(self, stimulus: str) -> dict[int, float]:
        """Nonzero stimulus weights over orthographic nodes (symbol uppercased)."""
        if not stimulus:
            raise ValueError("stimulus must be non-empty")
        stimulus = stimulus.upper()
        weights: dict[int, float] = {}
        for o_id in self.pool_ids[Pool.ORTHO]:
            w = input_weight(stimulus, self.nodes[o_id].symbol, self.params)
            if w > 0.0:
                weights[o_id] = w
        return weights


def build_network(lexicon: Lexicon, params: Parameters) -> Network:
    """Build the node pools and the excitatory connection structure.

    Per entry: one semantic node shared by both languages' orthographic and
    phonological nodes, bidirectional O-P / O-S / P-S pairs, and the
    language-membership links (zero by default, and then not stored).
    Same-pool inhibitory connections are never materialised here; the cycle
    engine applies them from the active set.
    """
    params.validate()
    net = Network(params, lexicon.language_a, lexicon.language_b)
    max_opb = params.MAX_OPB if params.MAX_OPB is not None else lexicon.max_opb

    net._add_node(Pool.INPUT, "INPUT", None, rest=params.I_rest)
    lang_ids = {
        lexicon.language_a: net._add_node(Pool.LANG, lexicon.language_a,
                                          lexicon.language_a, rest=params.L_rest),
        lexicon.language_b: net._add_node(Pool.LANG, lexicon.language_b,
                                          lexicon.language_b, rest=params.L_rest),
    }

    for concept, entry in enumerate(lexicon.entries):
        readings = (
            (entry.ortho_a, entry.phono_a, entry.freq_a, lexicon.language_a),
            (entry.ortho_b, entry.phono_b, entry.freq_b, lexicon.language_b),
        )
        word_ids = []
        for ortho, phono, freq, language in readings:
            rest = rest_activation(freq, max_opb, params)
            o_id = net._add_node(Pool.ORTHO, ortho, language, rest, concept)
            p_id = net._add_node(Pool.PHONO, phono, language, rest, concept)
            word_ids.append((o_id, p_id, language))
        s_id = net._add_node(Pool.SEM, entry.ortho_b, None, params.S_rest, concept)

        for o_id, p_id, language in word_ids:
            l_id = lang_ids[language]
            net._connect(o_id, p_id, params.OP_alpha)
            net._connect(p_id, o_id, params.PO_alpha)
            net._connect(o_id, s_id, params.OS_alpha)
            net._connect(s_id, o_id, params.SO_alpha)
            net._connect(p_id, s_id, params.PS_alpha)
            net._connect(s_id, p_id, params.SP_alpha)
            net._connect(o_id, l_id, params.OL_alpha)
            net._connect(l_id, o_id, params.LO_alpha)
            net._connect(p_id, l_id, params.PL_alpha)
            net._connect(l_id, p_id, params.LP_alpha)
    for pool, _gamma_name in INHIBITED_POOLS:
        mask = np.zeros(len(net), dtype=bool)
        mask[net.pool_ids[pool]] = True
        mask.flags.writeable = False
        net.pool_mask[pool] = mask
    net.rest = np.fromiter(net.rest_levels, np.float64, len(net))
    net.rest.flags.writeable = False
    return net
