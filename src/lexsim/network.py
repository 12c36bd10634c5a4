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
        # read-only arrays set once the build is complete: the member ids of
        # each inhibited pool, and every node's rest level
        self.pool_index: dict[Pool, np.ndarray] = {}
        self.rest = np.zeros(0)
        # read-only orthographic spellings for input weighting: node ids,
        # symbol lengths, and code points with one row per letter position
        # (column k is the k-th ortho node, padded with 0 past its length)
        self.ortho_ids = np.zeros(0, dtype=np.int64)
        self.ortho_lengths = np.zeros(0, dtype=np.intp)
        self.ortho_codes = np.zeros((0, 0), dtype=np.uint32)

    # -- construction -----------------------------------------------------

    def _add_node(self, pool: Pool, symbol: str, language: str | None,
                  rest: float, concept: int | None = None) -> int:
        node = Node(id=len(self.nodes), pool=pool, symbol=symbol,
                    language=language, rest=rest, concept=concept)
        self.nodes.append(node)
        self.out.append([])
        self.pool_ids[pool].append(node.id)
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
        """Nonzero stimulus weights over orthographic nodes (symbol uppercased),
        in node id order: IO_multiplier x similarity cubed, where similarity
        is 1 - edit distance / the longer length.

        One Wagner-Fischer table (Wagner & Fischer, JACM 1974) runs over
        every orthographic node at once: each stimulus letter i makes a new
        row of D[i][j], one vector across nodes per letter position j. A
        node's distance is the last row's entry at its own length; the
        padding past that length is never read there, because D[i][j]
        depends only on positions <= j. The entries are at most i + j, so
        the rows use the narrowest unsigned type that holds the largest.
        The weights are float64 ufuncs in the scalar expression's operation
        order, each a single IEEE operation rounded as Python rounds it, so
        they equal reference.input_weight bit for bit.
        """
        if not stimulus:
            raise ValueError("stimulus must be non-empty")
        stimulus = stimulus.upper()
        codes, lengths = self.ortho_codes, self.ortho_lengths
        width, n = codes.shape
        dtype = np.min_scalar_type(len(stimulus) + width)
        row = np.repeat(np.arange(width + 1, dtype=dtype)[:, None], n, axis=1)
        new = np.empty_like(row)
        mismatch = np.empty(codes.shape, dtype=bool)
        for i, letter in enumerate(stimulus, start=1):
            # substitution (or match) from the diagonal, deletion from above
            np.not_equal(codes, ord(letter), out=mismatch)
            np.add(row[:-1], mismatch, out=new[1:])
            row += 1
            np.minimum(new[1:], row[1:], out=new[1:])
            new[0] = i
            # insertion along the row; the spent previous row is scratch
            for j in range(1, width + 1):
                np.add(new[j - 1], 1, out=row[j])
                np.minimum(new[j], row[j], out=new[j])
            row, new = new, row
        distance = row[lengths, np.arange(n)]
        similarity = 1.0 - distance / np.maximum(lengths, len(stimulus))
        weights = self.params.IO_multiplier * (similarity * similarity * similarity)
        keep = np.flatnonzero(weights > 0.0)
        return dict(zip(self.ortho_ids[keep].tolist(), weights[keep].tolist()))


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
    net.pool_index = {pool: np.array(net.pool_ids[pool], dtype=np.intp)
                      for pool, _gamma_name in INHIBITED_POOLS}
    net.rest = np.fromiter((node.rest for node in net.nodes), np.float64, len(net))
    symbols = [net.nodes[o_id].symbol for o_id in net.pool_ids[Pool.ORTHO]]
    lengths = list(map(len, symbols))
    width = max(lengths, default=0)
    net.ortho_ids = np.array(net.pool_ids[Pool.ORTHO], dtype=np.int64)
    net.ortho_lengths = np.array(lengths, dtype=np.intp)
    # a fixed-width numpy string holds one UCS-4 code point per letter,
    # zero-padded: one row per symbol, transposed to one row per position
    padded = np.array(symbols, dtype=f"<U{width}").view("<u4").reshape(len(symbols), width)
    net.ortho_codes = padded.T.copy()
    for array in (*net.pool_index.values(), net.rest, net.ortho_ids, net.ortho_lengths,
                  net.ortho_codes):
        array.flags.writeable = False
    return net
