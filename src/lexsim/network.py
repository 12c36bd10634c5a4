"""Lexical network structure: node pools in a fixed entry layout that
implies the excitatory links, and stimulus-dependent input weighting.

The network is immutable once built. Anything that depends on the stimulus
(input weights, activations) lives in the per-simulation state so that many
simulations can share one network concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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
        self.pool_ids: dict[Pool, list[int]] = {pool: [] for pool in Pool}
        # set once the build is complete: node k of entry e has id
        # first_entry + 5*e + k, and the links with a nonzero alpha are
        # (target id offset, alpha) per place k, (place, language node id,
        # alpha) to a language node and (language node id, place, alpha) from one
        self.first_entry = 0
        self.entry_edges: tuple[tuple[tuple[int, float], ...], ...] = ()
        self.to_language: tuple[tuple[int, int, float], ...] = ()
        self.from_language: tuple[tuple[int, int, float], ...] = ()
        # set once the build is complete: the members of each inhibited pool
        # as basic slices of the node ids, and every node's rest level as a
        # read-only array
        self.pool_slices: dict[Pool, tuple[slice, ...]] = {}
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
        self.pool_ids[pool].append(node.id)
        return node.id

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
        """Nonzero excitatory connections by source and target id, as the
        reference engine builds them from the node metadata."""
        from .reference import excitatory_in  # reference imports this module
        return [Connection(*edge) for edge in sorted(
            (src, dst, w) for dst, sources in enumerate(excitatory_in(self)) for src, w in sources)]

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
    language-membership links (zero by default, and then not stored), all
    implied by the entry layout: no edge list, one table per place.
    Same-pool inhibitory connections are never materialised here; the cycle
    engine applies them from the active set.
    """
    params.validate()
    if lexicon.language_a == lexicon.language_b:
        raise ValidationError(f"the two languages must differ, both are {lexicon.language_a!r}")
    net = Network(params, lexicon.language_a, lexicon.language_b)
    max_opb = params.MAX_OPB if params.MAX_OPB is not None else lexicon.max_opb

    net._add_node(Pool.INPUT, "INPUT", None, rest=params.I_rest)
    lang_ids = [net._add_node(Pool.LANG, language, language, rest=params.L_rest)
                for language in net.languages]

    net.first_entry = first_entry = len(net)
    for concept, entry in enumerate(lexicon.entries):
        readings = (
            (entry.ortho_a, entry.phono_a, entry.freq_a, lexicon.language_a),
            (entry.ortho_b, entry.phono_b, entry.freq_b, lexicon.language_b),
        )
        for ortho, phono, freq, language in readings:
            rest = rest_activation(freq, max_opb, params)
            net._add_node(Pool.ORTHO, ortho, language, rest, concept)
            net._add_node(Pool.PHONO, phono, language, rest, concept)
        net._add_node(Pool.SEM, entry.ortho_b, None, params.S_rest, concept)
    p = params
    # from each place of [O_a, P_a, O_b, P_b, S] to the others of its entry
    within = (((1, p.OP_alpha), (4, p.OS_alpha)), ((-1, p.PO_alpha), (3, p.PS_alpha)),
              ((1, p.OP_alpha), (2, p.OS_alpha)), ((-1, p.PO_alpha), (1, p.PS_alpha)),
              ((-4, p.SO_alpha), (-3, p.SP_alpha), (-2, p.SO_alpha), (-1, p.SP_alpha)))
    net.entry_edges = tuple(tuple(edge for edge in place if edge[1] != 0.0) for place in within)
    # places 0 and 1 belong to language a, 2 and 3 to language b
    net.to_language = tuple((place, lang_ids[place // 2], w) for place, w
                            in enumerate((p.OL_alpha, p.PL_alpha) * 2) if w != 0.0)
    net.from_language = tuple((lang_ids[place // 2], place, w) for place, w
                              in enumerate((p.LO_alpha, p.LP_alpha) * 2) if w != 0.0)
    # every entry adds its nodes as [O_a, P_a, O_b, P_b, S], so a pool's
    # members are one stride-5 slice per place it takes in that layout
    layout = (Pool.ORTHO, Pool.PHONO, Pool.ORTHO, Pool.PHONO, Pool.SEM)
    net.pool_slices = {pool: tuple(slice(first_entry + k, len(net), len(layout))
                                   for k, member in enumerate(layout) if member is pool)
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
    for array in (net.rest, net.ortho_ids, net.ortho_lengths, net.ortho_codes):
        array.flags.writeable = False
    return net
