"""Lexical network structure: node pools in a fixed entry layout that
implies the excitatory links, and stimulus-dependent input weighting.

``build_network`` computes every table first and makes the ``Network``
with one constructor call; the record is frozen, its arrays are read-only
and its per-node columns are tuples. The columns are the one per-node
record: no ``Node`` is stored, and ``nodes`` makes each one on access from
the columns. Anything that depends on the stimulus (input weights,
activations) lives in the per-simulation state so that many simulations
can share one network concurrently.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .lexicon import Lexicon, rest_from_opb
from .params import Parameters


class Pool(enum.Enum):
    INPUT = "input"
    ORTHO = "ortho"
    PHONO = "phono"
    SEM = "sem"
    LANG = "lang"

    # in C (Enum.__hash__ is Python) for the (pool, threshold) keys of
    # dynamics.Scan; no output iterates a set of pools
    __hash__ = object.__hash__


# pools that take a lateral-inhibition step; pool_gamma gives each one's weight
INHIBITED_POOLS = (Pool.ORTHO, Pool.PHONO, Pool.SEM)
# the pool of each place of an entry's five nodes [O_a, P_a, O_b, P_b, S]
_ENTRY_POOLS = (Pool.ORTHO, Pool.PHONO, Pool.ORTHO, Pool.PHONO, Pool.SEM)
# the input node and the two language nodes come before the entries
_FIRST_ENTRY = 3


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


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    pool: Pool
    symbol: str
    language: str | None
    rest: float
    concept: int | None = None


class Nodes(Sequence):
    """``Network.nodes``: a read-only Sequence of Node over the network's
    per-node columns (``pool_of``, ``symbol_of``, ``language_of``, ``rest``,
    ``concept_of``). Indexing and iteration make each Node on access; none
    is stored. Readers that need one field of many nodes read the columns."""

    def __init__(self, network: Network):
        self._network = network

    def __len__(self) -> int:
        return len(self._network)

    def __getitem__(self, n: int) -> Node:
        net, n = self._network, operator.index(n)
        if not -len(net) <= n < len(net):
            raise IndexError("node index out of range")
        n %= len(net)
        return Node(n, net.pool_of[n], net.symbol_of[n], net.language_of[n], net.rest.item(n),
                    net.concept_of[n])

    def __iter__(self):
        net = self._network
        return map(Node, range(len(net)), net.pool_of, net.symbol_of, net.language_of,
                   net.rest.tolist(), net.concept_of)


class Connection(NamedTuple):
    from_id: int
    to_id: int
    weight: float


class EntryArrays(NamedTuple):
    """The entry layout as arrays for the array step: each node's place in
    [O_a, P_a, O_b, P_b, S] (5 for the input and language nodes); and per
    place (row 5 empty) the links with a nonzero alpha from that place to
    the rest of its entry, as target id offsets, alphas and a link mask,
    padded to the longest row."""
    place: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    links: np.ndarray


class InputWeights(Mapping):
    """A stimulus's nonzero input weights: a read-only Mapping of node id to weight, in id
    order, over aligned read-only arrays ``ids`` (intp, strictly increasing) and ``weights``."""

    def __init__(self, ids: np.ndarray, weights: np.ndarray):
        ids.flags.writeable = weights.flags.writeable = False
        self.ids, self.weights = ids, weights

    @classmethod
    def of(cls, mapping: Mapping[int, float]) -> InputWeights:
        """``mapping`` if it is an InputWeights, else its items as arrays in id order."""
        if isinstance(mapping, cls):
            return mapping
        ids = np.fromiter(mapping, np.intp, len(mapping))
        order = ids.argsort()
        return cls(ids[order], np.fromiter(mapping.values(), np.float64, len(mapping))[order])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, node: int) -> float:
        i = self.ids.searchsorted(node)
        if i < len(self.ids) and self.ids[i] == node:
            return self.weights.item(i)
        raise KeyError(node)


@dataclass(frozen=True, eq=False, repr=False)
class Network:
    """Built lexical network, frozen: ``build_network`` makes it in one call,
    with every table in the form its readers use and none computed later.

    The nodes are the input node, the two language nodes in ``languages``
    order, then five nodes per entry in the layout [O_a, P_a, O_b, P_b, S]:
    node k of entry e has id first_entry + 5*e + k. The one per-node record
    is the columns by id: the tuples ``pool_of``, ``symbol_of``,
    ``language_of`` and ``concept_of`` and the array ``rest`` (rest levels),
    which the monitors, traces, ``find`` and the reference engine read;
    ``nodes`` makes a Node from them on access (``Nodes``). The excitatory
    links with a nonzero alpha are implied by that layout: ``layout`` holds
    each node's place and, per place, the target id offsets and alphas of
    its links to the rest of its entry; ``to_language`` the (place, language
    node id, alpha) links to a language node and ``from_language`` the
    (language node id, place, alpha) links from one. ``pools`` holds each
    node's index in INHIBITED_POOLS, 3 for the nodes in no pool (input and
    language), from node metadata alone; ``members[pool]`` is that pool's
    member mask, ``pools == k``. For input weighting: the orthographic node
    ids, their symbol lengths, and their code points in C order and the
    narrowest unsigned type, one row per letter position (column k is the
    k-th ortho node, 0 past its length). Every array is read-only.
    """

    params: Parameters
    languages: tuple[str, str]
    pool_of: tuple[Pool, ...]
    symbol_of: tuple[str, ...]
    language_of: tuple[str | None, ...]
    concept_of: tuple[int | None, ...]
    first_entry: int
    layout: EntryArrays
    to_language: tuple[tuple[int, int, float], ...]
    from_language: tuple[tuple[int, int, float], ...]
    pools: np.ndarray
    members: dict[Pool, np.ndarray]
    rest: np.ndarray
    ortho_ids: np.ndarray
    ortho_lengths: np.ndarray
    ortho_codes: np.ndarray

    def __len__(self) -> int:
        return len(self.rest)

    nodes = property(Nodes)  # not a field: a view made on each access

    def find(self, pool: Pool, symbol: str, language: str | None = None) -> Node:
        matches = [n for n, fields in enumerate(zip(self.pool_of, self.symbol_of, self.language_of))
                   if fields == (pool, symbol, language)]
        if not matches:
            raise KeyError(f"no {pool.value} node {symbol!r} ({language})")
        if len(matches) > 1:
            raise KeyError(f"ambiguous {pool.value} reading {symbol!r} ({language})")
        return self.nodes[matches[0]]

    def connections(self) -> list[Connection]:
        """Nonzero excitatory connections by source and target id, as the
        reference engine builds them from the node columns."""
        from .reference import excitatory_in  # reference imports this module
        exc_in = excitatory_in(self)
        return list(map(Connection._make, sorted(
            (src, dst, w) for dst, sources in enumerate(exc_in) for src, w in sources)))

    def input_weights(self, stimulus: str) -> InputWeights:
        """Nonzero stimulus weights over orthographic nodes (symbol uppercased),
        as InputWeights arrays in node id order: IO_multiplier x similarity
        cubed, where similarity is 1 - edit distance / the longer length.

        One Wagner-Fischer table (Wagner & Fischer, JACM 1974) runs over
        every orthographic node at once: each stimulus letter i makes a new
        row of D[i][j], one vector across nodes per letter position j. A
        node's distance is the last row's entry at its own length; the
        padding past that length is never read there, because D[i][j]
        depends only on positions <= j, and a letter beyond the codes' type
        mismatches every node. The entries are at most i + j, so the rows
        use the narrowest unsigned type that holds the largest. The weights
        are float64 ufuncs in the scalar expression's operation order, each
        a single IEEE operation rounded as Python rounds it, so they equal
        reference.input_weight bit for bit.
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
        largest = np.iinfo(codes.dtype).max
        for i, letter in enumerate(stimulus, start=1):
            # substitution (or match) from the diagonal, deletion from above
            if ord(letter) > largest:
                mismatch.fill(True)
            else:
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
        return InputWeights(self.ortho_ids[keep], weights[keep])


def build_network(lexicon: Lexicon, params: Parameters) -> Network:
    """Build the node pools and the excitatory connection structure, and
    make the frozen ``Network`` from them in one call.

    Per entry: one semantic node shared by both languages' orthographic and
    phonological nodes, bidirectional O-P / O-S / P-S pairs, and the
    language-membership links (zero by default, and then not stored), all
    implied by the entry layout: no edge list, one table per place.
    Same-pool inhibitory connections are never materialised here; the cycle
    engine applies them from the active nodes.
    """
    language_a, language_b = languages = (lexicon.language_a, lexicon.language_b)
    if language_a == language_b:
        raise ValidationError(f"the two languages must differ, both are {language_a!r}")
    p = params
    max_opb = p.MAX_OPB if p.MAX_OPB is not None else lexicon.max_opb
    entries = tuple(lexicon.entries)
    n_entries, first_entry = len(entries), _FIRST_ENTRY
    n_nodes = first_entry + 5 * n_entries
    # one rest level per distinct frequency, from the lexicon's opb
    rest_of = {f: rest_from_opb(o, max_opb, p) for f, o in lexicon.opb_of.items()}
    rest_a, rest_b = [rest_of[e.freq_a] for e in entries], [rest_of[e.freq_b] for e in entries]
    rest = np.fromiter(chain((p.I_rest, p.L_rest, p.L_rest), chain.from_iterable(
        zip(rest_a, rest_a, rest_b, rest_b, repeat(p.S_rest)))), np.float64, n_nodes)
    pool_of = (Pool.INPUT, Pool.LANG, Pool.LANG) + _ENTRY_POOLS * n_entries
    symbol_of = ("INPUT", *languages) + tuple(chain.from_iterable(
        map(operator.attrgetter("ortho_a", "phono_a", "ortho_b", "phono_b", "ortho_b"), entries)))
    language_of = (None, *languages) + (language_a, language_a, language_b, language_b,
                                        None) * n_entries
    # each entry's index five times, one int object per entry
    concept_of = (None,) * first_entry + tuple(chain.from_iterable(
        map(repeat, range(n_entries), repeat(5))))
    # from each place of [O_a, P_a, O_b, P_b, S] to the others of its entry;
    # the layout keeps the nonzero alphas, and place 5 (no entry) has none
    within = (((1, p.OP_alpha), (4, p.OS_alpha)), ((-1, p.PO_alpha), (3, p.PS_alpha)),
              ((1, p.OP_alpha), (2, p.OS_alpha)), ((-1, p.PO_alpha), (1, p.PS_alpha)),
              ((-4, p.SO_alpha), (-3, p.SP_alpha), (-2, p.SO_alpha), (-1, p.SP_alpha)))
    tables = [[edge for edge in edges if edge[1] != 0.0] for edges in within] + [[]]
    offsets = np.zeros((6, max(map(len, tables))), dtype=np.intp)
    weights = np.zeros(offsets.shape)
    links = np.zeros(offsets.shape, dtype=bool)
    for k, table in enumerate(tables):
        for slot, (offset, w) in enumerate(table):
            offsets[k, slot], weights[k, slot], links[k, slot] = offset, w, True
    place = np.full(n_nodes, 5)
    place[first_entry:] = np.arange(n_nodes - first_entry) % 5
    layout = EntryArrays(place, offsets, weights, links)
    index = {pool: k for k, pool in enumerate(INHIBITED_POOLS)}
    pools = np.array([index[pool] for pool in _ENTRY_POOLS] + [3], dtype=np.intp)[place]
    members = {pool: pools == k for pool, k in index.items()}
    symbols = list(chain.from_iterable(map(operator.attrgetter("ortho_a", "ortho_b"), entries)))
    lengths = list(map(len, symbols))
    width = max(lengths, default=0)
    # a fixed-width numpy string holds one UCS-4 code point per letter,
    # zero-padded: one row per symbol, copied to one row per position (C order)
    padded = np.array(symbols, dtype=f"<U{width}").view("<u4").reshape(len(symbols), width)
    ortho_ids = members[Pool.ORTHO].nonzero()[0]
    ortho_lengths = np.array(lengths, dtype=np.intp)
    ortho_codes = np.ascontiguousarray(padded.T, np.min_scalar_type(padded.max(initial=0)))
    for array in (*layout, pools, *members.values(), rest, ortho_ids, ortho_lengths, ortho_codes):
        array.flags.writeable = False
    return Network(
        params=params, languages=languages,
        pool_of=pool_of, symbol_of=symbol_of, language_of=language_of, concept_of=concept_of,
        first_entry=first_entry, layout=layout,
        # places 0 and 1 belong to language a (node 1), 2 and 3 to language b (node 2)
        to_language=tuple((place, 1 + place // 2, w) for place, w
                          in enumerate((p.OL_alpha, p.PL_alpha) * 2) if w != 0.0),
        from_language=tuple((1 + place // 2, place, w) for place, w
                            in enumerate((p.LO_alpha, p.LP_alpha) * 2) if w != 0.0),
        pools=pools, members=members, rest=rest,
        ortho_ids=ortho_ids, ortho_lengths=ortho_lengths, ortho_codes=ortho_codes)
