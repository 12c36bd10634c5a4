"""Task/decision monitors layered on the cycle engine.

Lexical decision and naming are single-threshold monitors. Word translation
is the two-stage procedure: orthographic candidates crossing the input
threshold are scanned, most active first, until one matches the source
language; phonological candidates crossing the output threshold wait in a
shortlist and, upon reaching the criterion, are accepted only when both
their language matches the target and their concept matches the input
node's. Rejection is permanent for the trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import SimulationState, run
from .errors import ConfigError
from .network import Network, Pool
from .params import Parameters


class Shortlist:
    """Waiting room of candidate nodes: the ids admitted and still waiting,
    and the ids rejected, which never re-enter."""

    def __init__(self):
        self.admitted: set[int] = set()
        self.rejected: set[int] = set()

    def admit(self, node_id: int) -> None:
        if node_id not in self.rejected:
            self.admitted.add(node_id)

    def reject(self, node_id: int) -> None:
        self.admitted.discard(node_id)
        self.rejected.add(node_id)


@dataclass
class Rejection:
    node_id: int
    symbol: str
    language: str | None
    concept: int | None
    reason: str
    cycle: int


@dataclass
class Diagnostics:
    input_node: int | None = None
    input_symbol: str | None = None
    input_rejections: list[Rejection] = field(default_factory=list)
    output_rejections: list[Rejection] = field(default_factory=list)
    failure: str | None = None


@dataclass
class TaskOutcome:
    task: str
    response_kind: str  # yes | no | symbol | none
    response_symbol: str | None
    cycles: int
    rt_pred: float
    node_id: int | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def responded(self) -> bool:
        return self.response_kind in ("yes", "symbol")

    @property
    def n_rejected(self) -> int:
        return len(self.diagnostics.output_rejections)


def _outcome(task: str, params: Parameters, state: SimulationState, kind: str,
             node_id: int | None = None, symbol: str | None = None,
             diagnostics: Diagnostics | None = None) -> TaskOutcome:
    """The outcome at the state's cycle; rt_pred is linear in the cycles."""
    rt_pred = state.cycle * params.timestep_multiplier + params.timestep_adder
    return TaskOutcome(task, kind, symbol, state.cycle, rt_pred, node_id,
                       diagnostics or Diagnostics())


def _candidates(state: SimulationState, network: Network, pool: Pool,
                threshold: float) -> list[int]:
    """Pool members at or above ``threshold``, in id order."""
    nodes = network.nodes
    return [n for n in (state.activation >= threshold).nonzero()[0].tolist()
            if nodes[n].pool is pool]


def _winner(state: SimulationState, network: Network, pool: Pool,
            language: str, threshold: float) -> int | None:
    """Most active node of the pool/language at or above threshold.

    Ties break toward higher activation, then lower node id.
    """
    nodes = network.nodes
    return max((n for n in _candidates(state, network, pool, threshold)
                if nodes[n].language == language), key=state.activation.item, default=None)


class NullMonitor:
    """Never decides; useful for plain trace runs and active-node statistics."""

    task = "NONE"
    languages = ()

    def observe(self, state, network):
        return None

    def timeout(self, state, network):
        return _outcome(self.task, network.params, state, "none")


class _ThresholdMonitor:
    """Responds ``kinds[0]`` once a ``pool`` node of the target language
    reaches the criterion, naming it if that kind is "symbol"; times out
    with ``kinds[1]``."""

    task: str
    pool: Pool
    kinds: tuple[str, str]

    def __init__(self, target_language: str, params: Parameters):
        self.target_language = target_language
        self.params = params
        self.languages = (target_language,)

    def observe(self, state, network) -> TaskOutcome | None:
        winner = _winner(state, network, self.pool, self.target_language,
                         self.params.criterion_value)
        if winner is None:
            return None
        kind = self.kinds[0]
        return _outcome(self.task, self.params, state, kind, winner,
                        network.nodes[winner].symbol if kind == "symbol" else None)

    def timeout(self, state, network) -> TaskOutcome:
        return _outcome(self.task, self.params, state, self.kinds[1])


class LexicalDecisionMonitor(_ThresholdMonitor):
    task, pool, kinds = "LD", Pool.ORTHO, ("yes", "no")


class NamingMonitor(_ThresholdMonitor):
    task, pool, kinds = "NAME", Pool.PHONO, ("symbol", "none")


class WordTranslationMonitor:
    task = "WT"

    def __init__(self, source_language: str, target_language: str, params: Parameters):
        if source_language == target_language:
            raise ConfigError("word translation requires source != target language")
        self.source_language = source_language
        self.target_language = target_language
        self.params = params
        self.languages = (source_language, target_language)
        self.input_list = Shortlist()
        self.output_list = Shortlist()
        self.diagnostics = Diagnostics()

    # -- stage 1: fix the input reading ------------------------------------

    def _identify_input(self, state, network) -> None:
        act = state.activation.item
        for o_id in _candidates(state, network, Pool.ORTHO,
                                self.params.shortlist_input_threshold):
            self.input_list.admit(o_id)
        # scan the live list, most activated first, until the source language appears
        for o_id in sorted(self.input_list.admitted, key=lambda n: (-act(n), n)):
            node = network.nodes[o_id]
            if node.language == self.source_language:
                self.diagnostics.input_node = node.id
                self.diagnostics.input_symbol = node.symbol
                return
            self.input_list.reject(o_id)
            self.diagnostics.input_rejections.append(Rejection(
                node.id, node.symbol, node.language, node.concept,
                "language", state.cycle))

    # -- stage 2: accept an output candidate -------------------------------

    def _select_output(self, state, network) -> TaskOutcome | None:
        act = state.activation.item
        for p_id in _candidates(state, network, Pool.PHONO,
                                self.params.shortlist_output_threshold):
            self.output_list.admit(p_id)
        if self.diagnostics.input_node is None:
            return None  # semantic check impossible until the input is fixed
        input_concept = network.nodes[self.diagnostics.input_node].concept
        ready = [n for n in self.output_list.admitted
                 if act(n) >= self.params.criterion_value]
        ready.sort(key=lambda n: (-act(n), n))
        for p_id in ready:
            node = network.nodes[p_id]
            if node.language != self.target_language:
                reason = "language"
            elif node.concept != input_concept:
                reason = "concept"
            else:
                return _outcome(self.task, self.params, state, "symbol", node.id,
                                node.symbol, self.diagnostics)
            self.output_list.reject(p_id)
            self.diagnostics.output_rejections.append(Rejection(
                node.id, node.symbol, node.language, node.concept,
                reason, state.cycle))
        return None

    def observe(self, state, network) -> TaskOutcome | None:
        if self.diagnostics.input_node is None:
            self._identify_input(state, network)
        return self._select_output(state, network)

    def timeout(self, state, network) -> TaskOutcome:
        diagnostics = self.diagnostics
        diagnostics.failure = ("no_input_identified" if diagnostics.input_node is None
                               else "no_output_accepted")
        return _outcome(self.task, self.params, state, "none", diagnostics=diagnostics)


def make_monitor(task: str, source_language: str | None, target_language: str | None,
                 params: Parameters):
    """Monitor factory used by batch runs; one fresh monitor per trial."""
    if task == "LD":
        if not source_language:
            raise ConfigError("LD requires a source language")
        return LexicalDecisionMonitor(source_language, params)
    if task == "NAME":
        language = target_language or source_language
        if not language:
            raise ConfigError("NAME requires a language")
        return NamingMonitor(language, params)
    if task == "WT":
        if not source_language or not target_language:
            raise ConfigError("WT requires source and target languages")
        return WordTranslationMonitor(source_language, target_language, params)
    raise ConfigError(f"unknown task {task!r}; expected LD, NAME, or WT")


def _respond(network: Network, stimulus: str, monitor) -> TaskOutcome:
    _trace, outcome = run(network, stimulus, monitor, monitor.params, trace=None)
    return outcome


def lexical_decision(network: Network, stimulus: str, target_language: str,
                     params: Parameters | None = None) -> TaskOutcome:
    return _respond(network, stimulus,
                    LexicalDecisionMonitor(target_language, params or network.params))


def naming(network: Network, stimulus: str, target_language: str,
           params: Parameters | None = None) -> TaskOutcome:
    return _respond(network, stimulus, NamingMonitor(target_language, params or network.params))


def word_translation(network: Network, stimulus: str, source_language: str,
                     target_language: str, params: Parameters | None = None) -> TaskOutcome:
    return _respond(network, stimulus, WordTranslationMonitor(
        source_language, target_language, params or network.params))
