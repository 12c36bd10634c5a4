"""Task/decision monitors layered on the cycle engine.

Lexical decision and naming are single-threshold monitors. Word translation
is the two-stage procedure: orthographic candidates crossing the input
threshold are scanned, most active first, until one matches the source
language; phonological candidates crossing the output threshold wait
(``waiting``) and, upon reaching the criterion, are accepted only when both
their language matches the target and their concept matches the input
node's. Rejection is permanent for the trial: the ids rejected at either
stage are one set, ``rejected`` (orthographic ids at the input stage,
phonological ids at the output stage), and a rejected id never waits again.

Candidates: a row of a run_rows step of several rows takes its part of one
Scan per (pool, threshold) over all the rows; any other state scans its own
and is observed every cycle, which is faster for one row (README, Monitors).

Watch: after a step of several rows, run_rows observes only the rows where
a (pool, threshold) of the monitor's ``watch`` has candidates (None or no
attribute: every row), so observe must return None and change nothing
without them. LD and NAME watch (pool, criterion): no candidate, no winner.
WT watches (ORTHO, input threshold) until the input is fixed, as the input
stage is a no-op without candidates, and (PHONO, output level): output
candidates enter at max(output threshold, criterion). A waiting node is
ready only at or above the criterion, so if that is at least the threshold,
admitting only candidates at it changes no outcome, rejection or cycle, and
without them nothing is admitted or ready. Otherwise a node admitted at the
threshold can be ready after falling below it: watch is None. Ids in a
monitor's ``rejected`` wake no row: WT never considers them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import SimulationState, run
from .errors import ConfigError
from .network import Network, Pool
from .params import Parameters


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


def _rejection(network: Network, n: int, reason: str, cycle: int) -> Rejection:
    return Rejection(n, network.symbol_of[n], network.language_of[n], network.concept_of[n],
                     reason, cycle)


def _candidates(state: SimulationState, network: Network, pool: Pool,
                threshold: float) -> list[int]:
    """Pool members at or above ``threshold``, in id order (module docstring)."""
    if state.scan is not None:
        scan, row = state.scan
        ids, bounds, _found = scan[pool, threshold]
        return ids[bounds[row]:bounds[row + 1]]
    ids = (state.activation >= threshold).nonzero()[0]
    return ids[network.members[pool][ids]].tolist()


def _winner(state: SimulationState, network: Network, pool: Pool,
            language: str, threshold: float) -> int | None:
    """Most active node of the pool/language at or above threshold.

    Ties break toward higher activation, then lower node id.
    """
    language_of = network.language_of
    return max((n for n in _candidates(state, network, pool, threshold)
                if language_of[n] == language), key=state.activation.item, default=None)


class NullMonitor:
    """Never decides; useful for plain trace runs and active-node statistics.
    No watch: observed every cycle. A subclass overriding observe must reset watch."""

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
        self.watch = ((self.pool, params.criterion_value),)

    def observe(self, state, network) -> TaskOutcome | None:
        winner = _winner(state, network, self.pool, self.target_language,
                         self.params.criterion_value)
        if winner is None:
            return None
        kind = self.kinds[0]
        return _outcome(self.task, self.params, state, kind, winner,
                        network.symbol_of[winner] if kind == "symbol" else None)

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
        self.rejected: set[int] = set()  # at either stage; they wake no row (module docstring)
        self.waiting: set[int] = set()  # output candidates admitted and not rejected
        self.diagnostics = Diagnostics()
        # (module docstring); the ortho pair goes once the input is fixed
        self.output_level = max(params.shortlist_output_threshold, params.criterion_value)
        self.watch = None if params.criterion_value < params.shortlist_output_threshold else (
            (Pool.ORTHO, params.shortlist_input_threshold), (Pool.PHONO, self.output_level))

    # -- stage 1: fix the input reading ------------------------------------

    def _identify_input(self, state, network) -> None:
        candidates = set(_candidates(state, network, Pool.ORTHO,
                                     self.params.shortlist_input_threshold)) - self.rejected
        act = state.activation.item
        # scan the candidates, most activated first, until the source language appears
        for o_id in sorted(candidates, key=lambda n: (-act(n), n)):
            if network.language_of[o_id] == self.source_language:
                self.diagnostics.input_node = o_id
                self.diagnostics.input_symbol = network.symbol_of[o_id]
                if self.watch is not None:
                    self.watch = self.watch[1:]
                return
            self.rejected.add(o_id)
            self.diagnostics.input_rejections.append(
                _rejection(network, o_id, "language", state.cycle))

    # -- stage 2: accept an output candidate -------------------------------

    def _select_output(self, state, network) -> TaskOutcome | None:
        self.waiting |= set(_candidates(state, network, Pool.PHONO,
                                        self.output_level)) - self.rejected
        if self.diagnostics.input_node is None or not self.waiting:
            return None  # the semantic check needs the input fixed and a candidate
        act = state.activation.item
        concept_of = network.concept_of
        input_concept = concept_of[self.diagnostics.input_node]
        ready = [n for n in self.waiting if act(n) >= self.params.criterion_value]
        ready.sort(key=lambda n: (-act(n), n))
        for p_id in ready:
            if network.language_of[p_id] != self.target_language:
                reason = "language"
            elif concept_of[p_id] != input_concept:
                reason = "concept"
            else:
                return _outcome(self.task, self.params, state, "symbol", p_id,
                                network.symbol_of[p_id], self.diagnostics)
            self.waiting.discard(p_id)
            self.rejected.add(p_id)
            self.diagnostics.output_rejections.append(
                _rejection(network, p_id, reason, state.cycle))
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
