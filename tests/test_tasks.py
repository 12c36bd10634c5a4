import collections
import copy
import math

import pytest

from lexsim import (ConfigError, DenseEngine, Parameters, build_network, lexical_decision,
                    naming, run, word_translation)
from lexsim.dynamics import run_rows
from lexsim import tasks
from lexsim.network import Pool
from lexsim.tasks import NullMonitor, WordTranslationMonitor, make_monitor

from conftest import members


# -- lexical decision ---------------------------------------------------------

def test_ld_yes_for_fixture_word(table1_network):
    outcome = lexical_decision(table1_network, "AARDE", "NL")
    assert outcome.response_kind == "yes"
    assert outcome.cycles == 12
    assert outcome.rt_pred == 12.0


def test_ld_no_for_unrelated_stimulus(table1_network, params):
    outcome = lexical_decision(table1_network, "XQZQX", "NL")
    assert outcome.response_kind == "no"
    assert outcome.cycles == params.max_cycles


def test_ld_degenerate_zero_criterion(table1_network):
    p = Parameters().updated(criterion_value=0.0)
    outcome = lexical_decision(table1_network, "AARDE", "NL", p)
    assert outcome.response_kind == "yes"
    assert outcome.cycles == 1


@pytest.mark.parametrize("helper, languages", [
    (lexical_decision, ("DE",)),
    (naming, ("DE",)),
    (word_translation, ("DE", "EN")),
    (word_translation, ("NL", "DE")),
], ids=["lexical_decision", "naming", "word_translation_source", "word_translation_target"])
def test_task_helper_unknown_language(table1_network, helper, languages):
    with pytest.raises(ConfigError, match="unknown language tag 'DE'"):
        helper(table1_network, "AARDE", *languages)


def test_ld_language_specific(table1_network):
    # an English stimulus should not trigger a Dutch YES
    nl = lexical_decision(table1_network, "MONKEY", "NL")
    en = lexical_decision(table1_network, "MONKEY", "EN")
    assert nl.response_kind == "no"
    assert en.response_kind == "yes"


# -- naming --------------------------------------------------------------------

def test_naming_returns_phonological_symbol(table1_network):
    outcome = naming(table1_network, "AAP", "NL")
    assert outcome.response_kind == "symbol"
    assert outcome.response_symbol == "ap"


def test_naming_times_out_on_unrelated_stimulus(table1_network, params):
    outcome = naming(table1_network, "XQZQX", "NL")
    assert outcome.response_kind == "none"
    assert outcome.response_symbol is None
    assert outcome.cycles == params.max_cycles


def test_naming_homograph_selects_wrong_reading(homograph_network):
    # reading the homograph aloud in the other language picks the direct
    # route /rum/, whose concept differs from the Dutch reading's
    outcome = naming(homograph_network, "ROOM", "EN")
    assert outcome.response_symbol == "rum"
    src = homograph_network.find(Pool.ORTHO, "ROOM", "NL")
    chosen = homograph_network.nodes[outcome.node_id]
    assert chosen.concept != src.concept


# -- word translation -----------------------------------------------------------

def test_translation_requires_distinct_languages(params):
    with pytest.raises(ConfigError):
        WordTranslationMonitor("NL", "NL", params)


@pytest.mark.parametrize("task, source, target, message", [
    ("LD", None, "EN", "LD requires a source language"),
    ("LD", "", None, "LD requires a source language"),
    ("NAME", None, None, "NAME requires a language"),
    ("NAME", "", "", "NAME requires a language"),
    ("WT", "NL", None, "WT requires source and target languages"),
])
def test_make_monitor_requires_its_languages(params, task, source, target, message):
    with pytest.raises(ConfigError) as info:
        make_monitor(task, source, target, params)
    assert str(info.value) == message


def test_translation_homograph_correct_with_rejections(homograph_network):
    outcome = word_translation(homograph_network, "ROOM", "NL", "EN")
    assert outcome.response_symbol == "krim"
    rejected = {r.symbol: r.reason for r in outcome.diagnostics.output_rejections}
    assert rejected.get("rum") == "concept"
    assert outcome.n_rejected >= 1


def test_translation_slower_than_naming_baseline(homograph_network):
    wt = word_translation(homograph_network, "ROOM", "NL", "EN")
    name = naming(homograph_network, "ROOM", "EN")
    assert wt.cycles > name.cycles


def test_translation_whole_fixture_both_directions(homograph_lexicon, homograph_network):
    for entry in homograph_lexicon.entries:
        fwd = word_translation(homograph_network, entry.ortho_a, "NL", "EN")
        assert fwd.response_symbol == entry.phono_b, entry.ortho_a
        rev = word_translation(homograph_network, entry.ortho_b, "EN", "NL")
        assert rev.response_symbol == entry.phono_a, entry.ortho_b


def test_translation_low_frequency_calibration_word(table1_network):
    outcome = word_translation(table1_network, "AARDBEI", "NL", "EN")
    assert outcome.response_symbol == "str$b@rI"
    assert outcome.cycles == 32


def test_translation_unknown_stimulus_diagnostics(table1_network, params):
    outcome = word_translation(table1_network, "XQZQX", "NL", "EN")
    assert outcome.response_kind == "none"
    assert outcome.cycles == params.max_cycles
    assert outcome.diagnostics.failure == "no_input_identified"
    assert outcome.diagnostics.input_node is None
    assert outcome.diagnostics.input_rejections == []


def test_translation_input_node_fixed_to_source_language(homograph_network):
    outcome = word_translation(homograph_network, "ROOM", "NL", "EN")
    d = outcome.diagnostics
    input_node = homograph_network.nodes[d.input_node]
    assert input_node.language == "NL"
    assert input_node.symbol == "ROOM"
    # the English reading was scanned and turned away at the input stage
    assert any(r.language == "EN" and r.reason == "language"
               for r in d.input_rejections)


def test_translation_determinism(homograph_network):
    a = word_translation(homograph_network, "ROOM", "NL", "EN")
    b = word_translation(homograph_network, "ROOM", "NL", "EN")
    assert (a.response_symbol, a.cycles) == (b.response_symbol, b.cycles)
    assert [r.node_id for r in a.diagnostics.output_rejections] \
        == [r.node_id for r in b.diagnostics.output_rejections]


def test_translation_accepts_only_matching_concept_and_language(homograph_network):
    outcome = word_translation(homograph_network, "ROOM", "NL", "EN")
    chosen = homograph_network.nodes[outcome.node_id]
    src = homograph_network.find(Pool.ORTHO, "ROOM", "NL")
    assert chosen.language == "EN"
    assert chosen.concept == src.concept


# -- candidates ------------------------------------------------------------------

def _check_candidates(monkeypatch):
    """Patch tasks._candidates so that every list a monitor takes, and the
    lists at two more thresholds on the same state -- the pool's highest
    activation in the row, which one member equals, and the double above
    MAX_ACT -- equal a scan of the state's own pool: its members at or
    above the threshold, in id order. Returns one (pool, threshold, count,
    rows in the step's scan or None, row) per monitor call."""
    candidates = tasks._candidates

    def scanned(state, network, pool, limit):
        return [n for n in members(network, pool) if state.activation[n] >= limit]

    calls = []

    def checked(state, network, pool, limit):
        got = candidates(state, network, pool, limit)
        assert got == scanned(state, network, pool, limit)
        top = state.activation[members(network, pool)].max()
        assert candidates(state, network, pool, top) == scanned(state, network, pool, top) != []
        above = math.nextafter(network.params.MAX_ACT, math.inf)
        assert candidates(state, network, pool, above) == []
        scan, row = state.scan or (None, 0)
        calls.append((pool, limit, len(got), None if scan is None else len(scan.activation), row))
        return got

    monkeypatch.setattr(tasks, "_candidates", checked)
    return calls


TASKS = (("LD", "NL", None), ("NAME", "EN", "EN"), ("WT", "NL", "EN"))


@pytest.mark.parametrize("threshold", [-0.1, 0.0, 0.72])
def test_candidates_match_a_scan_of_the_pool(homograph_network, monkeypatch, threshold):
    # every candidate list the monitors take along full LD, NAME and WT runs
    # is the pool's members at or above the threshold, in id order
    calls = _check_candidates(monkeypatch)
    p = Parameters().updated(criterion_value=threshold, shortlist_input_threshold=threshold,
                             shortlist_output_threshold=threshold)
    for stimulus in ("ROOM", "AARDE", "TUNNEL", "XQZQX"):
        for task, source, target in TASKS:
            run(homograph_network, stimulus, make_monitor(task, source, target, p), p,
                trace=None)
    assert {(pool, limit) for pool, limit, *_rest in calls} \
        == {(Pool.ORTHO, threshold), (Pool.PHONO, threshold)}
    assert any(n for _pool, _limit, n, *_rest in calls)
    assert {rows for *_head, rows, _row in calls} == {None}  # one row reads its own state


def test_candidates_of_many_rows_match_a_scan_of_each_rows_pool(homograph_network,
                                                                 monkeypatch):
    # rows at different gammas that finish at different cycles, so Rows.keep
    # compresses the buffer mid-chunk: each row's lists come from its own
    # stepped activations, never a stale buffer or a neighbouring row. The
    # nonword comes first: its rows find no candidates, so run_rows does not
    # observe them, and the last row must be observed
    calls = _check_candidates(monkeypatch)
    settings = [Parameters().updated(OO_gamma=g, PP_gamma=g) for g in (0.0, -0.01, -0.3, -1.0)]
    stimuli = ("XQZQX", "ROOM", "AARDBEI", "KAMER", "AAP")
    trials, row_params = [], []
    for p in settings:
        for stimulus in stimuli:
            for task, source, target in TASKS:
                trials.append((stimulus, make_monitor(task, source, target, p), None))
                row_params.append(p)
    outcomes = [outcome for _trace, outcome in run_rows(homograph_network, trials, row_params)]
    sizes = {rows for *_head, rows, _row in calls}
    assert len(trials) in sizes and len(sizes - {len(trials), None}) > 1
    assert max(row for *_head, row in calls) == len(trials) - 1
    assert len({outcome.cycles for outcome in outcomes}) > 1
    assert any(n for _pool, _limit, n, *_rest in calls)


def test_candidates_under_the_dense_engine_match_a_scan_of_the_pool(homograph_network,
                                                                    monkeypatch, params):
    # the dense step replaces state.activation: the lists come from the new one
    calls = _check_candidates(monkeypatch)
    dense = DenseEngine(homograph_network)
    for stimulus in ("ROOM", "AARDE"):
        for task, source, target in TASKS:
            dense.run(stimulus, make_monitor(task, source, target, params), params, trace=None)
    assert {rows for *_head, rows, _row in calls} == {None}
    assert any(n for _pool, _limit, n, *_rest in calls)


def test_input_shortlist_is_empty_until_the_input_is_fixed(homograph_lexicon,
                                                           homograph_network, params):
    # the input stage keeps no waiting list: each of its scans fixes the input
    # or rejects every candidate it sees, so while the input is open every
    # orthographic candidate of the cycle is in rejected
    open_after_rejections = []

    class Checked(WordTranslationMonitor):
        def observe(self, state, network):
            outcome = super().observe(state, network)
            if self.diagnostics.input_node is None:
                limit = self.params.shortlist_input_threshold
                assert {n for n in members(network, Pool.ORTHO)
                        if state.activation[n] >= limit} <= self.rejected
                open_after_rejections.append(bool(self.diagnostics.input_rejections))
            return outcome

    trials = [("ROOM", "NL", "EN"), ("ROOM", "EN", "NL")]
    trials += [(entry.ortho_b, "NL", "EN") for entry in homograph_lexicon.entries]
    for p in (params, params.updated(shortlist_input_threshold=0.1)):
        for stimulus, source, target in trials:
            run(homograph_network, stimulus, Checked(source, target, p), p, trace=None)
        run_rows(homograph_network, [(stimulus, Checked(source, target, p), None)
                                     for stimulus, source, target in trials], p)
    assert any(open_after_rejections)


# -- watch -----------------------------------------------------------------------

def _snapshot(monitor):
    """What observe may change: the watch, WT's waiting and rejected ids and
    the diagnostics."""
    return (monitor.watch, [set(getattr(monitor, name)) for name in ("waiting", "rejected")
                            if hasattr(monitor, name)],
            copy.deepcopy(getattr(monitor, "diagnostics", None)))


class _Guarded:
    """Observes through ``monitor``, checking its watch on every cycle: where
    no member of a watched pool is at or above its threshold (a scan of the
    state's own pool), observe returns None and changes nothing. Counts the
    quiet cycles by (task, watch size), and the cycles where a watched pool
    has a member exactly at its threshold."""

    def __init__(self, monitor, counts):
        self.monitor, self.counts = monitor, counts
        self.languages = monitor.languages

    def observe(self, state, network):
        watch = self.monitor.watch
        scans = [state.activation[members(network, pool)] for pool, _limit in watch or ()]
        self.counts["at threshold"] += any((acts == limit).any()
                                           for acts, (_pool, limit) in zip(scans, watch or ()))
        quiet = watch is not None and not any((acts >= limit).any()
                                              for acts, (_pool, limit) in zip(scans, watch))
        before = _snapshot(self.monitor)
        outcome = self.monitor.observe(state, network)
        if quiet:
            assert outcome is None and _snapshot(self.monitor) == before, (state.cycle, watch)
            self.counts[self.monitor.task, len(watch)] += 1
        return outcome

    def timeout(self, state, network):
        return self.monitor.timeout(state, network)


def _at_cycle(network, stimulus, pool, cycle):
    """The pool's highest activation at ``cycle`` of an undecided trial."""
    trace, _outcome = run(network, stimulus, NullMonitor(), Parameters(), trace="full")
    return max(trace.frames[cycle - 1][n] for n in members(network, pool))


@pytest.mark.parametrize("fixture", ["table1", "homograph_lexicon"])
def test_observe_changes_nothing_while_the_watched_scans_are_empty(request, fixture):
    # WT before (two watched pools) and after (one) its input is fixed, LD
    # and NAME; the default thresholds, thresholds that activations reach
    # exactly, and a criterion under the output threshold (WT: no watch)
    network = build_network(request.getfixturevalue(fixture), Parameters())
    entries = request.getfixturevalue(fixture).entries
    stimuli = [entries[0].ortho_a, entries[1].ortho_b, entries[-1].ortho_a, "XQZQX"]
    exact = Parameters().updated(
        shortlist_input_threshold=_at_cycle(network, stimuli[0], Pool.ORTHO, 4),
        shortlist_output_threshold=_at_cycle(network, stimuli[0], Pool.PHONO, 9),
        criterion_value=_at_cycle(network, stimuli[0], Pool.PHONO, 14))
    assert exact.shortlist_output_threshold <= exact.criterion_value
    low = Parameters().updated(criterion_value=0.2, shortlist_output_threshold=0.3)
    counts = collections.Counter()
    for p in (Parameters(), exact, low):
        for stimulus in stimuli:
            for task, source, target in TASKS + (("WT", "EN", "NL"),):
                monitor = make_monitor(task, source, target, p)
                if p is low and task == "WT":
                    assert monitor.watch is None
                run(network, stimulus, _Guarded(monitor, counts), p, trace=None)
    assert counts["at threshold"] > 0
    assert all(counts[key] > 0 for key in (("LD", 1), ("NAME", 1), ("WT", 2), ("WT", 1)))


class _AdmitAtThreshold(WordTranslationMonitor):
    """The reference WT monitor: output candidates wait from the output
    threshold on, and it is observed every cycle."""

    def __init__(self, source_language, target_language, params):
        super().__init__(source_language, target_language, params)
        self.output_level = params.shortlist_output_threshold
        self.watch = None


@pytest.mark.parametrize("fixture", ["table1", "homograph_lexicon"])
def test_wt_admitting_at_the_criterion_matches_admitting_at_the_threshold(request, fixture):
    # criterion above, equal to and below the output threshold, and raised
    # gammas; outcomes compare their diagnostics, rejections with their cycles
    lexicon = request.getfixturevalue(fixture)
    network = build_network(lexicon, Parameters())
    trials = [(e.ortho_a, "NL", "EN") for e in lexicon.entries]
    trials += [(e.ortho_b, "EN", "NL") for e in lexicon.entries]
    changes = [{}, {"shortlist_output_threshold": 0.3},
               {"shortlist_output_threshold": 0.6, "criterion_value": 0.6},
               {"shortlist_output_threshold": 0.5, "criterion_value": 0.45},
               {"OO_gamma": -0.03, "PP_gamma": -0.03, "SS_gamma": -0.01},
               {"OO_gamma": -0.1, "PP_gamma": -0.1, "shortlist_output_threshold": 0.3,
                "criterion_value": 0.5},
               {"OO_gamma": -0.3, "PP_gamma": -0.3, "shortlist_input_threshold": 0.4,
                "shortlist_output_threshold": 0.45, "criterion_value": 0.4}]
    kinds, rejections = collections.Counter(), 0
    for change in changes:
        p = Parameters().updated(**change)
        results = {}
        for monitor in (WordTranslationMonitor, _AdmitAtThreshold):
            results[monitor] = [outcome for _trace, outcome in run_rows(
                network, [(s, monitor(source, target, p), None) for s, source, target in trials],
                p)]
        assert results[WordTranslationMonitor] == results[_AdmitAtThreshold], change
        kinds.update(o.response_kind for o in results[_AdmitAtThreshold])
        rejections += sum(o.n_rejected for o in results[_AdmitAtThreshold])
    assert kinds["symbol"] > 0 and kinds["none"] > 0 and rejections > 0


class _Counting(WordTranslationMonitor):
    """WT that records, after construction and after each observe, the
    cycle, its watch and its rejected ids."""

    def __init__(self, source_language, target_language, params):
        super().__init__(source_language, target_language, params)
        self.log = [(0, self.watch, set())]

    def observe(self, state, network):
        outcome = super().observe(state, network)
        self.log.append((state.cycle, self.watch, set(self.rejected)))
        return outcome


def test_rejected_candidates_wake_no_row(homograph_network):
    # ROOM NL->EN rejects its EN reading as the input and rum, rom and kam@r
    # as outputs, and with raised gammas they stay at or above their watched
    # level; the criterion above, equal to and below the output threshold
    network, quiet = homograph_network, 0
    gammas = (-0.01, -0.03, -0.1)
    for criterion in (0.8, 0.5, 0.45):
        row_params = [Parameters().updated(OO_gamma=g, PP_gamma=g, criterion_value=criterion,
                                           shortlist_output_threshold=0.5) for g in gammas]
        monitors = [_Counting("NL", "EN", p) for p in row_params]
        outcomes = run_rows(network, [("ROOM", m, None) for m in monitors], row_params)
        for p, monitor, (_trace, outcome) in zip(row_params, monitors, outcomes):
            alone = run(network, "ROOM", WordTranslationMonitor("NL", "EN", p), p, trace=None)[1]
            assert outcome == alone and outcome.diagnostics == alone.diagnostics
            trace, _outcome = run(network, "ROOM", NullMonitor(), p.updated(
                max_cycles=outcome.cycles))
            observed = [cycle for cycle, _watch, _rejected in monitor.log[1:]]
            woken = []
            for cycle, frame in enumerate(trace.frames, start=1):
                # the watch and rejections that the observe before this cycle left
                _at, watch, rejected = [entry for entry in monitor.log if entry[0] < cycle][-1]
                found = {n for pool, limit in watch or () for n in members(network, pool)
                         if frame[n] >= limit}
                if watch is None or found - rejected:
                    woken.append(cycle)
                elif found:
                    quiet += 1
            assert observed == woken, (criterion, p.OO_gamma)
    assert quiet > 0


# -- waiting and rejected ids --------------------------------------------------

class _Logged(WordTranslationMonitor):
    """WT that records, after each observe, the cycle, whether the input is
    fixed, the cycle's output candidates (a scan of the state's own pool),
    ``waiting`` as a sorted list, a copy of ``rejected`` and the ``rejected``
    set itself."""

    def __init__(self, source_language, target_language, params):
        super().__init__(source_language, target_language, params)
        self.log = []

    def observe(self, state, network):
        outcome = super().observe(state, network)
        found = {n for n in members(network, Pool.PHONO)
                 if state.activation[n] >= self.output_level}
        self.log.append((state.cycle, self.diagnostics.input_node is not None, found,
                         sorted(self.waiting), set(self.rejected), self.rejected))
        return outcome


def test_shortlist_rejection_is_permanent(homograph_network):
    # with raised gammas ROOM NL->EN rejects rum, rom and kam@r, which then
    # stay at or above the output level to the last cycle without waiting again
    p = Parameters().updated(OO_gamma=-0.03, PP_gamma=-0.03)
    monitor = _Logged("NL", "EN", p)
    _trace, outcome = run(homograph_network, "ROOM", monitor, p, trace=None)
    assert outcome.response_kind == "none"
    assert sorted(r.symbol for r in outcome.diagnostics.output_rejections) == \
        ["kam@r", "rom", "rum"]
    for _cycle, _fixed, _found, waiting, rejected, _set in monitor.log:
        assert rejected.isdisjoint(waiting)
    assert {r.node_id for r in outcome.diagnostics.output_rejections} <= monitor.log[-1][2]


def test_shortlist_entry_records_crossing(homograph_network):
    # an input threshold of 0.77 fixes ROOM NL at cycle 29, four cycles after
    # rum reaches the output level: the candidates wait, each once, until the
    # input is fixed, and each is then rejected or accepted once
    p = Parameters().updated(shortlist_input_threshold=0.77)
    monitor = _Logged("NL", "EN", p)
    _trace, outcome = run(homograph_network, "ROOM", monitor, p, trace=None)
    assert (outcome.response_symbol, outcome.cycles) == ("krim", 29)
    admitted = set()
    for _cycle, fixed, found, waiting, rejected, _set in monitor.log[:-1]:
        admitted |= found - rejected
        assert not fixed and waiting == sorted(admitted - rejected)
    rum = homograph_network.find(Pool.PHONO, "rum", "EN").id
    assert sum(rum in found for _cycle, _fixed, found, *_rest in monitor.log[:-1]) == 4
    ids = [r.node_id for r in outcome.diagnostics.output_rejections]
    assert len(ids) == len(set(ids)) == 3 and outcome.node_id not in ids
    assert sorted(ids + [outcome.node_id]) == monitor.log[-2][3]


def test_wt_rejected_ids_are_one_set_for_both_stages(homograph_network, params):
    # ROOM NL->EN rejects the EN reading of ROOM as its input, then rum, rom
    # and kam@r as outputs, into the one set made with the monitor
    network = homograph_network
    monitor = _Logged("NL", "EN", params)
    rejected = monitor.rejected
    _trace, outcome = run(network, "ROOM", monitor, params, trace=None)
    assert outcome.response_symbol == "krim"
    assert rejected == {network.find(Pool.ORTHO, "ROOM", "EN").id} | {
        network.find(Pool.PHONO, symbol, language).id
        for symbol, language in (("rum", "EN"), ("rom", "NL"), ("kam@r", "NL"))}
    assert monitor.rejected is rejected
    assert all(entry[-1] is rejected for entry in monitor.log)


# -- monitor factory --------------------------------------------------------------

def test_make_monitor_dispatch(params):
    assert make_monitor("LD", "NL", None, params).task == "LD"
    assert make_monitor("NAME", "NL", "EN", params).task == "NAME"
    assert make_monitor("WT", "NL", "EN", params).task == "WT"
    with pytest.raises(ConfigError):
        make_monitor("XX", "NL", "EN", params)
    with pytest.raises(ConfigError):
        make_monitor("WT", "NL", None, params)


def test_null_monitor_times_out(table1_network, params):
    _trace, outcome = run(table1_network, "AARDE", NullMonitor(), params)
    assert outcome.response_kind == "none"
    assert outcome.cycles == params.max_cycles
