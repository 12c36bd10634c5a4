import pytest

from lexsim import (ConfigError, Parameters, lexical_decision, naming, run,
                    word_translation)
from lexsim import tasks
from lexsim.network import Pool
from lexsim.tasks import (NullMonitor, Shortlist, WordTranslationMonitor, make_monitor)


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

@pytest.mark.parametrize("threshold", [-0.1, 0.0, 0.72])
def test_candidates_match_a_scan_of_the_pool(homograph_network, monkeypatch, threshold):
    # every candidate list the monitors take along full LD, NAME and WT runs
    # is the pool's members at or above the threshold, in id order
    candidates = tasks._candidates
    calls = []

    def checked(state, network, pool, limit):
        got = candidates(state, network, pool, limit)
        act = state.activation
        assert got == [n for n in network.pool_ids[pool] if act[n] >= limit]
        calls.append((pool, limit, len(got)))
        return got

    monkeypatch.setattr(tasks, "_candidates", checked)
    p = Parameters().updated(criterion_value=threshold, shortlist_input_threshold=threshold,
                             shortlist_output_threshold=threshold)
    for stimulus in ("ROOM", "AARDE", "TUNNEL", "XQZQX"):
        for task, source, target in (("LD", "NL", None), ("NAME", "EN", "EN"),
                                     ("WT", "NL", "EN")):
            run(homograph_network, stimulus, make_monitor(task, source, target, p), p,
                trace=None)
    assert {(pool, limit) for pool, limit, _n in calls} \
        == {(Pool.ORTHO, threshold), (Pool.PHONO, threshold)}
    assert any(n for _pool, _limit, n in calls)


# -- shortlist mechanics ---------------------------------------------------------

def test_shortlist_rejection_is_permanent():
    shortlist = Shortlist()
    shortlist.admit(7)
    shortlist.reject(7)
    shortlist.admit(7)  # re-crossing must not re-enter
    assert shortlist.admitted == set()
    assert shortlist.rejected == {7}


def test_shortlist_entry_records_crossing():
    shortlist = Shortlist()
    shortlist.admit(3)
    shortlist.admit(3)  # still above threshold on a later cycle
    shortlist.admit(5)
    assert shortlist.admitted == {3, 5}
    assert shortlist.rejected == set()


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
