import math

import pytest

from lexsim import (ConfigError, Network, ParseError, Parameters, active_node_stats, benchmark,
                    build_network, condition_report, parse_stimuli, run, run_batch,
                    synthetic_lexicon)
from lexsim import experiments
from lexsim.experiments import (BatchRow, StimulusRecord, _PoolSizes, _engine_runner,
                                outcome_rows, report_rows, stats_rows)
from lexsim.tasks import TaskOutcome

STIM_CSV = """stimulus,source_lang,target_lang,task,condition,rt_ms
AARDE,NL,,LD,freq_high,520
AARDBEI,NL,EN,WT,freq_low,610
AAP,NL,,NAME,,
"""


def test_parse_stimuli_columns_and_defaults():
    records = parse_stimuli(STIM_CSV)
    assert len(records) == 3
    assert records[0] == StimulusRecord("AARDE", "NL", None, "LD", "freq_high", 520.0)
    assert records[1].target_lang == "EN" and records[1].task == "WT"
    assert records[2].rt_ms is None and records[2].condition is None


def test_parse_stimuli_applies_defaults():
    text = "stimulus,source_lang,task\nAARDE,,\n"
    records = parse_stimuli(text, default_task="LD", default_source="NL")
    assert records[0].task == "LD" and records[0].source_lang == "NL"


def test_parse_stimuli_rejects_unknown_task():
    with pytest.raises(ParseError, match="task"):
        parse_stimuli("stimulus,source_lang,task\nAARDE,NL,XX\n")


def test_parse_stimuli_rejects_unknown_column():
    with pytest.raises(ParseError, match="unknown stimulus columns"):
        parse_stimuli("stimulus,source_lang,oops\nAARDE,NL,1\n")


def test_parse_stimuli_rejects_bad_rt():
    with pytest.raises(ParseError):
        parse_stimuli("stimulus,source_lang,rt_ms\nAARDE,NL,-3\n")


@pytest.mark.parametrize("text, message", [
    ("stimulus,source_lang\n,NL\n", "empty stimulus (row 2)"),
    ("stimulus,source_lang,rt_ms\nAARDE,NL,520\nAAP,NL,fast\n",
     "row 3: non-numeric rt_ms 'fast'"),
], ids=["empty_stimulus", "non_numeric_rt"])
def test_parse_stimuli_names_the_bad_row(text, message):
    with pytest.raises(ParseError) as info:
        parse_stimuli(text)
    assert str(info.value) == message


def test_run_batch_empty(table1, params):
    assert run_batch(table1, [], params) == []


def test_run_batch_ld_all_yes(table1, table1_network, params):
    records = [StimulusRecord(stimulus=e.ortho_a, source_lang="NL", task="LD")
               for e in table1.entries]
    rows = run_batch(table1_network, records, params)
    assert len(rows) == 10
    assert all(row.outcome.response_kind == "yes" for row in rows)


def test_run_batch_mixed_tasks_dispatch(table1_network, params):
    records = parse_stimuli(STIM_CSV)
    rows = run_batch(table1_network, records, params)
    assert [row.outcome.task for row in rows] == ["LD", "WT", "NAME"]
    assert rows[1].outcome.response_symbol == "str$b@rI"


def test_run_batch_records_row_errors_and_continues(table1_network, params):
    records = [StimulusRecord(stimulus="AARDE", source_lang="NL", task="LD"),
               StimulusRecord(stimulus="AARDE", source_lang="XX", task="LD"),
               StimulusRecord(stimulus="AAP", source_lang="NL", task="LD")]
    rows = run_batch(table1_network, records, params)
    assert rows[0].outcome is not None
    assert rows[1].outcome is None and "unknown language" in rows[1].error
    assert rows[2].outcome is not None


def test_run_batch_records_unknown_naming_language(table1_network, params):
    records = [StimulusRecord(stimulus="AARDE", source_lang="NL", target_lang="DE",
                              task="NAME"),
               StimulusRecord(stimulus="AARDE", source_lang="NL", task="NAME")]
    rows = run_batch(table1_network, records, params)
    assert rows[0].outcome is None
    assert rows[0].error == "unknown language tag 'DE'; network has ('NL', 'EN')"
    assert rows[1].outcome.response_kind == "symbol"


def test_run_batch_jobs_deterministic(table1_network, table1, params):
    records = [StimulusRecord(stimulus=e.ortho_a, source_lang="NL", target_lang="EN",
                              task="WT") for e in table1.entries]
    serial = run_batch(table1_network, records, params, jobs=1)
    parallel = run_batch(table1_network, records, params, jobs=8)
    assert [(r.outcome.response_symbol, r.outcome.cycles) for r in serial] \
        == [(r.outcome.response_symbol, r.outcome.cycles) for r in parallel]


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1, 4, None), (2, 4, 2), (100_000, 4, 3), (100_000, 2, 2), (8, None, None), (8, 1, None)])
def test_run_batch_bounds_its_thread_pool(table1_network, params, monkeypatch, jobs, cpus,
                                          workers):
    # min(jobs, records, CPUs) threads, and no pool (serial) where that is 1;
    # the stand-in pool records its size and maps serially, starting no thread
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    records = [StimulusRecord(stimulus=stimulus, source_lang="NL", task="LD")
               for stimulus in ("AARDE", "ROOM", "XQZ")]
    serial = run_batch(table1_network, records, params)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    rows = run_batch(table1_network, records, params, jobs=jobs)
    assert sizes == ([] if workers is None else [workers])
    assert [row.outcome for row in rows] == [row.outcome for row in serial]


def test_run_batch_rejects_unknown_engine(table1, params):
    with pytest.raises(ConfigError):
        run_batch(table1, [], params, engine="warp")


def test_run_batch_rejects_parameters_the_network_fixed_once(table1_network, monkeypatch):
    # the batch fails as a whole, before any row builds a monitor
    monkeypatch.setattr("lexsim.experiments.make_monitor", None)
    records = [StimulusRecord("AARDBEI", "NL", "EN", "WT")] * 2
    with pytest.raises(ConfigError) as info:
        run_batch(table1_network, records, Parameters(IO_multiplier=0.05))
    assert str(info.value) == ("IO_multiplier is fixed by the network (0.2); "
                               "a trial cannot set it to 0.05")


@pytest.mark.parametrize("lexicon_name", ["table1", "homograph_lexicon"])
def test_dense_batch_runs_the_oracle_end_to_end(request, monkeypatch, params, lexicon_name):
    # engine="dense" weights each stimulus with the oracle's scalar loop,
    # never the fast engine's array weighting, and agrees with it row by row
    lexicon = request.getfixturevalue(lexicon_name)
    network = build_network(lexicon, params)
    records = [record for e in lexicon.entries for record in (
        StimulusRecord(e.ortho_a, "NL", "EN", "WT"), StimulusRecord(e.ortho_b, "EN", "NL", "WT"),
        StimulusRecord(e.ortho_a, "NL", None, "LD"), StimulusRecord(e.ortho_b, "EN", None, "NAME"))]
    weighted = []
    array_weights = Network.input_weights

    def counted(net, stimulus):
        weighted.append(stimulus)
        return array_weights(net, stimulus)

    monkeypatch.setattr(Network, "input_weights", counted)
    final = outcome_rows(run_batch(network, records, params))
    assert len(weighted) == len(records)
    weighted.clear()
    assert outcome_rows(run_batch(network, records, params, engine="dense")) == final
    assert weighted == []


def test_outcome_rows_layout(table1_network, params):
    records = parse_stimuli(STIM_CSV)
    rows = outcome_rows(run_batch(table1_network, records, params))
    assert rows[0] == ["stimulus", "task", "source_lang", "target_lang", "response_kind",
                       "response_symbol", "cycles", "rt_pred", "n_rejected", "failure",
                       "input_symbol", "rejected_symbols", "input_rejected_symbols"]
    assert rows[1][0] == "AARDE" and rows[1][4] == "yes"
    assert [row[9] for row in rows[1:]] == ["", "", ""]
    # only the WT trial identifies an input reading
    assert [row[10] for row in rows[1:]] == ["", "AARDBEI", ""]


def test_outcome_rows_failure_column(homograph_lexicon):
    # a WT timeout says whether the input or the output stage failed; LD
    # timeouts and error rows leave the column empty
    params = Parameters().updated(SS_multiplier=1.0)
    records = [StimulusRecord("ROOM", "NL", "EN", "WT"),
               StimulusRecord("XQZQX", "NL", "EN", "WT"),
               StimulusRecord("XQZQX", "NL", None, "LD"),
               StimulusRecord("ROOM", "XX", "EN", "WT")]
    rows = outcome_rows(run_batch(build_network(homograph_lexicon, params), records, params))
    assert [(row[4], row[9]) for row in rows[1:]] == [
        ("none", "no_output_accepted"), ("none", "no_input_identified"),
        ("no", ""), ("error", "")]


def test_outcome_rows_input_and_rejected_symbols(homograph_network, params):
    # the WT monitor turns away the EN reading of ROOM at the input stage,
    # fixes the NL reading, then turns away the output candidates of the
    # wrong language or concept, in rejection order
    records = [StimulusRecord("ROOM", "NL", "EN", "WT"),
               StimulusRecord("AARDE", "NL", None, "LD"),
               StimulusRecord("ROOM", "XX", "EN", "WT")]
    rows = outcome_rows(run_batch(homograph_network, records, params))
    outcome = run_batch(homograph_network, records[:1], params)[0].outcome
    rejected = ";".join(r.symbol for r in outcome.diagnostics.output_rejections)
    input_rejected = ";".join(r.symbol for r in outcome.diagnostics.input_rejections)
    assert rows[1][8:] == [3, "", "ROOM", rejected, input_rejected]
    assert len(rejected.split(";")) == 3 and "kam@r" in rejected.split(";")
    assert "ROOM" in input_rejected.split(";")
    assert rows[2][8:] == [0, "", "", "", ""]
    assert rows[3][4] == "error" and rows[3][8:] == ["", "", "", "", ""]


# -- active-node statistics ----------------------------------------------------

def test_stats_pools_sum_to_overall(table1, params):
    stats = active_node_stats(table1, ["AARDE", "AAP"], [0.0, -0.01], params)
    for gs in stats:
        for means in gs.per_cycle:
            assert means["overall"] == pytest.approx(
                means["ortho"] + means["phono"] + means["sem"])


def test_stats_monotone_under_inhibition(homograph_lexicon, params):
    stimuli = [e.ortho_a for e in homograph_lexicon.entries]
    gammas = [0.0, -0.0001, -0.001, -0.01, -0.1]
    stats = active_node_stats(homograph_lexicon, stimuli, gammas, params)
    finals = [gs.final["overall"] for gs in stats]
    assert all(a >= b for a, b in zip(finals, finals[1:]))
    assert finals[0] > finals[-1]


def test_stats_runs_full_cycle_count(table1, params):
    stats = active_node_stats(table1, ["AARDE"], [0.0], params)
    assert len(stats[0].per_cycle) == params.max_cycles


def test_stats_rejects_positive_gamma(table1, params):
    with pytest.raises(ConfigError):
        active_node_stats(table1, ["AARDE"], [0.1], params)


@pytest.mark.parametrize("fixture", ["table1", "homograph_lexicon"])
def test_stats_as_rows_match_one_run_per_trial(request, fixture, params):
    # every (gamma, stimulus) trial is a row of one run_rows call; the means
    # must be those of one run per trial, summed by the same monitor
    lexicon = request.getfixturevalue(fixture)
    network = build_network(lexicon, params)
    stimuli = [entry.ortho_a for entry in lexicon.entries[:5]] + [
        lexicon.entries[-1].ortho_b, "XQZQX", lexicon.entries[0].ortho_a]
    gammas = [0.0, -0.001, -0.05, -1.0]
    stats = active_node_stats(network, stimuli, gammas, params)
    assert [gs.gamma for gs in stats] == gammas
    for gamma, gs in zip(gammas, stats):
        p = params.updated(OO_gamma=gamma, PP_gamma=gamma)
        sums = [dict.fromkeys(("ortho", "phono", "sem"), 0.0) for _ in range(p.max_cycles)]
        for stimulus in stimuli:
            run(network, stimulus, _PoolSizes(sums), p, trace=None)
        for means, cycle_sums in zip(gs.per_cycle, sums, strict=True):
            expected = {name: total / len(stimuli) for name, total in cycle_sums.items()}
            expected["overall"] = math.fsum(expected.values())
            assert means == expected


def test_stats_rows_layout(table1, params):
    rows = stats_rows(active_node_stats(table1, ["AARDE"], [0.0, -0.1], params))
    assert rows[0] == ["gamma", "cycle", "ortho", "phono", "sem", "overall"]
    assert len(rows) == 1 + 2 * params.max_cycles


# -- condition reports -----------------------------------------------------------

def _fake_row(condition, cycles, rt, responded=True):
    outcome = TaskOutcome(task="LD", response_kind="yes" if responded else "no",
                          response_symbol=None, cycles=cycles, rt_pred=float(cycles))
    record = StimulusRecord(stimulus="X", source_lang="NL", task="LD",
                            condition=condition, rt_ms=rt)
    return BatchRow(record, outcome)


def test_condition_report_perfect_affine():
    rows = [_fake_row("a", c, 25.0 * c + 500.0) for c in (10, 12, 15, 18)]
    reports = {r.condition: r for r in condition_report(rows)}
    assert reports["a"].pearson_r == pytest.approx(1.0)
    assert reports["a"].n_responded == 4
    assert reports["overall_by_item"].pearson_r == pytest.approx(1.0)


def test_condition_report_single_item_has_no_r():
    rows = [_fake_row("solo", 12, 520.0)]
    reports = {r.condition: r for r in condition_report(rows)}
    assert reports["solo"].pearson_r is None
    assert reports["solo"].mean_rt == 520.0
    assert reports["solo"].mean_cycles == 12.0


def test_condition_report_two_condition_means_correlate():
    rows = ([_fake_row("fast", c, 400.0 + c) for c in (10, 11)]
            + [_fake_row("slow", c, 800.0 + c) for c in (20, 22)])
    reports = {r.condition: r for r in condition_report(rows)}
    overall = reports["overall_by_condition"]
    assert overall.n_responded == 2
    assert overall.pearson_r == pytest.approx(1.0)


def test_condition_report_excludes_timeouts():
    rows = [_fake_row("a", 12, 520.0), _fake_row("a", 40, 900.0, responded=False),
            _fake_row("a", 14, 560.0)]
    reports = {r.condition: r for r in condition_report(rows)}
    assert reports["a"].n_responded == 2
    assert reports["a"].n_timeout == 1
    assert reports["a"].mean_cycles == pytest.approx(13.0)


def test_condition_report_permutation_invariant():
    rows = ([_fake_row("a", c, 25.0 * c + 500.0) for c in (10, 14, 12)]
            + [_fake_row("b", c, 30.0 * c + 400.0) for c in (20, 16)])
    forward = condition_report(rows)
    backward = condition_report(list(reversed(rows)))
    assert forward == backward


def test_report_rows_undefined_r_blank():
    rows = [_fake_row("solo", 12, 520.0)]
    table = report_rows(condition_report(rows))
    header, solo = table[0], table[1]
    assert header[-1] == "pearson_r"
    assert solo[-1] == ""


# -- benchmark harness -------------------------------------------------------------

def test_benchmark_empty_batch_reports_build_only(table1, params):
    result = benchmark(table1, [], engine="final", params=params, repeats=1)
    assert result.n_stimuli == 0
    assert result.build_seconds > 0
    assert result.per_stimulus == 0.0


def test_benchmark_repeats_and_counters(table1, params):
    result = benchmark(table1, ["AARDE", "AAP"], engine="final", params=params, repeats=3)
    assert len(result.batch_seconds) == 3
    assert min(result.batch_seconds) <= result.batch_mean <= max(result.batch_seconds)
    assert result.work_active_updates > 0
    rows = result.rows()
    assert rows[0][0] == "engine" and rows[1][0] == "final"


def test_benchmark_work_counter_less_with_inhibition(table1):
    quiet = benchmark(table1, ["AARDE", "AAP"], params=Parameters().updated(
        OO_gamma=-0.1, PP_gamma=-0.1), repeats=1)
    noisy = benchmark(table1, ["AARDE", "AAP"], params=Parameters().updated(
        OO_gamma=0.0, PP_gamma=0.0), repeats=1)
    assert quiet.work_active_updates < noisy.work_active_updates


def test_dense_guard_none_means_no_guard():
    # DenseEngine's default max_entries, None, is no limit, so the dense
    # runner and benchmark build above 500 entries (test_reference checks
    # that an explicit limit refuses)
    lexicon = synthetic_lexicon(501)
    network = build_network(lexicon, Parameters())
    assert _engine_runner(network, "dense") is not None
    assert benchmark(lexicon, [], engine="dense", repeats=1).n_stimuli == 0


def test_benchmark_rejects_bad_repeats(table1, params):
    with pytest.raises(ConfigError):
        benchmark(table1, ["AARDE"], params=params, repeats=0)


# -- synthetic lexicon ----------------------------------------------------------------

def test_synthetic_lexicon_is_deterministic_and_valid():
    lex1 = synthetic_lexicon(50)
    lex2 = synthetic_lexicon(50)
    assert lex1.entries == lex2.entries
    assert len(lex1) == 50
    symbols = [e.ortho_a for e in lex1.entries]
    assert len(set(symbols)) == 50
    assert all(set(e.ortho_a) <= set("BDGKL") for e in lex1.entries)
    assert all(set(e.ortho_b) <= set("MNPRT") for e in lex1.entries)
