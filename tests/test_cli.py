import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lexsim import (Network, Parameters, build_network, load_lexicon, make_monitor, run, step,
                    synthetic_lexicon, table1_path)
from lexsim.cli import main, manifest_hash

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
HOMOGRAPHS = str(FIXTURES / "table1_homographs.csv")

WT_STIMULI = """stimulus,source_lang,target_lang,task,condition,rt_ms
AARDE,NL,EN,WT,control,520
AARDBEI,NL,EN,WT,control,610
ROOM,NL,EN,WT,ih,700
"""

LD_STIMULI = """stimulus,source_lang,target_lang,task,condition,rt_ms
AARDE,NL,,LD,,520
AAP,NL,,LD,,540
AARDIG,NL,,LD,,530
AANBOD,NL,,LD,,560
AARDBEI,NL,,LD,,605
"""


@pytest.fixture()
def stim_wt(tmp_path):
    path = tmp_path / "wt.csv"
    path.write_text(WT_STIMULI)
    return str(path)


@pytest.fixture()
def stim_ld(tmp_path):
    path = tmp_path / "ld.csv"
    path.write_text(LD_STIMULI)
    return str(path)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "lexsim.cli", *args],
                          capture_output=True, text=True)


def test_simulate_writes_outcomes(stim_wt, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest sha256:")
    assert lines[1].split(",")[0] == "stimulus"
    room = [l for l in lines if l.startswith("ROOM")][0]
    assert ",krim," in room
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["deterministic"] is True


def test_simulate_stdout_and_set_override(stim_wt, capsys):
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--set", "OO_gamma=-0.0001"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# manifest sha256:")
    assert "str$b@rI" in text


def test_unknown_parameter_lists_valid_names(stim_wt, capsys):
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--set", "WRONG=1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown parameter" in err
    assert "OO_gamma" in err and "criterion_value" in err


def test_parameter_file_overridden_by_set(stim_wt, tmp_path, capsys):
    # the file caps the run at 30 cycles (AARDBEI needs 32); the --set flag
    # wins over the file and restores the default limit
    pfile = tmp_path / "params.txt"
    pfile.write_text("OO_gamma = -0.01\nmax_cycles = 30\n")
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--params", str(pfile)])
    assert code == 0
    capped = capsys.readouterr().out
    assert "AARDBEI,WT,NL,EN,none" in capped

    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--params", str(pfile), "--set", "max_cycles=40",
                 "--set", "OO_gamma=-0.001"])
    assert code == 0
    restored = capsys.readouterr().out
    assert "AARDBEI,WT,NL,EN,symbol,str$b@rI,32" in restored


@pytest.mark.parametrize("sets", [["MIN_REST=-0.5", "MIN_ACT=-0.6"],
                                  ["MIN_ACT=-0.6", "MIN_REST=-0.5"]],
                         ids=["rest_first", "act_first"])
def test_set_flags_apply_together(stim_wt, tmp_path, sets):
    # MIN_REST=-0.5 alone is below the default MIN_ACT; with MIN_ACT=-0.6 it is in range,
    # whichever flag comes first
    out = tmp_path / "out.csv"
    code = main(["simulate", "--lexicon", str(table1_path()), "--stimuli", stim_wt,
                 "--set", sets[0], "--set", sets[1], "--out", str(out)])
    assert code == 0
    parameters = json.loads(Path(f"{out}.manifest.json").read_text())["parameters"]
    assert (parameters["MIN_REST"], parameters["MIN_ACT"]) == (-0.5, -0.6)


@pytest.mark.parametrize("assignment", ["DECAY_RATE=nan", "criterion_value=nan",
                                        "IO_multiplier=inf", "timestep_multiplier=nan",
                                        "LO_gamma=-0.5", "OP_alpha=-0.03",
                                        "IO_multiplier=-0.2", "DECAY_RATE=1.5",
                                        "criterion_value=1.2",
                                        "shortlist_output_threshold=2"])
def test_simulate_rejects_unusable_parameter(stim_wt, capsys, assignment):
    code = main(["simulate", "--lexicon", str(table1_path()), "--stimuli", stim_wt,
                 "--set", assignment])
    assert code == 1
    assert assignment.split("=")[0] in capsys.readouterr().err


def test_simulate_rejects_infinite_activation_span(stim_wt, capsys):
    code = main(["simulate", "--lexicon", str(table1_path()), "--stimuli", stim_wt,
                 "--set", "MIN_ACT=-1e308", "--set", "MAX_ACT=1e308",
                 "--set", "MAX_REST=1e308", "--set", "L_rest=9e307"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("lexsim: error: MAX_ACT - MIN_ACT must be finite")
    assert "MIN_ACT=-1e+308" in err and "MAX_ACT=1e+308" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_net_input_is_input_error(stim_wt, capsys):
    code = main(["simulate", "--lexicon", str(table1_path()), "--stimuli", stim_wt,
                 "--set", "OP_alpha=1e308", "--set", "PO_alpha=1e308",
                 "--set", "IO_multiplier=1e308"])
    assert code == 1
    assert capsys.readouterr().err == "lexsim: error: intermediate overflow in fsum\n"


def test_missing_lexicon_is_input_error(stim_wt, capsys):
    code = main(["simulate", "--lexicon", "/nonexistent.csv", "--stimuli", stim_wt])
    assert code == 1


@pytest.mark.parametrize("args, message", [
    (["simulate", "--task", "XX"], "argument --task: invalid choice: 'XX'"),
    (["stats", "--task", "LD"], "unrecognized arguments: --task LD"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    # stats and bench read only the stimulus column
    (["stats", "--source", "NL"], "unrecognized arguments: --source NL"),
    (["bench", "--source", "NL"], "unrecognized arguments: --source NL"),
], ids=["invalid_choice", "unrecognized_argument", "unknown_subcommand", "stats_source",
        "bench_source"])
def test_usage_error_exits_1(stim_ld, capsys, args, message):
    # exit 2 is left to faults of the program
    with pytest.raises(SystemExit) as info:
        main([*args, "--lexicon", HOMOGRAPHS, "--stimuli", stim_ld])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lexsim") and message in err


@pytest.mark.parametrize("args", [["--version"], ["-h"], ["simulate", "--help"]])
def test_version_and_help_exit_0(capsys, args):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(("lexsim 0.", "usage: lexsim"))


def test_broken_invariant_exits_2(stim_wt, capsys, monkeypatch):
    def nan_step(state, network, params):
        step(state, network, params)
        state.activation[5] = float("nan")

    monkeypatch.setattr("lexsim.dynamics.step", nan_step)
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt])
    assert code == 2
    assert "lexsim: invariant violated: cycle" in capsys.readouterr().err


def test_broken_invariant_in_a_forked_worker_exits_2(stim_wt, capsys, monkeypatch):
    # the workers fork after the patch, so they inherit it
    def nan_step(state, network, params):
        step(state, network, params)
        state.activation[5] = float("nan")

    monkeypatch.setattr("lexsim.dynamics.step", nan_step)
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt, "--jobs", "2"])
    assert code == 2
    assert "lexsim: invariant violated: cycle" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_in_a_forked_worker_is_input_error(stim_wt, capsys):
    code = main(["simulate", "--lexicon", str(table1_path()), "--stimuli", stim_wt, "--jobs", "2",
                 "--set", "OP_alpha=1e308", "--set", "PO_alpha=1e308",
                 "--set", "IO_multiplier=1e308"])
    assert code == 1
    assert capsys.readouterr().err == "lexsim: error: intermediate overflow in fsum\n"


@pytest.mark.parametrize("text, message", [
    ("stimulus,source_lang,target_lang,task\nAARDBEI,NL,EN,WT,oops\n",
     "row 2: cells beyond the header: ['oops']"),
    ("stimulus,stimulus,task,source_lang\nAARDBEI,AARDE,LD,NL\n",
     "repeated stimulus columns: ['stimulus']"),
], ids=["extra_cells", "repeated_column"])
def test_stimulus_file_that_would_lose_cells_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "stimuli.csv"
    path.write_text(text)
    assert main(["simulate", "--lexicon", str(table1_path()), "--stimuli", str(path)]) == 1
    assert capsys.readouterr() == ("", f"lexsim: error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "dump-network"])
def test_internal_error_exits_2(stim_wt, capsys, monkeypatch, command):
    # an exception that is no input error is a fault of the program
    def broken(lexicon, params):
        raise KeyError("pool")

    monkeypatch.setattr("lexsim.cli.build_network", broken)
    stimuli = ["--stimuli", stim_wt] if command == "simulate" else []
    assert main([command, "--lexicon", HOMOGRAPHS, *stimuli]) == 2
    assert capsys.readouterr().err == "lexsim: internal error: KeyError: 'pool'\n"


@pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--jobs", "-3"),
                                         ("--trace-top-k", "0"), ("--trace-top-k", "-1")])
def test_simulate_rejects_counts_below_one(stim_wt, tmp_path, capsys, flag, value):
    out, trace = tmp_path / "o.csv", tmp_path / "t.csv"
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--out", str(out), "--trace", str(trace), flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"lexsim: error: {flag} must be at least 1, got {value}\n"
    assert not out.exists() and not trace.exists()


def test_fit_rejects_pp_gamma_without_untie(stim_ld, tmp_path, capsys):
    # a tied fit sets PP_gamma to each point, so a fixed PP_gamma would be ignored
    log = tmp_path / "fit.csv"
    code = main(["fit", "--lexicon", HOMOGRAPHS, "--stimuli", stim_ld, "--domain=-0.01:0",
                 "--n", "5", "--pp-gamma", "-0.01", "--log", str(log)])
    assert code == 1
    assert "needs untied gammas" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize("flag, message", [
    ("--epsilon=nan", "epsilon must be finite and > 0, got nan"),
    ("--epsilon=inf", "epsilon must be finite and > 0, got inf"),
    ("--domain=-inf:0", "search domain bounds must be finite, got -inf:0.0"),
    ("--domain=-1", "--domain must be two numbers as lo:hi, got '-1'"),
    ("--domain=-1:0:1", "--domain must be two numbers as lo:hi, got '-1:0:1'"),
    ("--domain=a:b", "--domain must be two numbers as lo:hi, got 'a:b'"),
], ids=["nan_epsilon", "infinite_epsilon", "infinite_bound", "one_bound", "three_bounds",
        "bounds_not_numbers"])
def test_fit_rejects_a_search_it_cannot_honour(stim_ld, tmp_path, capsys, flag, message):
    log = tmp_path / "fit.csv"
    code = main(["fit", "--lexicon", HOMOGRAPHS, "--stimuli", stim_ld, "--n", "5", flag,
                 "--log", str(log)])
    assert code == 1
    assert capsys.readouterr().err == f"lexsim: error: {message}\n"
    assert not log.exists()


def test_fit_subcommand_summary(stim_ld, tmp_path, capsys):
    log = tmp_path / "fit.csv"
    code = main(["fit", "--lexicon", HOMOGRAPHS, "--stimuli", stim_ld,
                 "--domain=-1:0", "--n", "5", "--epsilon", "1e-3",
                 "--log", str(log)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert {"best_value", "best_fitness", "iterations", "manifest_sha256"} <= set(summary)
    header, *rows = log.read_text().splitlines()[1:]
    assert header == "iteration,window_lo,window_hi,point,fitness,n_responded,n_trials,note"
    assert len(rows) == 5 * summary["iterations"]
    for row in rows:
        fitness, responded, trials, note = row.split(",")[4:]
        assert int(trials) == 5 and 0 <= int(responded) <= 5
        # a point scores -inf exactly when the note says why
        assert (fitness == "-inf") == (note != "")


@pytest.mark.parametrize("rts, finite", [((520, 610, 700), True), ((600, 600, 600), False)],
                         ids=["finite", "constant_rts"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_fit_summary_is_strict_json_at_out(tmp_path, capsys, rts, finite, to_file):
    # a fit where no point scores has no fitness: null, not -Infinity
    stimuli = tmp_path / "rts.csv"
    stimuli.write_text("stimulus,source_lang,target_lang,task,rt_ms\n" + "".join(
        f"{word},NL,EN,WT,{rt}\n" for word, rt in zip(("AARDBEI", "AARDE", "AAP"), rts)))
    log, out = tmp_path / "fit.log", tmp_path / "fit.json"
    code = main(["fit", "--lexicon", str(table1_path()), "--stimuli", str(stimuli),
                 "--domain=-0.01:0", "--n", "5", "--log", str(log)]
                + (["--out", str(out)] if to_file else []))
    assert code == 0
    stdout = capsys.readouterr().out
    assert (stdout == "") == to_file and out.exists() == to_file

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    summary = json.loads(out.read_text() if to_file else stdout, parse_constant=no_constant)
    assert set(summary) == {"best_value", "best_fitness", "iterations", "manifest_sha256"}
    assert (type(summary["best_fitness"]) is float) == finite
    assert (summary["best_fitness"] is None) != finite
    assert log.read_text().startswith(f"# manifest sha256:{summary['manifest_sha256']}\n")


def test_fit_without_log_or_out_prints_only_the_summary(stim_wt, capsys):
    # the log goes only to --log: stdout holds one JSON object, no CSV before it
    assert main(["fit", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--domain=-0.01:0", "--n", "5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"best_value", "best_fitness", "iterations", "manifest_sha256"}


@pytest.mark.parametrize("command", [["fit", "--domain=-0.01:0", "--n", "5"],
                                     ["dump-network", "--format", "json"]],
                         ids=["fit", "dump-network"])
def test_json_outputs_write_their_manifest(stim_wt, tmp_path, capsys, command):
    # fit without --log: the manifest file beside --out is its only full copy
    out = tmp_path / "out.json"
    stimuli = ["--stimuli", stim_wt] if command[0] == "fit" else []
    assert main([*command, "--lexicon", HOMOGRAPHS, *stimuli, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["command"] == command[0]
    assert manifest_hash(manifest) == json.loads(out.read_text())["manifest_sha256"]


def test_stats_subcommand(stim_ld, capsys):
    code = main(["stats", "--lexicon", str(table1_path()), "--stimuli", stim_ld,
                 "--gammas", "0,-0.1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "gamma,cycle,ortho,phono,sem,overall"
    assert len(lines) == 2 + 2 * 40


def test_stats_rejects_a_gamma_that_is_not_a_number(stim_ld, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code = main(["stats", "--lexicon", str(table1_path()), "--stimuli", stim_ld,
                 "--gammas", "0, -0.1,x", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err \
        == "lexsim: error: --gammas must be comma-separated numbers, got '0, -0.1,x'\n"
    assert not out.exists()


@pytest.mark.parametrize("gammas, message", [
    ("", "an inhibition sweep needs at least one value"),
    (",", "an inhibition sweep needs at least one value"),
    ("0,0.1", "OO_gamma must be <= 0"),
], ids=["empty", "comma", "positive"])
def test_stats_rejects_a_sweep_it_cannot_run(stim_ld, tmp_path, capsys, gammas, message):
    out = tmp_path / "stats.csv"
    code = main(["stats", "--lexicon", str(table1_path()), "--stimuli", stim_ld,
                 "--gammas", gammas, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"lexsim: error: {message}\n"
    assert not out.exists()


def test_bench_subcommand(stim_ld, capsys):
    code = main(["bench", "--lexicon", str(table1_path()), "--stimuli", stim_ld,
                 "--repeats", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("engine,")


def test_dump_network_json(capsys):
    code = main(["dump-network", "--lexicon", str(table1_path())])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["nodes"]) == 53
    pools = {n["pool"] for n in payload["nodes"]}
    assert pools == {"input", "ortho", "phono", "sem", "lang"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("lexicon", ["fixtures/table1.csv", "tests/fixtures/table1_homographs.csv"])
def test_dump_network_matches_its_golden(monkeypatch, capsys, lexicon, fmt):
    # byte for byte, manifest line included; the manifest names the lexicon
    # path as given, so the dump runs from the repository root, as in CI
    monkeypatch.chdir(ROOT)
    assert main(["dump-network", "--lexicon", lexicon, "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    golden = dict(line.split()[::-1] for line in
                  (FIXTURES / "dump-network.sha256").read_text().splitlines())
    assert digest == golden[f"{Path(lexicon).stem}.{fmt}"]


def test_dump_network_csv_lists_nonzero_connections(capsys):
    def dump(*extra):
        assert main(["dump-network", "--lexicon", str(table1_path()),
                     "--format", "csv", *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "from,to,weight"
        return {tuple(line.split(",")) for line in lines[2:]}

    default = dump()
    # 10 entries x 2 readings x the O-P, O-S and P-S links both ways
    assert len(default) == 120
    assert all(float(weight) != 0.0 for _src, _dst, weight in default)
    with_ol = dump("--set", "OL_alpha=0.05")
    added = with_ol - default
    # one O->L link per orthographic reading, into language node 1 or 2
    assert default < with_ol and len(added) == 20
    assert {(dst, weight) for _src, dst, weight in added} == {("1", "0.05"), ("2", "0.05")}


def test_byte_identical_reruns_with_jobs(stim_wt):
    args = ["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt, "--jobs", "8"]
    first = run_cli(args)
    second = run_cli(args)
    serial = run_cli(args[:-2])
    assert first.returncode == second.returncode == serial.returncode == 0
    assert first.stdout == second.stdout == serial.stdout


def test_trace_export(stim_wt, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--out", str(tmp_path / "o.csv"), "--trace", str(trace),
                 "--trace-top-k", "6"])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[1] == "cycle,node_id,pool,language,symbol,activation"
    node_ids = {line.split(",")[1] for line in lines[2:]}
    assert len(node_ids) == 6


def _reference_trace(stimulus, top_k):
    """The trace CSV of a WT NL->EN trial on the homograph fixture, manifest
    line aside, in plain Python: the nodes above their rest in some frame,
    each node's peak a max over every frame, the top_k highest peaks, ties
    to the lower id, in id order."""
    network = build_network(load_lexicon(HOMOGRAPHS), Parameters())
    trace, _outcome = run(network, stimulus, make_monitor("WT", "NL", "EN", Parameters()))
    ids = [node.id for node in network.nodes
           if any(frame[node.id] > node.rest for frame in trace.frames)]
    if len(ids) > top_k:
        peak = {n: max(frame[n] for frame in trace.frames) for n in ids}
        ids = sorted(sorted(ids, key=lambda n: -peak[n])[:top_k])
    rows = [["cycle", "node_id", "pool", "language", "symbol", "activation"]]
    for cycle, frame in enumerate(trace.frames, start=1):
        for n in ids:
            node = network.nodes[n]
            rows.append([cycle, n, node.pool.value, node.language or "", node.symbol,
                         repr(frame[n])])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


@pytest.mark.parametrize("row, top_k", [(0, 1), (2, 6), (2, 40), (1, 1000)])
def test_trace_top_k_keeps_the_highest_peaks_byte_for_byte(stim_wt, tmp_path, row, top_k):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--out", str(tmp_path / "o.csv"), "--trace", str(trace),
                 "--trace-row", str(row), "--trace-top-k", str(top_k)]) == 0
    stimulus = ("AARDE", "AARDBEI", "ROOM")[row]
    assert trace.read_bytes().split(b"\n", 1)[1] == _reference_trace(stimulus, top_k)


def test_dense_trace_runs_the_oracle(tmp_path, monkeypatch):
    # --engine dense traces its row through the oracle end to end, which
    # weights with the scalar loop, and writes the final engine's trace rows
    stimuli = tmp_path / "s.csv"
    stimuli.write_text("stimulus,source_lang,target_lang,task\nAAP,NL,,LD\nAARDBEI,NL,EN,WT\n")
    lexicon = str(Path(__file__).parent.parent / "fixtures" / "table1.csv")
    traces = {engine: tmp_path / f"{engine}.csv" for engine in ("final", "dense")}
    assert main(["simulate", "--lexicon", lexicon, "--stimuli", str(stimuli),
                 "--out", str(tmp_path / "o.csv"), "--trace", str(traces["final"]),
                 "--trace-row", "1"]) == 0

    def weighting_forbidden(*args):
        raise AssertionError("the dense engine called Network.input_weights")

    monkeypatch.setattr(Network, "input_weights", weighting_forbidden)
    assert main(["simulate", "--lexicon", lexicon, "--stimuli", str(stimuli), "--engine", "dense",
                 "--out", str(tmp_path / "d.csv"), "--trace", str(traces["dense"]),
                 "--trace-row", "1"]) == 0
    # the first line is the manifest hash, which names the engine
    final, dense = (traces[engine].read_bytes().split(b"\n", 1) for engine in traces)
    assert dense[1] == final[1] and final[1].count(b"\n") > 100


def test_dense_engine_simulates_a_lexicon_of_any_size(tmp_path):
    # the dense engine takes no entry limit: on 600 entries it writes the
    # final engine's outcome rows
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text("ortho_a,freq_a,phono_a,freq_pa,ortho_b,freq_b,phono_b,freq_pb\n" + "".join(
        f"{e.ortho_a},{e.freq_a},{e.phono_a},{e.freq_a},{e.ortho_b},{e.freq_b},{e.phono_b},"
        f"{e.freq_b}\n" for e in synthetic_lexicon(600).entries))
    stimuli = tmp_path / "s.csv"
    stimuli.write_text("stimulus,source_lang,target_lang,task\n"
                       "BBBBB,NL,EN,WT\nMTTRP,EN,,LD\nDLKGB,NL,NL,NAME\n")
    outputs = {}
    for engine in ("final", "dense"):
        outputs[engine] = tmp_path / f"{engine}.csv"
        assert main(["simulate", "--lexicon", str(lexicon), "--stimuli", str(stimuli),
                     "--engine", engine, "--out", str(outputs[engine])]) == 0
    # the first line is the manifest hash, which names the engine
    final, dense = (outputs[engine].read_bytes().split(b"\n", 1)[1] for engine in outputs)
    assert dense == final and final.count(b"\n") == 4


@pytest.mark.parametrize("row, cause", [
    ("2", "--trace-row 2 outside the stimulus file"),
    ("1", "--trace-row 1 (AARDE) cannot be traced: "
          "unknown language tag 'DE'; network has ('NL', 'EN')")],
    ids=["out_of_range", "row_error"])
def test_trace_row_that_cannot_be_traced_writes_nothing(tmp_path, capsys, row, cause):
    # the batch's other rows succeed; the command still writes no output
    stimuli = tmp_path / "s.csv"
    stimuli.write_text("stimulus,source_lang,target_lang,task\nAARDE,NL,EN,WT\nAARDE,NL,DE,WT\n")
    out, trace = tmp_path / "o.csv", tmp_path / "t.csv"
    code = main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", str(stimuli),
                 "--out", str(out), "--trace", str(trace), "--trace-row", row])
    assert code == 1
    assert capsys.readouterr().err == f"lexsim: error: {cause}\n"
    assert list(tmp_path.iterdir()) == [stimuli]


def test_outputs_carry_python_floats(stim_wt, tmp_path, capsys):
    # repr of a numpy float64 reads "np.float64(...)"; every written number
    # must come from a Python float
    paths = [tmp_path / name for name in ("o.csv", "report.csv", "trace.csv", "dump.csv")]
    assert main(["simulate", "--lexicon", HOMOGRAPHS, "--stimuli", stim_wt,
                 "--out", str(paths[0]), "--report", str(paths[1]), "--trace", str(paths[2]),
                 "--trace-top-k", "40"]) == 0
    assert main(["dump-network", "--lexicon", HOMOGRAPHS, "--format", "csv",
                 "--out", str(paths[3])]) == 0
    assert main(["dump-network", "--lexicon", HOMOGRAPHS]) == 0
    texts = [path.read_text() for path in paths] + [capsys.readouterr().out]
    assert len(paths[2].read_text().splitlines()) > 40
    for text in texts:
        assert "np.float64(" not in text and "float64" not in text
