"""Command-line entry point.

Subcommands: simulate, fit, stats, bench, dump-network. Every output
carries its run-manifest hash (CSV: a first comment line; JSON: the
manifest_sha256 key), and an output file has the full manifest beside it in
<path>.manifest.json. Identical manifests give byte-identical output
(timings excepted, which is why bench output is labelled machine-dependent).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import replace

from . import __version__
from .errors import ConfigError, InvariantError
from .experiments import (TASKS, _engine_runner, active_node_stats, benchmark,
                          condition_report, outcome_rows, parse_stimuli, report_rows,
                          run_batch, stats_rows)
from .fitting import SearchConfig, fit_inhibition
from .lexicon import ParseOptions, load_lexicon
from .network import build_network
from .params import Parameters, load_parameters, parse_assignment
from .tasks import make_monitor


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def build_manifest(command: str, params: Parameters, lexicon_path: str,
                   extra: dict | None = None) -> dict:
    manifest = {
        "tool": "lexsim",
        "version": __version__,
        "command": command,
        "parameters": params.as_dict(),
        "lexicon_path": lexicon_path,
        "lexicon_sha256": _file_sha256(lexicon_path),
        "deterministic": True,  # no RNG, no seeds, no wall-clock in outputs
    }
    if extra:
        manifest.update(extra)
    return manifest


def manifest_hash(manifest: dict) -> str:
    canonical = json.dumps(manifest, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_output(text: str, manifest: dict, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


def _write_csv(rows, manifest: dict, out_path: str | None) -> None:
    buffer = io.StringIO()
    buffer.write(f"# manifest sha256:{manifest_hash(manifest)}\n")
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    _write_output(buffer.getvalue(), manifest, out_path)


def _resolve_params(args) -> Parameters:
    params = Parameters()
    if args.params:
        with open(args.params, encoding="utf-8") as handle:
            params = load_parameters(handle)
    # all --set flags in one replace (a repeated name: the last wins): only the result is checked
    return replace(params, **dict(map(parse_assignment, args.set or [])))


def _load_lexicon(args):
    options = ParseOptions(language_a=args.lang_a, language_b=args.lang_b,
                           scale_l2_frequencies=args.scale_l2,
                           allow_within_language_homographs=args.allow_homographs)
    return load_lexicon(args.lexicon, options)


def _load_records(args, default_task: str | None, default_source: str | None,
                  default_target: str | None):
    params = _resolve_params(args)
    lexicon = _load_lexicon(args)
    with open(args.stimuli, encoding="utf-8") as handle:
        records = parse_stimuli(handle, default_task=default_task,
                                default_source=default_source, default_target=default_target)
    return params, lexicon, records


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicon", required=True, help="lexicon CSV path")
    parser.add_argument("--params", help="parameter file (NAME = VALUE lines)")
    parser.add_argument("--set", action="append", metavar="NAME=VALUE",
                        help="override one parameter (repeatable)")
    parser.add_argument("--lang-a", default="NL", help="language tag for the first column group")
    parser.add_argument("--lang-b", default="EN", help="language tag for the second column group")
    parser.add_argument("--scale-l2", action="store_true",
                        help="divide language-B frequencies by 4 at load time")
    parser.add_argument("--allow-homographs", action="store_true",
                        help="permit within-language duplicate orthographic readings")
    parser.add_argument("--out", help="output file path (default: stdout)")


def _add_stimuli(parser: argparse.ArgumentParser, task_defaults: bool,
                 stimuli_help: str = "stimulus CSV path") -> None:
    parser.add_argument("--stimuli", required=True, help=stimuli_help)
    if task_defaults:
        parser.add_argument("--source", help="default source language")
        parser.add_argument("--task", choices=TASKS, help="default task for rows without one")
        parser.add_argument("--target", help="default target language")


def _cmd_simulate(args) -> int:
    for flag, count in (("--jobs", args.jobs), ("--trace-top-k", args.trace_top_k)):
        if count < 1:
            raise ConfigError(f"{flag} must be at least 1, got {count}")
    params, lexicon, records = _load_records(args, args.task, args.source, args.target)
    if args.trace and not 0 <= args.trace_row < len(records):
        raise ConfigError(f"--trace-row {args.trace_row} outside the stimulus file")
    network = build_network(lexicon, params)
    rows = run_batch(network, records, params, engine=args.engine, jobs=args.jobs)
    if args.trace and rows[args.trace_row].error:
        raise ConfigError(f"--trace-row {args.trace_row} ({records[args.trace_row].stimulus}) "
                          f"cannot be traced: {rows[args.trace_row].error}")
    manifest = build_manifest("simulate", params, args.lexicon, {
        "stimuli_sha256": _file_sha256(args.stimuli),
        "task_defaults": {"task": args.task, "source": args.source, "target": args.target},
        "engine": args.engine,
    })
    _write_csv(outcome_rows(rows), manifest, args.out)
    if args.report:
        _write_csv(report_rows(condition_report(rows)), manifest, args.report)
    if args.trace:
        record = records[args.trace_row]
        monitor = make_monitor(record.task, record.source_lang, record.target_lang, params)
        runner = _engine_runner(network, args.engine)
        trace, _outcome = runner(record.stimulus, monitor, params, trace="full")
        trace_rows = [["cycle", "node_id", "pool", "language", "symbol", "activation"]]
        for cycle, node_id, pool, language, symbol, act in trace.rows(top_k=args.trace_top_k):
            trace_rows.append([cycle, node_id, pool, language, symbol, repr(act)])
        _write_csv(trace_rows, manifest, args.trace)
    return 0


def _cmd_fit(args) -> int:
    params, lexicon, records = _load_records(args, args.task, args.source, args.target)
    try:
        lower, upper = map(float, args.domain.split(":"))
    except ValueError:  # a bound that is not a number, or not two bounds
        raise ConfigError(f"--domain must be two numbers as lo:hi, got {args.domain!r}") from None
    config = SearchConfig(lower=lower, upper=upper, n_points=args.n, epsilon=args.epsilon,
                          pp_gamma=args.pp_gamma)
    result = fit_inhibition(lexicon, records, config, params)
    manifest = build_manifest("fit", params, args.lexicon, {
        "stimuli_sha256": _file_sha256(args.stimuli),
        "search": {"domain": args.domain, "n": args.n, "epsilon": args.epsilon,
                   "tie": args.pp_gamma is None,
                   "pp_gamma": 0.0 if args.pp_gamma is None else args.pp_gamma},
    })
    log_rows = [["iteration", "window_lo", "window_hi", "point", "fitness",
                 "n_responded", "n_trials", "note"]]
    for i, it in enumerate(result.iterations, start=1):
        for point, fitness, responded, trials, note in zip(
                it.points, it.fitnesses, it.n_responded, it.n_trials, it.notes):
            log_rows.append([i, repr(it.window_lo), repr(it.window_hi),
                             repr(point), repr(fitness), responded, trials, note])
    if args.log is not None:  # stdout holds only the summary
        _write_csv(log_rows, manifest, args.log)
    # strict JSON: a fit where no point scored has no fitness
    fitness = result.best_fitness if math.isfinite(result.best_fitness) else None
    summary = {"best_value": result.best_value, "best_fitness": fitness,
               "iterations": len(result.iterations),
               "manifest_sha256": manifest_hash(manifest)}
    _write_output(json.dumps(summary, sort_keys=True, allow_nan=False) + "\n", manifest, args.out)
    return 0


def _cmd_stats(args) -> int:
    params, lexicon, records = _load_records(args, "LD", None, None)
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g.strip() != ""]
    except ValueError:
        raise ConfigError(f"--gammas must be comma-separated numbers, got {args.gammas!r}") from None
    stats = active_node_stats(lexicon, [r.stimulus for r in records], gammas, params)
    manifest = build_manifest("stats", params, args.lexicon, {
        "stimuli_sha256": _file_sha256(args.stimuli), "gammas": gammas,
    })
    _write_csv(stats_rows(stats), manifest, args.out)
    return 0


def _cmd_bench(args) -> int:
    params, lexicon, records = _load_records(args, "LD", None, None)
    result = benchmark(lexicon, [r.stimulus for r in records], engine=args.engine,
                       params=params, repeats=args.repeats)
    manifest = build_manifest("bench", params, args.lexicon, {
        "stimuli_sha256": _file_sha256(args.stimuli),
        "engine": args.engine, "repeats": args.repeats,
        "note": "timings are machine-dependent",
    })
    _write_csv(result.rows(), manifest, args.out)
    return 0


def _cmd_dump_network(args) -> int:
    params = _resolve_params(args)
    lexicon = _load_lexicon(args)
    network = build_network(lexicon, params)
    manifest = build_manifest("dump-network", params, args.lexicon)
    if args.format == "json":
        payload = {
            "manifest_sha256": manifest_hash(manifest),
            "languages": list(network.languages),
            "nodes": [{"id": n.id, "pool": n.pool.value, "symbol": n.symbol,
                       "language": n.language, "rest": n.rest, "concept": n.concept}
                      for n in network.nodes],
            "connections": [{"from": c.from_id, "to": c.to_id, "weight": c.weight}
                            for c in network.connections()],
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", manifest, args.out)
    else:
        rows = [["from", "to", "weight"]]
        rows += [[c.from_id, c.to_id, repr(c.weight)] for c in network.connections()]
        _write_csv(rows, manifest, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as input errors do;
    exit 2 is left to faults of the program. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexsim", description="bilingual lexical-access simulator")
    parser.add_argument("--version", action="version", version=f"lexsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a stimulus batch and emit outcomes")
    _add_common(p)
    _add_stimuli(p, task_defaults=True)
    p.add_argument("--engine", choices=["final", "dense"], default="final")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, >= 1 (default 1)")
    p.add_argument("--report", help="also write a condition report CSV to this path")
    p.add_argument("--trace", help="write an activation trace CSV for one row")
    p.add_argument("--trace-row", type=int, default=0, help="row index to trace (default 0)")
    p.add_argument("--trace-top-k", type=int, default=6,
                   help="keep the k >= 1 most active nodes in the trace (default 6)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="grid-search the inhibition parameters against RTs")
    _add_common(p)
    _add_stimuli(p, task_defaults=True, stimuli_help="stimulus CSV with rt_ms column")
    p.add_argument("--domain", default="-1:0", help="search domain lo:hi (default -1:0)")
    p.add_argument("--n", type=int, default=20, help="points per window (default 20)")
    p.add_argument("--epsilon", type=float, default=1e-6, help="minimum improvement")
    p.add_argument("--pp-gamma", type=float,
                   help="hold PP_gamma at this value and search OO_gamma only "
                        "(default: PP_gamma tied to OO_gamma)")
    p.add_argument("--log", help="fit log CSV path (default: no log)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("stats", help="active-node counts per inhibition setting")
    _add_common(p)
    _add_stimuli(p, task_defaults=False)
    p.add_argument("--gammas", default="0,-0.0001,-0.001,-0.01,-0.1,-0.2,-0.3,-0.4,-0.5",
                   help="comma-separated inhibition values")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench", help="wall-clock benchmark of the engines")
    _add_common(p)
    _add_stimuli(p, task_defaults=False)
    p.add_argument("--engine", choices=["final", "dense"], default="final")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("dump-network", help="dump nodes and connections for debugging")
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_dump_network)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # input errors are ValueErrors; OverflowError: a net input beyond a double
    except (OSError, ValueError, OverflowError) as exc:
        print(f"lexsim: error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"lexsim: invariant violated: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program; distinct exit code
        print(f"lexsim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
