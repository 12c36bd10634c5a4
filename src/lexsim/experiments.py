"""Batch simulation, condition-level aggregation, active-node statistics,
and the wall-clock benchmark harness."""

from __future__ import annotations

import csv
import functools
import math
import os
import time
from dataclasses import dataclass, field
from typing import IO, Sequence

from .dynamics import check_trial_params, run as run_trial, run_rows
from .errors import ConfigError, ParseError
from .fitting import pearson
from .lexicon import Lexicon, LexiconEntry
from .network import INHIBITED_POOLS, Network, build_network
from .params import Parameters
from .reference import DenseEngine
from .tasks import NullMonitor, TaskOutcome, make_monitor

TASKS = ("LD", "NAME", "WT")

STIMULUS_COLUMNS = ("stimulus", "source_lang", "target_lang", "task", "condition", "rt_ms")


@dataclass(frozen=True)
class StimulusRecord:
    stimulus: str
    source_lang: str
    target_lang: str | None = None
    task: str = "LD"
    condition: str | None = None
    rt_ms: float | None = None

    def validate(self, row: int | None = None) -> None:
        where = f" (row {row})" if row is not None else ""
        if not self.stimulus:
            raise ParseError(f"empty stimulus{where}")
        if self.task not in TASKS:
            raise ParseError(f"unknown task {self.task!r}{where}; expected one of {TASKS}")
        if self.rt_ms is not None and not (math.isfinite(self.rt_ms) and self.rt_ms > 0):
            raise ParseError(f"rt_ms must be > 0 when present{where}")


def parse_stimuli(source: str | IO[str],
                  default_task: str | None = None,
                  default_source: str | None = None,
                  default_target: str | None = None) -> list[StimulusRecord]:
    """Parse the stimulus CSV (header required, optional columns may be empty).

    Per-row values win over the defaults, which fill empty cells.
    """
    text = source if isinstance(source, str) else source.read()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        return []
    unknown = set(reader.fieldnames) - set(STIMULUS_COLUMNS)
    if unknown:
        raise ParseError(f"unknown stimulus columns: {sorted(unknown)}")
    repeated = sorted({name for name in reader.fieldnames if reader.fieldnames.count(name) > 1})
    if repeated:
        raise ParseError(f"repeated stimulus columns: {repeated}")
    records = []
    for row_no, row in enumerate(reader, start=2):
        if None in row:  # DictReader files the cells beyond the header under None
            raise ParseError(f"row {row_no}: cells beyond the header: {row[None]}")
        get = lambda key: (row.get(key) or "").strip()
        rt_raw = get("rt_ms")
        try:
            rt = float(rt_raw) if rt_raw else None
        except ValueError:
            raise ParseError(f"row {row_no}: non-numeric rt_ms {rt_raw!r}") from None
        record = StimulusRecord(
            stimulus=get("stimulus"),
            source_lang=get("source_lang") or (default_source or ""),
            target_lang=get("target_lang") or default_target,
            task=get("task") or (default_task or "LD"),
            condition=get("condition") or None,
            rt_ms=rt,
        )
        record.validate(row_no)
        records.append(record)
    return records


@dataclass
class BatchRow:
    record: StimulusRecord
    outcome: TaskOutcome | None
    error: str | None = None


def _engine_runner(network: Network, engine: str):
    """``runner(stimulus, monitor, params, trace)`` over ``network``: dynamics.run for "final",
    DenseEngine.run for "dense"."""
    if engine == "final":
        return functools.partial(run_trial, network)
    if engine == "dense":
        return DenseEngine(network).run
    raise ConfigError(f"unknown engine {engine!r}; expected final or dense")


def _run_in_worker(record: StimulusRecord) -> BatchRow:
    """One row in a forked worker, by the ``one`` its pool's initializer set."""
    return _run_in_worker.one(record)


def run_batch(lexicon: Lexicon | Network, records: Sequence[StimulusRecord],
              params: Parameters | None = None, engine: str = "final",
              jobs: int = 1) -> list[BatchRow]:
    """One outcome per stimulus record, in input order.

    Per-row task errors are recorded and the batch continues; parameters
    the network fixed raise ConfigError before the first row. Rows are
    independent trials over the shared network, so the result is the same
    for every ``jobs``. ``jobs > 1`` forks min(jobs, records, CPUs) worker
    processes, each running a contiguous slice of the records; where that
    is 1, or fork is unavailable, rows run serially (README, Library).
    """
    network = lexicon if isinstance(lexicon, Network) else build_network(lexicon, params or Parameters())
    params = check_trial_params(network, params)
    runner = _engine_runner(network, engine)

    def one(record: StimulusRecord) -> BatchRow:
        try:
            monitor = make_monitor(record.task, record.source_lang,
                                   record.target_lang, params)
            _trace, outcome = runner(record.stimulus, monitor, params, trace=None)
            return BatchRow(record, outcome)
        except (ConfigError, ValueError) as exc:
            return BatchRow(record, None, error=str(exc))

    workers = min(jobs, len(records), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [one(r) for r in records]
    # imported here, as a serial batch needs neither (about 1 MB); forked, not spawned, so
    # the workers inherit the network and ``one``, and only records and rows are pickled
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=setattr, initargs=(_run_in_worker, "one", one)) as pool:
        return list(pool.map(_run_in_worker, records, chunksize=-(-len(records) // workers)))


def outcome_rows(rows: Sequence[BatchRow]) -> list[list]:
    """Outcome table in the fixed CSV column order."""
    out = [["stimulus", "task", "source_lang", "target_lang", "response_kind",
            "response_symbol", "cycles", "rt_pred", "n_rejected", "failure",
            "input_symbol", "rejected_symbols", "input_rejected_symbols"]]
    for row in rows:
        r = row.record
        record = [r.stimulus, r.task, r.source_lang, r.target_lang or ""]
        if row.outcome is None:
            out.append(record + ["error", row.error or "", "", "", "", "", "", "", ""])
            continue
        o, d = row.outcome, row.outcome.diagnostics
        out.append(record + [o.response_kind, o.response_symbol or "", o.cycles,
                             repr(o.rt_pred), o.n_rejected, d.failure or "", d.input_symbol or "",
                             ";".join(rej.symbol for rej in d.output_rejections),
                             ";".join(rej.symbol for rej in d.input_rejections)])
    return out


# -- active-node statistics ------------------------------------------------

@dataclass
class GammaStats:
    gamma: float
    # mean active-node counts over stimuli, one dict per cycle
    per_cycle: list[dict[str, float]]

    @property
    def final(self) -> dict[str, float]:
        return self.per_cycle[-1]


class _PoolSizes(NullMonitor):
    """Never decides; adds each cycle's active-set size per pool to ``sums``."""

    def __init__(self, sums: list[dict[str, float]]):
        self.sums = sums

    def observe(self, state, network):
        cycle_sums = self.sums[state.cycle - 1]
        for pool, members in state.active_by_pool.items():
            cycle_sums[pool.value] += len(members)
        return None


def active_node_stats(lexicon: Lexicon | Network, stimuli: Sequence[str],
                      gammas: Sequence[float], params: Parameters | None = None) -> list[GammaStats]:
    """Mean active-set sizes by pool for each inhibition setting.

    Runs every stimulus to max_cycles without early stopping, with OO and PP
    gamma tied to the swept value: every (gamma, stimulus) trial is a row of
    one run_rows call.
    """
    network = lexicon if isinstance(lexicon, Network) else build_network(lexicon, params or Parameters())
    base = params or network.params
    if not gammas:
        raise ConfigError("an inhibition sweep needs at least one value")
    settings = [base.updated(OO_gamma=gamma, PP_gamma=gamma) for gamma in gammas]
    names = [pool.value for pool in INHIBITED_POOLS]
    sums = [[dict.fromkeys(names, 0.0) for _ in range(p.max_cycles)] for p in settings]
    run_rows(network, [(stimulus, _PoolSizes(s), None) for s in sums for stimulus in stimuli],
             [p for p in settings for _stimulus in stimuli])
    n = max(1, len(stimuli))
    for means in (cycle_sums for gamma_sums in sums for cycle_sums in gamma_sums):
        for name in names:
            means[name] /= n
        means["overall"] = math.fsum(means.values())
    return [GammaStats(gamma=gamma, per_cycle=per_cycle) for gamma, per_cycle in zip(gammas, sums)]


def stats_rows(stats: Sequence[GammaStats]) -> list[list]:
    out = [["gamma", "cycle", "ortho", "phono", "sem", "overall"]]
    for gs in stats:
        for cycle, means in enumerate(gs.per_cycle, start=1):
            out.append([repr(gs.gamma), cycle, repr(means["ortho"]), repr(means["phono"]),
                        repr(means["sem"]), repr(means["overall"])])
    return out


# -- condition-level aggregation --------------------------------------------

@dataclass
class ConditionReport:
    condition: str
    n_responded: int
    n_timeout: int
    mean_rt: float | None
    mean_cycles: float | None
    pearson_r: float | None


def _safe_pearson(xs: list[float], ys: list[float]) -> float | None:
    try:
        return pearson(xs, ys)
    except ValueError:
        return None


def _mean(values: list[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def _group_report(condition: str, rows: Sequence[BatchRow]) -> ConditionReport:
    """Counts, means and the cycles-RT correlation of one group of rows."""
    responded = [r for r in rows if r.outcome is not None and r.outcome.responded]
    paired = [(float(r.outcome.cycles), r.record.rt_ms)
              for r in responded if r.record.rt_ms is not None]
    return ConditionReport(
        condition=condition,
        n_responded=len(responded),
        n_timeout=len(rows) - len(responded),
        mean_rt=_mean([rt for _, rt in paired]),
        mean_cycles=_mean([float(r.outcome.cycles) for r in responded]),
        pearson_r=_safe_pearson([c for c, _ in paired], [rt for _, rt in paired]),
    )


def condition_report(rows: Sequence[BatchRow]) -> list[ConditionReport]:
    """Per-condition means and correlations, plus overall by-item and
    by-condition rows. Non-responses are excluded pairwise; undefined
    correlations are reported as absent, never as zero."""
    by_condition: dict[str, list[BatchRow]] = {}
    for row in rows:
        by_condition.setdefault(row.record.condition or "", []).append(row)

    reports = [_group_report(condition, by_condition[condition])
               for condition in sorted(by_condition)]
    condition_means = [(r.mean_cycles, r.mean_rt) for r in reports
                       if r.mean_cycles is not None and r.mean_rt is not None]
    reports.append(_group_report("overall_by_item", rows))
    reports.append(ConditionReport(
        condition="overall_by_condition",
        n_responded=len(condition_means),
        n_timeout=0,
        mean_rt=_mean([rt for _, rt in condition_means]),
        mean_cycles=_mean([c for c, _ in condition_means]),
        pearson_r=_safe_pearson([c for c, _ in condition_means],
                                [rt for _, rt in condition_means]),
    ))
    return reports


def report_rows(reports: Sequence[ConditionReport]) -> list[list]:
    out = [["condition", "n_responded", "n_timeout", "mean_rt", "mean_cycles", "pearson_r"]]
    for r in reports:
        out.append([r.condition, r.n_responded, r.n_timeout,
                    "" if r.mean_rt is None else repr(r.mean_rt),
                    "" if r.mean_cycles is None else repr(r.mean_cycles),
                    "" if r.pearson_r is None else repr(r.pearson_r)])
    return out


# -- benchmark harness -------------------------------------------------------

@dataclass
class BenchmarkResult:
    engine: str
    n_stimuli: int
    repeats: int
    build_seconds: float
    batch_seconds: list[float] = field(default_factory=list)
    work_active_updates: int = 0
    work_touched_updates: int = 0

    @property
    def batch_mean(self) -> float:
        return math.fsum(self.batch_seconds) / len(self.batch_seconds)

    @property
    def per_stimulus(self) -> float:
        if self.n_stimuli == 0:
            return 0.0
        return self.batch_mean / self.n_stimuli

    def rows(self) -> list[list]:
        header = ["engine", "n_stimuli", "repeats", "build_s", "batch_mean_s",
                  "batch_min_s", "batch_max_s", "per_stimulus_s",
                  "work_active_updates", "work_touched_updates"]
        return [header, [self.engine, self.n_stimuli, self.repeats,
                         repr(self.build_seconds), repr(self.batch_mean),
                         repr(min(self.batch_seconds)), repr(max(self.batch_seconds)),
                         repr(self.per_stimulus),
                         self.work_active_updates, self.work_touched_updates]]


class _WorkCounters(NullMonitor):
    """Never decides; keeps the trial's final work counters."""

    def timeout(self, state, network):
        self.counters = state.counters
        return super().timeout(state, network)


def benchmark(lexicon: Lexicon, stimuli: Sequence[str], engine: str = "final",
              params: Parameters | None = None, repeats: int = 3) -> BenchmarkResult:
    """Wall-clock timings for a stimulus batch, model build reported apart.

    Each stimulus runs to max_cycles (no task early-stopping); the
    deterministic work counters come from the final repeat.
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    params = params or Parameters()
    t0 = time.perf_counter()
    network = build_network(lexicon, params)
    runner = _engine_runner(network, engine)
    build_seconds = time.perf_counter() - t0

    batch_times = []
    for _ in range(repeats):
        active = touched = 0
        t_start = time.perf_counter()
        for stimulus in stimuli:
            monitor = _WorkCounters()
            runner(stimulus, monitor, params, trace=None)
            active += monitor.counters["active_node_updates"]
            touched += monitor.counters["touched_updates"]
        batch_times.append(time.perf_counter() - t_start)
    return BenchmarkResult(engine=engine, n_stimuli=len(stimuli), repeats=repeats,
                           build_seconds=build_seconds, batch_seconds=batch_times,
                           work_active_updates=active, work_touched_updates=touched)


# -- synthetic inputs --------------------------------------------------------

def synthetic_lexicon(n_pairs: int, language_a: str = "NL", language_b: str = "EN") -> Lexicon:
    """Deterministic generated lexicon with dense orthographic neighbourhoods.

    Language-A words are base-5 codes over one alphabet (so many pairs are
    one-letter neighbours); language-B words use a disjoint alphabet.
    """
    def encode(i: int, alphabet: str, length: int = 5) -> str:
        digits = []
        for _ in range(length):
            digits.append(alphabet[i % len(alphabet)])
            i //= len(alphabet)
        return "".join(reversed(digits))

    entries = []
    for i in range(n_pairs):
        freq_a = 1.0 + (i % 97) * 3.7
        freq_b = 0.5 + ((i * 7) % 89) * 2.3
        entries.append(LexiconEntry(
            ortho_a=encode(i, "BDGKL"), freq_a=freq_a,
            phono_a=encode(i, "bdgkl"),
            ortho_b=encode(i, "MNPRT"), freq_b=freq_b,
            phono_b=encode(i, "mnprt")))
    return Lexicon(entries=entries, language_a=language_a, language_b=language_b)
