"""The benchmark's three workloads and the code that measures them.

Every workload runs in one process, one trial after another (a closed loop
with one client), with ``jobs=1``. A workload has three parts:

* ``generate``: write the seeded inputs (CSV files) under the output
  directory; untimed and untraced.
* ``setup``: ``load_lexicon`` + ``build_network``; this is ``setup_s``.
* ``job``: the timed unit -- one trial (mixed_1k, wt_10k) or one complete
  fit (fit_homograph). ``finish`` writes the outcome CSV or fit log the way
  the ``simulate``/``fit`` commands do.

The benchmark calls the package only through module attributes looked up
at call time (``lexsim.run_batch(...)``), so the traced run can wrap them.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import generate

import lexsim
from lexsim import cli, experiments

DATA = Path(__file__).resolve().parent / "data"

# the criterion-7 fit: RTs generated at this gamma, then searched for
GENERATING_GAMMA = -0.001
FIT_CONFIG = dict(lower=-1.0, upper=0.0, n_points=20, epsilon=1e-6)


def outcome_key(outcome) -> list:
    """The golden-checked part of a trial's outcome."""
    return [outcome.response_kind, outcome.response_symbol, outcome.cycles,
            outcome.n_rejected]


class Workload:
    name = ""
    golden_repeats = False
    # units a traced run executes; fixed so its counts repeat exactly
    traced_units = 1

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.params = lexsim.Parameters()
        self.lexicon = self.network = None
        self.records: list = []
        self.results: list = []

    def setup(self) -> None:
        self.lexicon = lexsim.load_lexicon(self.lexicon_path)
        self.network = lexsim.build_network(self.lexicon, self.params)

    def manifest(self) -> dict:
        return cli.build_manifest(self.name, self.params, str(self.lexicon_path),
                                  {"seed": self.seed})


class BatchWorkload(Workload):
    """Trials over a generated lexicon, written out as outcome rows."""

    n_pairs = 0
    n_stimuli = 0
    make_stimuli = None

    def generate(self) -> None:
        entries, kinds = generate.make_lexicon(self.n_pairs, self.seed)
        self.lexicon_path = self.outdir / f"{self.name}-{self.seed}-lexicon.csv"
        self.stimuli_path = self.outdir / f"{self.name}-{self.seed}-stimuli.csv"
        generate.write_lexicon(self.lexicon_path, entries)
        generate.write_stimuli(self.stimuli_path,
                               type(self).make_stimuli(entries, kinds, self.n_stimuli,
                                                       self.seed))
        self.target_symbols = {"NL": {e[2] for e in entries}, "EN": {e[5] for e in entries}}

    def load_records(self) -> None:
        with open(self.stimuli_path, encoding="utf-8") as handle:
            self.records = lexsim.parse_stimuli(handle)
        self.results = []

    @property
    def units(self) -> int:
        return len(self.records)

    def trials(self, k: int) -> int:
        return 1

    def finish(self) -> None:
        rows = experiments.outcome_rows(self.results)
        cli._write_csv(rows, self.manifest(), str(self.outdir / f"{self.name}-outcomes.csv"))

    def keys(self) -> list:
        """Per completed trial: the golden key, or an error string."""
        return [row.error if row.outcome is None
                else [row.record.stimulus, row.record.task] + outcome_key(row.outcome)
                for row in self.results]

    def implausible(self, k: int) -> str | None:
        """A reason the k-th outcome cannot be right whatever the seed."""
        row = self.results[k]
        o, r = row.outcome, row.record
        if o is None:
            return f"raised: {row.error}"
        allowed = {"LD": ("yes", "no"), "NAME": ("symbol", "none"), "WT": ("symbol", "none")}
        if o.response_kind not in allowed[r.task]:
            return f"response kind {o.response_kind!r} for {r.task}"
        if not 1 <= o.cycles <= self.params.max_cycles:
            return f"cycles {o.cycles}"
        if not o.responded and o.cycles != self.params.max_cycles:
            return "no response before the cycle limit"
        if o.response_kind == "symbol" and \
                o.response_symbol not in self.target_symbols[r.target_lang]:
            return f"{o.response_symbol!r} is not a {r.target_lang} reading"
        return None


class Mixed1k(BatchWorkload):
    name = "mixed_1k"
    n_pairs = 1000
    n_stimuli = 1000
    traced_units = 30
    make_stimuli = staticmethod(generate.mixed_stimuli)

    def job(self, k: int) -> None:
        record = self.records[k]
        try:
            if record.task == "LD":
                outcome = lexsim.lexical_decision(self.network, record.stimulus,
                                                  record.target_lang, self.params)
            elif record.task == "NAME":
                outcome = lexsim.naming(self.network, record.stimulus,
                                        record.target_lang, self.params)
            else:
                outcome = lexsim.word_translation(self.network, record.stimulus,
                                                  record.source_lang, record.target_lang,
                                                  self.params)
            self.results.append(lexsim.BatchRow(record, outcome))
        except Exception as exc:  # a failed trial is counted, the run goes on
            self.results.append(lexsim.BatchRow(record, None, error=repr(exc)))


class Wt10k(BatchWorkload):
    name = "wt_10k"
    n_pairs = 10000
    n_stimuli = 400
    traced_units = 3
    make_stimuli = staticmethod(generate.wt_stimuli)

    def job(self, k: int) -> None:
        record = self.records[k]
        try:
            self.results.extend(lexsim.run_batch(self.network, [record], self.params))
        except Exception as exc:  # a failed trial is counted, the run goes on
            self.results.append(lexsim.BatchRow(record, None, error=repr(exc)))


class FitHomograph(Workload):
    name = "fit_homograph"
    golden_repeats = True  # every fit of a run is checked against the one golden

    def generate(self) -> None:
        self.lexicon_path = DATA / "table1_homographs.csv"
        self.stimuli_path = self.outdir / f"{self.name}-{self.seed}-stimuli.csv"

    def load_records(self) -> None:
        """Reaction times are the generating run's cycles, mapped linearly.

        The seed only permutes the records. Pearson correlation sums with
        math.fsum, which is order-independent, so the fit -- and its
        golden -- is the same for every seed.
        """
        generating = self.params.updated(OO_gamma=GENERATING_GAMMA, PP_gamma=GENERATING_GAMMA)
        stimuli = [lexsim.StimulusRecord(stimulus=e.ortho_a, source_lang="NL",
                                         target_lang="EN", task="WT")
                   for e in self.lexicon.entries]
        random.Random(f"fit-{self.seed}").shuffle(stimuli)
        rows = lexsim.run_batch(self.network, stimuli, generating)
        with open(self.stimuli_path, "w", encoding="utf-8") as handle:
            handle.write("stimulus,source_lang,target_lang,task,rt_ms\n")
            for row in rows:
                handle.write(f"{row.record.stimulus},NL,EN,WT,"
                             f"{25.0 * row.outcome.cycles + 500.0!r}\n")
        with open(self.stimuli_path, encoding="utf-8") as handle:
            self.records = lexsim.parse_stimuli(handle)
        self.results = []

    units = math.inf  # fits repeat until the time is up

    def trials(self, k: int) -> int:
        """WT trials run by the k-th fit: one per record per grid point."""
        result = self.results[k]
        if isinstance(result, str):
            return 0
        return len(self.records) * sum(len(it.points) for it in result.iterations)

    def job(self, k: int) -> None:
        config = lexsim.SearchConfig(**FIT_CONFIG)
        try:
            self.results.append(lexsim.fit_inhibition(self.lexicon, self.records, config,
                                                      self.params))
        except Exception as exc:  # a failed fit is counted, the run goes on
            self.results.append(repr(exc))

    def finish(self) -> None:
        fits = [r for r in self.results if not isinstance(r, str)]
        if not fits:
            return
        result = fits[-1]
        rows = [["iteration", "window_lo", "window_hi", "point", "fitness"]]
        for i, it in enumerate(result.iterations, start=1):
            rows += [[i, repr(it.window_lo), repr(it.window_hi), repr(p), repr(f)]
                     for p, f in zip(it.points, it.fitnesses)]
        cli._write_csv(rows, self.manifest(), str(self.outdir / f"{self.name}-log.csv"))

    def keys(self) -> list:
        return [r if isinstance(r, str) else
                {"best_value": r.best_value, "best_fitness": r.best_fitness,
                 "iterations": [[it.window_lo, it.window_hi, it.points, it.fitnesses]
                                for it in r.iterations]}
                for r in self.results]

    def implausible(self, k: int) -> str | None:
        r = self.results[k]
        if isinstance(r, str):
            return f"raised: {r}"
        if not FIT_CONFIG["lower"] <= r.best_value <= FIT_CONFIG["upper"]:
            return f"best value {r.best_value} outside the domain"
        return None


WORKLOADS = {w.name: w for w in (FitHomograph, Mixed1k, Wt10k)}
