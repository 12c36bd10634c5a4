"""Grid-search fitting of the inhibition parameters against reaction times.

The search samples N equidistant points across a window (step = width/N,
left endpoint included, right excluded, matching a 0.05 step on the unit
domain at N=20), halves the window around the iteration's best point, and
stops once an iteration improves on the incumbent by no more than epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .dynamics import run, run_rows  # noqa: F401 -- run: bench/layers.py wraps fitting.run
from .errors import ConfigError
from .lexicon import Lexicon
from .network import build_network
from .params import Parameters
from .tasks import make_monitor

WORST_FITNESS = float("-inf")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises ValueError for mismatched lengths, fewer than two points, a value
    that is not finite, or a constant sequence (the correlation is undefined;
    callers drop such cells rather than treating them as zero).
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    if not all(map(math.isfinite, [*xs, *ys])):
        raise ValueError("correlation undefined for a value that is not finite")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("correlation undefined for a constant sequence")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class SearchConfig:
    lower: float = -1.0
    upper: float = 0.0
    n_points: int = 20
    epsilon: float = 1e-6
    # None fits PP_gamma tied to OO_gamma; a value holds PP_gamma fixed while OO_gamma is fitted
    pp_gamma: float | None = None
    max_iterations: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigError(f"search domain bounds must be finite, got "
                              f"{self.lower!r}:{self.upper!r}")
        if not self.lower < self.upper:
            raise ConfigError("search domain requires lower < upper")
        # range() takes only ints; type(), not isinstance, so True is no count
        if type(self.n_points) is not int or self.n_points < 2:
            raise ConfigError(f"n_points must be an int >= 2, got {self.n_points!r}")
        # a NaN or infinite epsilon would stop the search after one window
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be an int >= 1, got {self.max_iterations!r}")
        if self.pp_gamma is not None and not -math.inf < self.pp_gamma <= 0:
            raise ConfigError(f"pp_gamma must be finite and <= 0, got {self.pp_gamma!r}")


@dataclass
class IterationLog:
    window_lo: float
    window_hi: float
    points: list[float]
    fitnesses: list[float]
    # per point, when fit_inhibition ran the search: trials that responded,
    # trials run, and why a point scored WORST_FITNESS ("" when it did not)
    n_responded: list[int] = field(default_factory=list)
    n_trials: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class FitResult:
    best_value: float
    best_fitness: float
    iterations: list[IterationLog] = field(default_factory=list)


def grid_search(objective: Callable[[float], float], config: SearchConfig) -> FitResult:
    """Iteratively-narrowing window search; returns the incumbent optimum."""
    return _search(lambda points: [objective(p) for p in points], config)


def _search(evaluate: Callable[[list[float]], list[float]], config: SearchConfig) -> FitResult:
    """grid_search with each iteration's points scored together by ``evaluate``."""
    lo, hi = config.lower, config.upper
    best_value: float | None = None
    best_fitness = WORST_FITNESS
    logs: list[IterationLog] = []
    for _ in range(config.max_iterations):
        width = hi - lo
        step = width / config.n_points
        points = [lo + k * step for k in range(config.n_points)]
        fitnesses = evaluate(points)
        logs.append(IterationLog(lo, hi, points, fitnesses))

        it_best = max(range(len(points)), key=lambda i: fitnesses[i])
        it_value, it_fitness = points[it_best], fitnesses[it_best]
        improvement = it_fitness - best_fitness
        if best_value is None or it_fitness > best_fitness:
            best_value, best_fitness = it_value, it_fitness
        # a NaN improvement (-inf - -inf: no point scores yet) stops too
        if not improvement > config.epsilon:
            break
        # halve the window, centre on this iteration's optimum, stay in domain
        quarter = width / 4.0
        lo = max(config.lower, it_value - quarter)
        hi = min(config.upper, it_value + quarter)
    return FitResult(best_value=best_value, best_fitness=best_fitness, iterations=logs)


def fit_inhibition(lexicon: Lexicon, records: Sequence, config: SearchConfig | None = None,
                   params: Parameters | None = None) -> FitResult:
    """Fit the lateral-inhibition strength by correlating simulated cycle
    times with the records' reaction times.

    ``records`` are stimulus records (experiments.StimulusRecord, whose rt_ms
    is checked when it is made); those with an rt_ms are fitted. Trials that
    produce no response are excluded pairwise; a parameter point with fewer
    than two responded trials, or with a constant sequence of cycle counts
    or reaction times, scores worst fitness. Each iteration log carries every
    point's counts and the reason for a worst score.
    """
    config = config or SearchConfig()
    params = params or Parameters()
    network = build_network(lexicon, params)
    rated = [r for r in records if r.rt_ms is not None]
    if not rated:
        raise ConfigError("fit requires stimulus records with reaction times")
    # every grid point runs the same stimuli: weight each one once per fit
    weights = {stimulus: network.input_weights(stimulus)
               for stimulus in dict.fromkeys(r.stimulus for r in rated)}

    # point -> (fitness, responded, trials, note). A point's trials are
    # deterministic, so each distinct point is simulated once per call
    scored: dict[float, tuple[float, int, int, str]] = {}

    def score(gamma: float, outcomes) -> None:
        cycles, rts = [], []
        for record, outcome in zip(rated, outcomes):
            if outcome.responded:
                cycles.append(float(outcome.cycles))
                rts.append(record.rt_ms)
        fitness, note = WORST_FITNESS, ""
        if len(cycles) < 2:
            note = "fewer_than_two_responses"
        else:
            try:
                fitness = pearson(cycles, rts)
            except ValueError:
                note = "constant_cycles" if len(set(cycles)) == 1 else "constant_rts"
        scored[gamma] = (fitness, len(cycles), len(rated), note)

    def evaluate(points: list[float]) -> list[float]:
        # every new point's trials are rows of one run_rows call; they differ only in gamma
        new = [gamma for gamma in dict.fromkeys(points) if gamma not in scored]
        trials, row_params = [], []
        for gamma in new:
            pp = gamma if config.pp_gamma is None else config.pp_gamma
            trial_params = params.updated(OO_gamma=gamma, PP_gamma=pp)
            trials += [(record.stimulus, make_monitor(record.task, record.source_lang,
                                                      record.target_lang, trial_params),
                        weights[record.stimulus]) for record in rated]
            row_params += [trial_params] * len(rated)
        outcomes = [outcome for _trace, outcome in run_rows(network, trials, row_params)]
        for k, gamma in enumerate(new):
            score(gamma, outcomes[k * len(rated):(k + 1) * len(rated)])
        return [scored[gamma][0] for gamma in points]

    result = _search(evaluate, config)
    for it in result.iterations:
        _fitnesses, it.n_responded, it.n_trials, it.notes = map(
            list, zip(*(scored[point] for point in it.points)))
    return result
