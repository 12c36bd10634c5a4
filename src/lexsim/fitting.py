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

from .dynamics import run
from .errors import ConfigError
from .lexicon import Lexicon
from .network import build_network
from .params import Parameters
from .tasks import make_monitor

WORST_FITNESS = float("-inf")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises ValueError for mismatched lengths, fewer than two points, or a
    constant sequence (the correlation is undefined; callers drop such
    cells rather than treating them as zero).
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
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
    # fit OO_gamma and PP_gamma as one parameter; when untied, PP stays fixed
    tie_gammas: bool = True
    fixed_pp_gamma: float = 0.0
    max_iterations: int = 60

    def validate(self) -> None:
        if not self.lower < self.upper:
            raise ConfigError("search domain requires lower < upper")
        if self.n_points < 2:
            raise ConfigError("n_points must be >= 2")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")


@dataclass
class IterationLog:
    window_lo: float
    window_hi: float
    points: list[float]
    fitnesses: list[float]


@dataclass
class FitResult:
    best_value: float
    best_fitness: float
    iterations: list[IterationLog] = field(default_factory=list)


def grid_search(objective: Callable[[float], float], config: SearchConfig) -> FitResult:
    """Iteratively-narrowing window search; returns the incumbent optimum."""
    config.validate()
    lo, hi = config.lower, config.upper
    best_value: float | None = None
    best_fitness = WORST_FITNESS
    logs: list[IterationLog] = []
    for _ in range(config.max_iterations):
        width = hi - lo
        step = width / config.n_points
        points = [lo + k * step for k in range(config.n_points)]
        fitnesses = [objective(p) for p in points]
        logs.append(IterationLog(lo, hi, points, fitnesses))

        it_best = max(range(len(points)), key=lambda i: fitnesses[i])
        it_value, it_fitness = points[it_best], fitnesses[it_best]
        improvement = it_fitness - best_fitness
        if best_value is None or it_fitness > best_fitness:
            best_value, best_fitness = it_value, it_fitness
        if improvement <= config.epsilon:
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

    ``records`` are stimulus records (see experiments.StimulusRecord) whose
    rt_ms column is required. Trials that produce no response are excluded
    pairwise; a parameter point with fewer than two responded trials scores
    worst fitness.
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

    def objective(gamma: float) -> float:
        pp = gamma if config.tie_gammas else config.fixed_pp_gamma
        trial_params = params.updated(OO_gamma=gamma, PP_gamma=pp)
        cycles, rts = [], []
        for record in rated:
            monitor = make_monitor(record.task, record.source_lang,
                                   record.target_lang, trial_params)
            _trace, outcome = run(network, record.stimulus, monitor, trial_params,
                                  trace=None, input_weights=weights[record.stimulus])
            if outcome.responded:
                cycles.append(float(outcome.cycles))
                rts.append(record.rt_ms)
        if len(cycles) < 2:
            return WORST_FITNESS
        try:
            return pearson(cycles, rts)
        except ValueError:
            return WORST_FITNESS

    return grid_search(objective, config)
