"""Where the traced run wraps the package, and what it counts there.

Each boundary is the attribute a caller looks the function up through:
the benchmark calls ``lexsim.<name>``; inside the package, ``run`` is
reached as ``tasks.run`` (task helpers), ``fitting.run`` (the fit) and
``experiments.run_trial`` (batches), ``step`` as ``dynamics.step``, and
methods through their class.
"""

from __future__ import annotations

import operator
import os

import lexsim
from lexsim import cli, dynamics, experiments, fitting, network, tasks
from tracer import Tracer, is_traced

MONITORS = (tasks.LexicalDecisionMonitor, tasks.NamingMonitor, tasks.WordTranslationMonitor)


def targets() -> list[tuple]:
    """(owner, attribute, span name) of every wrapped boundary."""
    return [
        (lexsim, "load_lexicon", "lexicon.parse"),
        (lexsim, "build_network", "network.build"),
        (fitting, "build_network", "network.build"),
        (network.Network, "input_weights", "network.input_weights"),
        (tasks, "run", "dynamics.run"),
        (fitting, "run", "dynamics.run"),
        (experiments, "run_trial", "dynamics.run"),
        (dynamics, "step", "dynamics.step"),
        (dynamics.Trace, "record", "dynamics.trace_record"),
        *[(m, "observe", "tasks.observe") for m in MONITORS],
        *[(m, "timeout", "tasks.timeout") for m in MONITORS],
        (lexsim, "parse_stimuli", "experiments.batch"),
        (lexsim, "run_batch", "experiments.batch"),
        (experiments, "outcome_rows", "experiments.output"),
        (cli, "build_manifest", "experiments.output"),
        (cli, "_write_csv", "experiments.output"),
        (lexsim, "fit_inhibition", "fitting.fit"),
        (fitting, "grid_search", "fitting.fit"),
        (fitting, "pearson", "fitting.fit"),
    ]


def wrapped() -> list[str]:
    """Boundaries that currently carry a tracer wrapper."""
    return [f"{o.__name__}.{a}" for o, a, _n in targets()
            if is_traced(getattr(o, a))]


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def install(tracer: Tracer) -> None:
    c = tracer.counts
    tracer.distinct_stimuli = set()
    tracer.last_state = None

    def entries(args, lexicon, _pre):
        c["lexicon.entries"] += len(lexicon)

    def build_growth(args, _net, rss_before):
        c["network.build_rss_mb"] = max(c["network.build_rss_mb"], _rss_mb() - rss_before)

    def weights(args, result, _pre):
        c["network.input_weights_calls"] += 1
        c["network.input_weights_nonzero"] += len(result)
        tracer.distinct_stimuli.add(args[1])

    def run_start(args):
        tracer.trial = c["dynamics.trials"]

    def run_end(args, result, _pre):
        trace, outcome = result
        counters = tracer.last_state.counters
        c["dynamics.trials"] += 1
        c["dynamics.active_node_updates"] += counters["active_node_updates"]
        c["dynamics.touched_updates"] += counters["touched_updates"]
        c["dynamics.trace_frames"] += 0 if trace is None else len(trace)
        c["tasks.output_rejections"] += outcome.n_rejected
        tracer.trial = -1

    def step_start(args):
        state, _net, params = args
        tracer.last_state = state
        c["dynamics.inhibition_pairs"] += sum(
            len(members) ** 2 for pool, members in state.active_by_pool.items()
            if network.pool_gamma(params, pool) != 0.0)
        return list(state.activation)

    def step_end(args, _state, before):
        c["dynamics.steps"] += 1
        c["dynamics.changed_nodes"] += sum(map(operator.ne, before, args[0].activation))

    def counter(name):
        def after(_args, _result, _pre):
            c[name] += 1
        return after

    def objective_start(_args):
        return c["dynamics.trials"]

    def objective_end(_args, _fitness, trials_before):
        c["fitting.objective_calls"] += 1
        c["fitting.trials"] += c["dynamics.trials"] - trials_before

    def trace_objective(args, kwargs):
        objective, *rest = args
        return (tracer.traced(objective, "fitting.objective", before=objective_start,
                              after=objective_end), *rest), kwargs

    def fit_end(_args, result, _pre):
        c["fitting.iterations"] += len(result.iterations)

    hooks = {
        (lexsim, "load_lexicon"): dict(after=entries),
        (lexsim, "build_network"): dict(before=lambda a: _rss_mb(), after=build_growth),
        (network.Network, "input_weights"): dict(after=weights),
        (dynamics, "step"): dict(before=step_start, after=step_end),
        (fitting, "grid_search"): dict(transform=trace_objective),
        (lexsim, "fit_inhibition"): dict(after=fit_end),
        **{(m, "observe"): dict(after=counter("tasks.observe_calls")) for m in MONITORS},
        **{(m, "timeout"): dict(after=counter("tasks.timeouts")) for m in MONITORS},
    }
    run_hooks = dict(before=run_start, after=run_end)
    for owner, attr, name in targets():
        tracer.patch(owner, attr, name,
                     **(run_hooks if name == "dynamics.run" else hooks.get((owner, attr), {})))


# per-layer self-time metric -> span names whose self time it sums
SELF_TIMES = {
    "lexicon.parse_s": ("lexicon.parse",),
    "network.build_s": ("network.build",),
    "network.input_weights_s": ("network.input_weights",),
    "dynamics.step_s": ("dynamics.step",),
    "dynamics.trace_record_s": ("dynamics.trace_record",),
    "dynamics.run_self_s": ("dynamics.run",),
    "tasks.observe_s": ("tasks.observe", "tasks.timeout"),
    "experiments.batch_self_s": ("experiments.batch",),
    "experiments.output_s": ("experiments.output",),
    "fitting.self_s": ("fitting.fit", "fitting.objective"),
}

COUNTS = ("lexicon.entries", "network.build_rss_mb", "network.input_weights_calls",
          "dynamics.steps", "dynamics.trials", "dynamics.active_node_updates",
          "dynamics.touched_updates", "dynamics.inhibition_pairs", "dynamics.trace_frames",
          "tasks.observe_calls", "tasks.output_rejections", "tasks.timeouts",
          "fitting.objective_calls", "fitting.iterations", "fitting.trials")


def summarize(tracer: Tracer, lexicon, net) -> dict[str, float]:
    """Per-layer metrics of a finished traced run over ``lexicon``/``net``."""
    c = tracer.counts
    selfs = tracer.self_times()
    out = {metric: sum(selfs.get(n, 0.0) for n in names) for metric, names in SELF_TIMES.items()}
    out.update({name: c[name] for name in COUNTS})
    ortho_nodes = 2 * len(lexicon)  # one orthographic node per pair and language
    calls = c["network.input_weights_calls"]
    out["network.input_weights_distinct"] = len(tracer.distinct_stimuli)
    out["network.input_nonzero_frac"] = (
        c["network.input_weights_nonzero"] / (calls * ortho_nodes) if calls else 0.0)
    touched = c["dynamics.touched_updates"]
    out["dynamics.changed_frac"] = c["dynamics.changed_nodes"] / touched if touched else 0.0
    out["network.nodes"] = len(net)
    out["network.edges"] = sum(1 for conn in net.connections() if conn.weight != 0.0)
    return out
