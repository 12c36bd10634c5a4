"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mixed_1k --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs a fixed amount of work twice, traced and then untraced
(``--seconds`` does not apply), and reports the per-layer metrics and the
tracing overhead. Metric names and units come from BENCHMARK.json at the
root of the checkout. Every output is checked against the committed goldens
(``goldens/``) and against invariants that hold for any seed. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every reported time is scaled to a reference CPU speed. While a run
measures, a fixed pure-Python loop is timed every 50 ms from a signal
handler, and each measured call's time is multiplied by the mean of
``CAL_REF_S`` / (loop time) over the samples taken during the call. The
speed of a virtual CPU on a shared host drifts by tens of percent within
seconds; the loop drifts with the program, so most of that cancels
(README.md, Noise).

``--capture N`` runs the first N units and writes them as the golden of
this workload and seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens"
# set-up runs at least SETUP_REPEATS times and then, up to SETUP_MAX_REPEATS,
# until SETUP_SECONDS are spent in it; the median is reported
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 200
SETUP_SECONDS = 2.0
# calibrate() runs this often while a clock is open; its time at the
# reference speed is its median on the 2-vCPU Xeon virtual machine the
# benchmark was written on
SAMPLE_INTERVAL_S = 0.05
CAL_REF_S = 0.001


def import_program():
    """The package from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lexsim
    if not Path(lexsim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lexsim imported from {lexsim.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy
    try:
        # "<toplevel>\n<commit>" inside a git checkout; a parent repository does not count
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        commit = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def golden_path(w) -> Path:
    return GOLDENS / (f"{w.name}.json" if w.golden_repeats else f"{w.name}-seed{w.seed}.json")


def check(w) -> tuple[int, int, list[str]]:
    """(failed, unchecked, reasons) over the units run so far."""
    path = golden_path(w)
    golden = json.loads(path.read_text())["units"] if path.exists() else []
    keys = w.keys()
    failed = unchecked = 0
    reasons = []
    if w.golden_repeats:
        golden = golden * len(keys)
    for k, key in enumerate(keys):
        reason = w.implausible(k)
        expected = golden[k] if k < len(golden) else None
        if reason is None and expected is None:
            unchecked += 1
        elif reason is None and key != expected:
            reason = f"differs from the golden: {key} != {expected}"
        if reason is not None:
            failed += 1
            reasons.append(f"unit {k}: {reason}")
    return failed, unchecked, reasons


def calibrate() -> float:
    """Seconds taken by fixed pure-Python work of the kind lexsim does:
    dict look-ups and float arithmetic. It never calls the program, so a
    change to the program cannot move it."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    for i in range(4000):
        k = i % 97
        table[k] = table.get(k, 0.0) * 0.5 + i * 1e-3
    return perf_counter() - t0


class ScaledClock:
    """Times calls and scales each to the reference speed.

    While the clock is open, a SIGALRM handler times ``calibrate`` every
    SAMPLE_INTERVAL_S, in the main thread between two bytecodes of whatever
    runs. A call's time, less the samples taken inside it, is multiplied by
    the mean of CAL_REF_S / sample over those samples (the last earlier
    sample for a call too short to hold one). Sampling inside the call
    matters: a shared virtual CPU can flip between a fast and a slow state
    every few seconds, so samples taken only before and after a 4-second
    unit miss what happened during it.
    """

    def __enter__(self):
        self.samples = [calibrate()]
        self._sampling = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        if not self._sampling:  # a signal that arrives inside the handler is dropped
            self._sampling = True
            self.samples.append(calibrate())
            self._sampling = False

    def time(self, fn, *args) -> float:
        first = len(self.samples)
        t0 = perf_counter()
        fn(*args)
        raw = perf_counter() - t0
        during = self.samples[first:]
        speed = statistics.fmean(CAL_REF_S / d for d in during or self.samples[-1:])
        return (raw - sum(during)) * speed

    def speed(self) -> float:
        """This machine's median speed during the run, relative to the reference."""
        return CAL_REF_S / statistics.median(self.samples)


def run_units(w, clock: ScaledClock, seconds: float | None = None, count: int | None = None):
    """Closed loop: the next unit starts when the previous one is done, until
    ``seconds`` have passed or ``count`` units ran. Returns the per-unit
    times and the time of the whole phase including the output written at
    its end, scaled to the reference speed."""
    limit = w.units if count is None else min(count, w.units)
    times = []
    start = perf_counter()
    while len(times) < limit and (seconds is None or perf_counter() - start < seconds):
        times.append(clock.time(w.job, len(times)))
    return times, sum(times) + clock.time(w.finish)


def fresh_setup(w, clock: ScaledClock) -> float:
    w.lexicon = w.network = None
    gc.collect()
    return clock.time(w.setup)


def end_to_end(w, clock: ScaledClock, seconds: float) -> dict[str, float]:
    import layers
    if layers.wrapped():
        raise RuntimeError(f"untraced run finds wrappers on {layers.wrapped()}")
    setup = []
    while len(setup) < SETUP_REPEATS or (sum(setup) < SETUP_SECONDS
                                         and len(setup) < SETUP_MAX_REPEATS):
        setup.append(fresh_setup(w, clock))
    w.load_records()
    times, wall = run_units(w, clock, seconds=seconds)
    trials = [w.trials(k) for k in range(len(times))]
    per_trial_ms = [1000.0 * t / n for t, n in zip(times, trials) if n]
    print(f"speed: {clock.speed():.3f} of the reference (median of "
          f"{len(clock.samples)} samples); times below are scaled to it")
    print(f"setup: {len(setup)} set-ups, min {min(setup):.4f} max {max(setup):.4f} s")
    print(f"units: {len(times)} in {wall:.3f} s (scaled), {sum(trials)} trials; unit times "
          f"min {min(times):.4f} median {statistics.median(times):.4f} max {max(times):.4f} s")
    print(f"trial_ms_p50 over {len(per_trial_ms)} samples"
          f"{' (one per fit)' if w.golden_repeats else ''}")
    if w.golden_repeats:
        print(f"fit_s = {statistics.median(times):.4f} s (median of {len(times)} fits)")
    return {
        "setup_s": statistics.median(setup),
        "trials_per_s": sum(trials) / wall,
        "trial_ms_p50": statistics.median(per_trial_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(w, clock: ScaledClock) -> dict[str, float]:
    """Fixed work traced, then the same work untraced. The traced pass goes
    first so that ``network.build_rss_mb`` sees a fresh process heap."""
    import layers
    from tracer import Tracer
    tracer = Tracer()
    layers.install(tracer)
    try:
        w.setup()
        w.load_records()
        _times, traced_wall = run_units(w, clock, count=w.traced_units)
    finally:
        tracer.uninstall()
    if layers.wrapped():
        raise RuntimeError(f"wrappers left on {layers.wrapped()}")
    metrics = layers.summarize(tracer, w.lexicon, w.network)
    traced_keys = w.keys()

    fresh_setup(w, clock)
    w.load_records()
    _times, untraced_wall = run_units(w, clock, count=w.traced_units)
    if w.keys() != traced_keys:
        raise RuntimeError("the traced run produced other outcomes than the untraced one")
    metrics["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    spans_path = OUT / f"{w.name}-seed{w.seed}-spans.csv"
    tracer.write_spans(spans_path)
    print(f"traced {w.traced_units} units: traced {traced_wall:.3f} s, untraced (scaled) "
          f"{untraced_wall:.3f} s, {len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    return metrics


def capture(w, count: int) -> None:
    w.setup()
    w.load_records()
    with ScaledClock() as clock:
        run_units(w, clock, count=count)
    failed = [r for k in range(len(w.keys())) if (r := w.implausible(k))]
    if failed:
        raise RuntimeError(f"refusing to capture implausible outcomes: {failed[:3]}")
    keys = w.keys()[:1] if w.golden_repeats else w.keys()
    path = golden_path(w)
    units = ",\n".join(json.dumps(key) for key in keys)
    path.write_text(f'{{"workload": "{w.name}", "seed": {"null" if w.golden_repeats else w.seed}, '
                    f'"units": [\n{units}\n]}}\n')
    print(f"wrote {len(keys)} golden units to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", type=int, metavar="N")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, OUT)
    env = environment(args.seed)
    w.generate()
    if args.capture:
        capture(w, args.capture)
        return 0

    with ScaledClock() as clock:
        values = (traced(w, clock) if args.trace
                  else end_to_end(w, clock, args.seconds or spec["run_seconds"]))
    failed, unchecked, reasons = check(w)
    env["loadavg_end"] = os.getloadavg()
    env["speed"] = clock.speed()
    attempted = len(w.results)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    print(f"workload {w.name}: {why}")
    print(f"env {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_share = {failed / attempted!r} ratio ({failed} of {attempted} "
          f"{'fits' if w.golden_repeats else 'trials'})")
    if unchecked:
        print(f"  UNCHECKED: {unchecked} of {attempted} units have no golden "
              f"({golden_path(w).name}); only invariants were checked")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{w.name}-seed{w.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "unchecked": unchecked}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
