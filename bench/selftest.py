"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, with its unit,
by an untraced and a traced run of each workload; that a perturbed golden
is reported as a failure; and that the tracer restores what it wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run

SEED = 999  # no committed golden: the smoke runs are checked by invariants only


def result_of(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, code
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics_emitted(spec) -> None:
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(["--workload", name, "--seed", str(SEED), "--seconds", "0.5",
                                "--trace", str(trace)])
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            for n, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, n, m)
            print(f"ok: {name} --trace {trace} emits all {len(expected)} metrics")


def check_perturbed_golden() -> None:
    goldens = run.OUT / "selftest-goldens"
    shutil.rmtree(goldens, ignore_errors=True)
    goldens.mkdir(parents=True)
    run.GOLDENS = goldens
    for name, perturb in (("mixed_1k", lambda units: units[1].__setitem__(4, units[1][4] + 1)),
                          ("fit_homograph",
                           lambda units: units[0].__setitem__("best_value", 0.5))):
        w = WORKLOADS[name](SEED, run.OUT)
        w.generate()
        with contextlib.redirect_stdout(io.StringIO()):
            run.capture(w, 1 if w.golden_repeats else 3)
        path = run.golden_path(w)
        assert run.check(w)[0] == 0, "the captured golden must match its own run"
        golden = json.loads(path.read_text())
        perturb(golden["units"])
        path.write_text(json.dumps(golden))
        failed, _unchecked, reasons = run.check(w)
        assert failed == 1 and "differs from the golden" in reasons[0], reasons
        print(f"ok: {name} reports a perturbed golden ({reasons[0][:60]}...)")
    shutil.rmtree(goldens)


def check_tracer_restores() -> None:
    import layers
    from tracer import Tracer
    originals = [getattr(owner, attr) for owner, attr, _n in layers.targets()]
    tracer = Tracer()
    layers.install(tracer)
    assert len(layers.wrapped()) == len(originals)
    tracer.uninstall()
    assert layers.wrapped() == []
    assert all(getattr(o, a) is orig
               for (o, a, _n), orig in zip(layers.targets(), originals))
    print(f"ok: {len(originals)} wrapped attributes restored")


if __name__ == "__main__":
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    import workloads
    from workloads import WORKLOADS
    # tiny inputs: same code paths, a few trials each
    workloads.Mixed1k.n_pairs, workloads.Mixed1k.n_stimuli = 60, 6
    workloads.Mixed1k.traced_units = 3
    workloads.Wt10k.n_pairs, workloads.Wt10k.n_stimuli = 80, 4
    workloads.Wt10k.traced_units = 2
    run.SETUP_REPEATS, run.SETUP_SECONDS = 2, 0.0
    check_tracer_restores()
    check_metrics_emitted(spec)
    check_perturbed_golden()
    print("selftest passed")
    sys.exit(0)
