"""The fast engine and the dense oracle stepped side by side, bit for bit.

Imported by the tests; run as a script it checks one word-translation trial
on the benchmark's seed-0 lexicon of 10,000 pairs, built with
``bench/generate.py`` into a given directory, at the default parameters
changed by any NAME=VALUE assignments given after it:

    python3 tests/lockstep.py DIR [NAME=VALUE ...]

with lexsim importable (``pip install -e .``, or ``PYTHONPATH=src``). It
prints the number of mismatched activations and the time taken, and exits 1
if there are any.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from lexsim import SimulationState, build_network, load_lexicon, step
from lexsim.params import load_parameters
from lexsim.reference import DenseEngine, scalar_input_weights


def lockstep_mismatches(network, params, stimulus: str, cycles: int, on_cycle=None) -> list:
    """Step one trial of ``stimulus`` for ``cycles`` cycles with the fast step
    and its array weights and with the oracle and its scalar weights, and
    compare every node's activation bits after each cycle. Returns the
    (cycle, node id) of each mismatch; ``on_cycle(activation)``, if given,
    sees the activations each cycle steps from."""
    fast = SimulationState(network, trace=None, input_weights=network.input_weights(stimulus))
    dense = SimulationState(network, trace=None,
                            input_weights=scalar_input_weights(network, stimulus))
    oracle = DenseEngine(network)
    mismatches = []
    for cycle in range(1, cycles + 1):
        if on_cycle is not None:
            on_cycle(fast.activation)
        step(fast, network, params)
        oracle.step(dense, network, params)
        differ = fast.activation.view(np.uint64) != dense.activation.view(np.uint64)
        mismatches += [(cycle, n) for n in np.flatnonzero(differ).tolist()]
    return mismatches


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import generate

    entries, kinds = generate.make_lexicon(10_000, 0)
    path = Path(argv[0]) / "lockstep-10k-0-lexicon.csv"
    generate.write_lexicon(path, entries)
    stimulus = generate.wt_stimuli(entries, kinds, 1, 0)[0][0]
    params = load_parameters("\n".join(argv[1:]))
    network = build_network(load_lexicon(path), params)
    start = time.perf_counter()
    mismatches = lockstep_mismatches(network, params, stimulus, 30)
    print(f"{stimulus} over {len(network)} nodes, 30 cycles, {' '.join(argv[1:]) or 'defaults'}: "
          f"{len(mismatches)} mismatched activations ({time.perf_counter() - start:.1f}s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
