import os
from pathlib import Path

import pytest

from lexsim import (ParseOptions, Parameters, build_network, load_lexicon, parse_lexicon,
                    table1_path)
from lexsim.params import ALPHA_NAMES, THRESHOLD_NAMES

FIXTURES = Path(__file__).parent / "fixtures"

# pyproject's pythonpath puts src/ on this process's sys.path only; the CLI
# tests that start `python -m lexsim.cli` need it in the environment too
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


SWEEP_GAMMAS = (0.0, -0.001, -0.05, -0.5, -1.0)


def random_case(rng):
    """A small lexicon over a four-letter alphabet (dense neighbourhoods,
    homographs in and across languages), parameters drawn from the whole
    validated space, and a few short trials of every task.

    ``rng`` is a random.Random, or the one hypothesis draws from.
    """
    def word():
        return "".join(rng.choice("ABDE") for _ in range(rng.randint(2, 5)))

    rows = []
    for _ in range(rng.randint(2, 6)):
        (a, fa), (b, fb) = [(word(), rng.choice((0.0, round(rng.uniform(0.5, 300.0), 2))))
                            for _ in range(2)]
        rows.append(f"{a},{fa},{a.lower()},{fa},{b},{fb},{b.lower()},{fb}")
    lexicon = parse_lexicon("\n".join(rows),
                            ParseOptions(allow_within_language_homographs=True))
    min_act = rng.choice((-0.2, -1.0, -0.0))
    max_act = rng.choice((1.0, 0.8))
    # frequency-derived rests span [MIN_REST, MAX_REST], so a positive MAX_REST
    # starts the most frequent readings active
    max_rest = rng.choice((0.0, 0.05, 0.3, -0.0))
    min_rest = rng.choice((min_act, max_rest / 2, max_rest))

    def rest_level():
        return rng.choice((min_act, min_rest, max_rest))

    def threshold():
        return rng.choice((-0.1, 0.0, -0.0, 0.3, 0.72, max_act))

    def alpha(default):
        return rng.choice((0.0, default, round(rng.uniform(0.0, 0.5), 3)))

    defaults = Parameters()
    params = defaults.updated(
        MIN_ACT=min_act, MAX_ACT=max_act, MAX_REST=max_rest, MIN_REST=min_rest,
        S_rest=rest_level(), L_rest=rest_level(),
        I_rest=rng.choice((max_act, 0.5, 0.0, -0.0, min_act)),
        DECAY_RATE=rng.choice((0.0, 0.07, 1.0, rng.random())),
        IO_multiplier=rng.choice((0.2, 1.0, 5.0)),
        **{name: rng.choice(SWEEP_GAMMAS) for name in ("OO_gamma", "PP_gamma", "SS_gamma")},
        SS_multiplier=rng.choice((0.0, 0.2, 1.0)),
        **{name: alpha(getattr(defaults, name)) for name in ALPHA_NAMES},
        **{name: threshold() for name in THRESHOLD_NAMES},
        max_cycles=rng.randint(1, 12))
    tasks = (("LD", "NL", None), ("NAME", "EN", "EN"), ("WT", "NL", "EN"), ("WT", "EN", "NL"))
    stimuli = (rng.choice(lexicon.entries).ortho_a, rng.choice(lexicon.entries).ortho_b, word())
    trials = [(rng.choice(stimuli), *task) for task in tasks]
    return lexicon, params, trials


def members(network, pool):
    """The ids of ``pool``'s nodes, in id order, from the node metadata: the
    ``pool_of`` column, which test_nodes_read_as_the_entry_loop_built_them
    checks against a Node list built entry by entry."""
    return [n for n, node_pool in enumerate(network.pool_of) if node_pool is pool]


@pytest.fixture(scope="session")
def table1():
    return load_lexicon(table1_path())


@pytest.fixture(scope="session")
def homograph_lexicon():
    return load_lexicon(FIXTURES / "table1_homographs.csv")


@pytest.fixture(scope="session")
def balanced_lexicon():
    return load_lexicon(FIXTURES / "balanced.csv")


@pytest.fixture(scope="session")
def hermit_lexicon():
    return load_lexicon(FIXTURES / "hermits.csv")


@pytest.fixture(scope="session")
def params():
    return Parameters()


@pytest.fixture(scope="session")
def table1_network(table1, params):
    return build_network(table1, params)


@pytest.fixture(scope="session")
def homograph_network(homograph_lexicon, params):
    return build_network(homograph_lexicon, params)
