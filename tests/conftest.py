import os
from pathlib import Path

import pytest

from lexsim import Parameters, build_network, load_lexicon, table1_path

FIXTURES = Path(__file__).parent / "fixtures"

# pyproject's pythonpath puts src/ on this process's sys.path only; the CLI
# tests that start `python -m lexsim.cli` need it in the environment too
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def members(network, pool):
    """The ids of ``pool``'s nodes, in id order, from the node metadata."""
    return [node.id for node in network.nodes if node.pool is pool]


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
