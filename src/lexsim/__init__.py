"""lexsim: a simulation engine for bilingual lexical access.

An interactive-activation lexical network with lateral inhibition over the
active set, task/decision monitors (lexical decision, naming, word
translation), and a grid-search fitter correlating simulated cycle times
with reaction-time data.
"""

from .dynamics import SimulationState, Trace, run, set_stimulus, step, update_activation
from .errors import ConfigError, InvariantError, ParseError, ValidationError
from .experiments import (BatchRow, ConditionReport, StimulusRecord, active_node_stats,
                          benchmark, condition_report, parse_stimuli, run_batch,
                          synthetic_lexicon)
from .fitting import FitResult, SearchConfig, fit_inhibition, grid_search, pearson
from .lexicon import (Lexicon, LexiconEntry, ParseOptions, load_lexicon, opb,
                      parse_lexicon, table1_path)
from .network import InputWeights, Network, Node, Pool, build_network
from .params import Parameters, load_parameters, parse_assignment
from .reference import DenseEngine, input_weight, levenshtein_similarity
from .tasks import (LexicalDecisionMonitor, NamingMonitor, NullMonitor, TaskOutcome,
                    WordTranslationMonitor, lexical_decision, make_monitor, naming,
                    word_translation)

__version__ = "0.1.0"
