import math

import pytest
from hypothesis import given, strategies as st

from lexsim import ConfigError, SearchConfig, fit_inhibition, grid_search, pearson
from lexsim.experiments import StimulusRecord, run_batch
from lexsim.fitting import WORST_FITNESS

# frozen from numpy.corrcoef on the same inputs
PEARSON_GOLDEN = 0.9908470001860921


# -- pearson -------------------------------------------------------------------

def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0


def test_pearson_golden_value():
    assert pearson([1, 2, 3, 4], [1.1, 1.9, 3.2, 3.8]) == pytest.approx(PEARSON_GOLDEN, rel=1e-12)


def test_pearson_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        pearson([1, 2], [1, 2, 3])


def test_pearson_too_short():
    with pytest.raises(ValueError):
        pearson([1], [2])


def test_pearson_constant_sequence_undefined():
    with pytest.raises(ValueError, match="constant"):
        pearson([1, 1, 1], [1, 2, 3])


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20,
                unique=True),
       st.floats(min_value=0.5, max_value=50), st.floats(min_value=-100, max_value=100))
def test_pearson_affine_invariance(xs, slope, offset):
    ys = [x * 2 + 1 for x in xs]
    base = pearson(xs, ys)
    shifted = pearson([x * slope + offset for x in xs], ys)
    assert shifted == pytest.approx(base, abs=1e-9)


# -- grid search ------------------------------------------------------------------

def test_grid_search_quadratic_converges():
    config = SearchConfig(lower=-1.0, upper=0.0, n_points=20, epsilon=1e-6)
    result = grid_search(lambda x: -(x + 0.3) ** 2, config)
    assert abs(result.best_value - (-0.3)) < 1e-3
    widths = [it.window_hi - it.window_lo for it in result.iterations]
    for w1, w2 in zip(widths, widths[1:]):
        assert w2 == pytest.approx(w1 / 2)


def test_grid_search_first_window_step_convention():
    seen = []
    config = SearchConfig(lower=-1.0, upper=0.0, n_points=20, epsilon=1e-6)
    grid_search(lambda x: seen.append(x) or -(x ** 2), config)
    first = seen[:20]
    assert first[0] == -1.0
    assert first[1] - first[0] == pytest.approx(0.05)
    assert first[-1] == pytest.approx(-0.05)
    assert 0.0 not in first


def test_grid_search_constant_objective_stops_second_iteration():
    result = grid_search(lambda x: 5.0, SearchConfig(epsilon=1e-6))
    assert len(result.iterations) == 2
    assert result.best_fitness == 5.0


def test_grid_search_stops_when_no_point_scores():
    # -inf - -inf is NaN, which is no improvement: one window, not max_iterations
    result = grid_search(lambda x: WORST_FITNESS, SearchConfig(n_points=5, epsilon=1e-3))
    assert len(result.iterations) == 1
    assert result.best_value == -1.0 and result.best_fitness == WORST_FITNESS


def test_grid_search_window_stays_inside_domain():
    config = SearchConfig(lower=-1.0, upper=0.0, n_points=10, epsilon=1e-9)
    result = grid_search(lambda x: x, config)  # optimum at the upper edge
    for it in result.iterations:
        assert it.window_lo >= -1.0 and it.window_hi <= 0.0
    assert result.best_value <= 0.0


def test_grid_search_best_is_max_of_samples():
    config = SearchConfig(lower=-1.0, upper=0.0, n_points=7, epsilon=1e-9)
    result = grid_search(lambda x: math.sin(10 * x), config)
    sampled = [f for it in result.iterations for f in it.fitnesses]
    assert result.best_fitness == max(sampled)


def test_grid_search_validates_config():
    with pytest.raises(ConfigError):
        grid_search(lambda x: x, SearchConfig(lower=0.0, upper=0.0))
    with pytest.raises(ConfigError):
        grid_search(lambda x: x, SearchConfig(n_points=1))
    with pytest.raises(ConfigError):
        grid_search(lambda x: x, SearchConfig(epsilon=0.0))
    with pytest.raises(ConfigError, match="untied"):
        grid_search(lambda x: x, SearchConfig(fixed_pp_gamma=-0.01))


# -- fit_inhibition ------------------------------------------------------------

def _records(lexicon, task="LD", target=None, rts=None):
    records = []
    for i, entry in enumerate(lexicon.entries):
        rt = None if rts is None else rts[i]
        records.append(StimulusRecord(stimulus=entry.ortho_a, source_lang="NL",
                                      target_lang=target, task=task, rt_ms=rt))
    return records


def test_fit_requires_reaction_times(table1):
    with pytest.raises(ConfigError, match="reaction times"):
        fit_inhibition(table1, _records(table1))


def test_fit_self_consistency(homograph_lexicon, params):
    # synthesise RTs as an affine map of simulated cycle times at a known
    # inhibition setting; the fit must recover a near-perfect correlation
    # and stay within the search window that still contained that setting
    generating = params.updated(OO_gamma=-0.001, PP_gamma=-0.001)
    base = _records(homograph_lexicon, task="WT", target="EN")
    rows = run_batch(homograph_lexicon, base, generating)
    rts = [25.0 * row.outcome.cycles + 500.0 for row in rows]
    records = _records(homograph_lexicon, task="WT", target="EN", rts=rts)
    config = SearchConfig(lower=-1.0, upper=0.0, n_points=20, epsilon=1e-6)
    result = fit_inhibition(homograph_lexicon, records, config, params)
    assert result.best_fitness >= 0.999
    containing = [it for it in result.iterations
                  if it.window_lo <= -0.001 <= it.window_hi]
    assert containing
    last = containing[-1]
    assert last.window_lo <= result.best_value <= last.window_hi


def test_fit_untied_mode_keeps_pp_fixed(homograph_lexicon, params):
    rows = run_batch(homograph_lexicon, _records(homograph_lexicon), params)
    rts = [10.0 * row.outcome.cycles + 300.0 for row in rows]
    records = _records(homograph_lexicon, rts=rts)
    config = SearchConfig(n_points=5, epsilon=1e-3, tie_gammas=False, fixed_pp_gamma=0.0,
                          max_iterations=3)
    result = fit_inhibition(homograph_lexicon, records, config, params)
    assert result.best_fitness > 0.9


def test_fit_all_timeouts_scores_worst(table1, params):
    # an unknown stimulus never responds, so every gamma point is unusable
    records = [StimulusRecord(stimulus="XQZQX", source_lang="NL", task="LD", rt_ms=500.0),
               StimulusRecord(stimulus="QQXXJ", source_lang="NL", task="LD", rt_ms=510.0)]
    config = SearchConfig(n_points=3, epsilon=1e-3, max_iterations=2)
    result = fit_inhibition(table1, records, config, params)
    assert result.best_fitness == WORST_FITNESS


def test_fit_stops_when_no_point_scores(homograph_lexicon, params):
    # NL->EN translation never responds at gamma <= -0.2, so no point of the
    # first window (step 0.2 on [-1, 0)) scores
    rts = [600.0 + 10.0 * i for i in range(len(homograph_lexicon))]
    records = _records(homograph_lexicon, task="WT", target="EN", rts=rts)
    result = fit_inhibition(homograph_lexicon, records, SearchConfig(n_points=5, epsilon=1e-3),
                            params)
    assert len(result.iterations) == 1
    assert result.iterations[0].notes == ["fewer_than_two_responses"] * 5
    assert result.best_fitness == WORST_FITNESS


def test_fit_logs_counts_and_why_a_point_scores_worst(table1, params):
    config = SearchConfig(lower=-0.01, upper=0.0, n_points=3, max_iterations=1)

    def only_iteration(*stimuli_and_rts):
        records = [StimulusRecord(stimulus=s, source_lang="NL", task="LD", rt_ms=rt)
                   for s, rt in stimuli_and_rts]
        result = fit_inhibition(table1, records, config, params)
        assert len(result.iterations) == 1
        return result.iterations[0]

    repeated = only_iteration(("AARDE", 500.0), ("AARDE", 510.0))
    assert repeated.n_responded == [2, 2, 2] and repeated.n_trials == [2, 2, 2]
    assert repeated.notes == ["constant_cycles"] * 3
    assert repeated.fitnesses == [WORST_FITNESS] * 3
    same_rt = only_iteration(("AARDE", 500.0), ("AARDBEI", 500.0))
    assert same_rt.notes == ["constant_rts"] * 3
    unknown = only_iteration(("XQZQX", 500.0), ("AARDE", 510.0), ("QQXXJ", 520.0))
    assert unknown.n_responded == [1, 1, 1] and unknown.n_trials == [3, 3, 3]
    assert unknown.notes == ["fewer_than_two_responses"] * 3
    fitted = only_iteration(("AARDE", 500.0), ("AARDBEI", 560.0), ("AAP", 530.0))
    assert fitted.notes == [""] * 3 and WORST_FITNESS not in fitted.fitnesses
