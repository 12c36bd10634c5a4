import math

import pytest

from lexsim import ConfigError, Parameters
from lexsim.params import PARAMETER_NAMES, load_parameters, parse_assignment


def test_defaults_match_stock_values():
    p = Parameters()
    assert p.MIN_ACT == -0.2 and p.MAX_ACT == 1.0
    assert p.DECAY_RATE == 0.07
    assert p.IO_multiplier == 0.2
    assert p.OP_alpha == p.OS_alpha == p.PO_alpha == p.SO_alpha == 0.03
    assert p.PS_alpha == p.SP_alpha == 0.3
    assert p.OO_gamma == p.PP_gamma == -0.001
    assert p.SS_gamma == -0.5 and p.SS_multiplier == 0.0
    assert p.criterion_value == 0.72
    assert p.shortlist_input_threshold == 0.7
    assert p.shortlist_output_threshold == 0.5
    assert p.max_cycles == 40


def test_validate_rejects_positive_gamma():
    with pytest.raises(ConfigError, match="OO_gamma"):
        Parameters().updated(OO_gamma=0.1)


def test_validate_rejects_zero_cycles():
    with pytest.raises(ConfigError, match="max_cycles"):
        Parameters().updated(max_cycles=0)


@pytest.mark.parametrize("name", [n for n in PARAMETER_NAMES if n != "max_cycles"])
def test_validate_rejects_non_finite(name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=name):
            Parameters().updated(**{name: value})


@pytest.mark.parametrize("name", ["LL_gamma", "LO_gamma", "LP_gamma", "OL_gamma", "PL_gamma"])
def test_validate_rejects_nonzero_unread_gamma(name):
    # no connection reads these weights, so a nonzero value would be ignored
    with pytest.raises(ConfigError, match=name):
        Parameters().updated(**{name: -0.5})
    assert getattr(Parameters().updated(**{name: 0.0}), name) == 0.0


def test_validate_rejects_negative_ss_multiplier():
    with pytest.raises(ConfigError, match="SS_multiplier"):
        Parameters().updated(SS_multiplier=-1.0)


@pytest.mark.parametrize("name", [n for n in PARAMETER_NAMES if n.endswith("_alpha")]
                         + ["IO_multiplier"])
def test_validate_rejects_negative_weight(name):
    with pytest.raises(ConfigError, match=name):
        Parameters().updated(**{name: -0.01})
    assert getattr(Parameters().updated(**{name: 0.0}), name) == 0.0


def test_validate_decay_rate_range():
    for value in (-0.01, 1.01):
        with pytest.raises(ConfigError, match="DECAY_RATE"):
            Parameters().updated(DECAY_RATE=value)
    for value in (0.0, 1.0):
        assert Parameters().updated(DECAY_RATE=value).DECAY_RATE == value


@pytest.mark.parametrize("name", ["criterion_value", "shortlist_input_threshold",
                                  "shortlist_output_threshold"])
def test_validate_rejects_threshold_above_max_act(name):
    # such a threshold can never be reached, so every trial would time out
    with pytest.raises(ConfigError, match=name):
        Parameters().updated(**{name: 1.01})
    assert getattr(Parameters().updated(**{name: 1.0}), name) == 1.0
    # at or below zero stays legal: every node then qualifies at once
    assert getattr(Parameters().updated(**{name: 0.0}), name) == 0.0


def test_validate_input_rest_within_clamp_range():
    # outside [MIN_ACT, MAX_ACT] the dense engine clamps the input node on its
    # first update while the fast engine, which never touches it, does not
    for value in (-0.21, 1.01):
        with pytest.raises(ConfigError, match="I_rest"):
            Parameters().updated(I_rest=value)
    for value in (-0.2, 1.0):
        assert Parameters().updated(I_rest=value).I_rest == value


def test_validate_rejects_infinite_activation_span():
    # each bound is finite, but MAX_ACT - MIN_ACT overflows; the update rule
    # would turn a - MIN_ACT into inf and a node at rest into NaN
    with pytest.raises(ConfigError, match=r"MIN_ACT=-1e\+308, MAX_ACT=1e\+308"):
        Parameters().updated(MIN_ACT=-1e308, MAX_ACT=1e308, MAX_REST=1e308, L_rest=9e307)
    wide = Parameters().updated(MIN_ACT=-8e307, MAX_ACT=8e307)
    assert math.isfinite(wide.MAX_ACT - wide.MIN_ACT)


def test_negative_zero_parameters_stored_as_positive_zero():
    p = Parameters(MIN_ACT=-0.0, MIN_REST=0.0, S_rest=0.0, L_rest=0.0, I_rest=-0.0,
                   OO_gamma=-0.0)
    assert [p.MIN_ACT.hex(), p.I_rest.hex(), p.OO_gamma.hex()] == ["0x0.0p+0"] * 3
    assert Parameters().updated(MAX_REST=-0.0).MAX_REST.hex() == "0x0.0p+0"
    assert load_parameters("I_rest = -0.0").I_rest.hex() == "0x0.0p+0"
    assert Parameters().MIN_ACT == -0.2  # every other value unchanged


def test_semantic_inhibition_scaled_by_multiplier(homograph_network):
    # raising the multiplier turns on concept-level competition; the two
    # readings of an interlingual homograph then suppress each other and
    # the translation can no longer be produced
    from lexsim import Parameters, word_translation
    p = Parameters().updated(SS_multiplier=1.0)
    gated = word_translation(homograph_network, "ROOM", "NL", "EN")
    competing = word_translation(homograph_network, "ROOM", "NL", "EN", p)
    assert gated.response_symbol == "krim"
    assert competing.response_kind == "none"


def test_parse_assignment_forms():
    assert parse_assignment("OO_gamma=-0.0001") == ("OO_gamma", -0.0001)
    assert parse_assignment("max_cycles = 60") == ("max_cycles", 60)
    with pytest.raises(ConfigError, match="valid names"):
        parse_assignment("NOT_A_NAME=3")
    with pytest.raises(ConfigError):
        parse_assignment("just text")


def test_load_parameters_file_format():
    text = "# stock overrides\nOO_gamma = -0.0001\n\ncriterion_value = 0.7\nmax_cycles = 60\n"
    p = load_parameters(text)
    assert p.OO_gamma == -0.0001
    assert p.criterion_value == 0.7
    assert p.max_cycles == 60
    assert p.PP_gamma == -0.001  # untouched default


def test_load_parameters_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        load_parameters("OO_gamma = -0.001\nWRONG = 2\n")


def test_dump_load_round_trip():
    # every parameter written as NAME = repr(value) loads back exactly
    p = Parameters().updated(OO_gamma=-0.0001, max_cycles=55, MAX_OPB=0.6402259325203161)
    text = "\n".join(f"{name} = {value!r}" for name, value in p.as_dict().items()
                     if value is not None)
    assert load_parameters(text) == p


def test_stock_constants_file_is_valid():
    # the published stock constants written one per line load back bit-identically
    text = "\n".join([
        "MIN_ACT = -0.2", "MAX_ACT = 1.0", "DECAY_RATE = 0.07",
        "MAX_OPB = 0.6402259325203161", "I_rest = 1.0",
        "IO_multiplier = 0.2", "SS_multiplier = 0.0",
        "criterion_value = 0.72", "shortlist_input_threshold = 0.7",
        "shortlist_output_threshold = 0.5", "timestep_multiplier = 1.0",
        "timestep_adder = 0.0", "OP_alpha = 0.03", "OS_alpha = 0.03",
        "PO_alpha = 0.03", "PS_alpha = 0.3", "SO_alpha = 0.03", "SP_alpha = 0.3",
        "LO_alpha = 0.0", "LP_alpha = 0.0", "OL_alpha = 0.0", "PL_alpha = 0.0",
        "OO_gamma = -0.001", "PP_gamma = -0.001", "SS_gamma = -0.5",
        "LL_gamma = 0.0", "LO_gamma = 0.0", "LP_gamma = 0.0",
        "OL_gamma = 0.0", "PL_gamma = 0.0",
    ])
    p = load_parameters(text)
    assert p.MAX_OPB == 0.6402259325203161
    assert p == Parameters().updated(MAX_OPB=0.6402259325203161)
