import math

import pytest
from hypothesis import given, strategies as st

from lexsim import (LexiconEntry, ParseError, ParseOptions, Parameters, ValidationError,
                    opb, parse_lexicon, rest_activation, table1_path)

AARDE_ROW = "AARDE,100.07,ard@,100.07,EARTH,24.87,3T,24.87"

# opb(100.07) under the per-billion formula, frozen from a hand evaluation
# of log10(1 + 1000*100.07)/10 (formula version 2).
OPB_100_07 = 0.5000308239670013


def test_parse_single_row():
    lex = parse_lexicon(AARDE_ROW)
    assert len(lex) == 1
    e = lex.entries[0]
    assert e.ortho_a == "AARDE" and e.freq_a == 100.07
    assert e.phono_a == "ard@"
    assert e.ortho_b == "EARTH" and e.freq_b == 24.87
    assert e.phono_b == "3T"


def test_parse_header_only():
    lex = parse_lexicon("ortho_a,freq_a,phono_a,freq_pa,ortho_b,freq_b,phono_b,freq_pb\n")
    assert len(lex) == 0
    assert lex.max_opb == 0.0


@pytest.mark.parametrize("first, error, message", [
    ("AAP,1o,ap,1o,APE,1,ep,1", ParseError, "row 1: non-numeric frequency '1o'"),
    ("AAP,,ap,,APE,1,ep,1", ParseError, "row 1: non-numeric frequency ''"),
    ("AAP,1, ,1,APE,1,ep,1", ValidationError, "empty phono_a (row 1)"),
    ("AAP,1,ap,1,earth ,1,3T,1", ValidationError,
     "row 2: duplicate orthographic reading 'EARTH' in language EN (first seen at row 1)"),
], ids=["typo", "empty", "blank_symbol", "duplicate_in_b"])
def test_first_row_with_a_numeric_frequency_is_data(first, error, message):
    # a header names every column, so one number among row 1's frequencies makes it data
    with pytest.raises(error) as info:
        parse_lexicon(first + "\n" + AARDE_ROW)
    assert str(info.value) == message


def test_short_header_names_still_load():
    lex = parse_lexicon("ortho,f,ph,f,o,f,p,f\n" + AARDE_ROW)
    assert [e.ortho_a for e in lex.entries] == ["AARDE"]


def test_wrong_column_count_names_row():
    with pytest.raises(ParseError, match="row 2"):
        parse_lexicon(AARDE_ROW + "\nAAP,28.56,ap,28.56,MONKEY,8.38,mVNkI")


def test_negative_frequency_rejected():
    with pytest.raises(ParseError, match="frequency"):
        parse_lexicon("AARDE,-1,ard@,-1,EARTH,24.87,3T,24.87")


def test_non_numeric_frequency_rejected():
    with pytest.raises(ParseError, match="row 2.*non-numeric"):
        parse_lexicon(AARDE_ROW + "\nAAP,abc,ap,abc,MONKEY,8.38,mVNkI,8.38")


def test_phono_frequency_must_match_ortho():
    with pytest.raises(ValidationError, match="phonological frequency"):
        parse_lexicon("AARDE,100.07,ard@,100.06,EARTH,24.87,3T,24.87")


def test_duplicate_reading_rejected_by_default():
    text = AARDE_ROW + "\nAARDE,5.0,ard2,5.0,WORLD,5.0,w3ld,5.0"
    with pytest.raises(ValidationError, match="duplicate"):
        parse_lexicon(text)
    lex = parse_lexicon(text, ParseOptions(allow_within_language_homographs=True))
    assert len(lex) == 2


def test_cross_language_homograph_allowed():
    text = ("ROOM,39.3,rom,39.3,CREAM,12.27,krim,12.27\n"
            "KAMER,159.33,kam@r,159.33,ROOM,93.65,rum,93.65")
    lex = parse_lexicon(text)
    assert len(lex) == 2


def test_l2_scaling_flag():
    lex = parse_lexicon(AARDE_ROW, ParseOptions(scale_l2_frequencies=True))
    assert lex.entries[0].freq_b == 24.87 / 4.0
    assert lex.entries[0].freq_a == 100.07


def test_orthography_uppercased_phonology_untouched():
    lex = parse_lexicon("aarde,100.07,ard@,100.07,earth,24.87,3T,24.87")
    assert lex.entries[0].ortho_a == "AARDE"
    assert lex.entries[0].phono_a == "ard@"


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
def test_round_trip_preserves_numeric_content(freq_a, freq_b):
    # a frequency written with repr parses back to the same double
    lex = parse_lexicon(f"AARDE,{freq_a!r},ard@,{freq_a!r},EARTH,{freq_b!r},3T,{freq_b!r}")
    assert (lex.entries[0].freq_a, lex.entries[0].freq_b) == (freq_a, freq_b)


def test_table1_fixture_shape():
    with open(table1_path(), encoding="utf-8") as handle:
        text = handle.read()
    lex = parse_lexicon(text)
    assert len(lex) == 10
    assert math.isclose(lex.max_opb, opb(191.95))
    # phonological readings reuse the orthographic frequency by construction
    for line in text.splitlines()[1:]:
        cols = line.split(",")
        assert cols[1] == cols[3] and cols[5] == cols[7]


def test_opb_zero_and_golden():
    assert opb(0.0) == 0.0
    assert opb(100.07) == pytest.approx(OPB_100_07, abs=0, rel=1e-15)


def test_opb_rejects_negative():
    with pytest.raises(ValueError):
        opb(-0.1)


@given(st.tuples(st.floats(min_value=0, max_value=1e6),
                 st.floats(min_value=0, max_value=1e6)))
def test_opb_monotone(pair):
    f1, f2 = sorted(pair)
    assert opb(f1) <= opb(f2)


def test_rest_activation_endpoints(params=Parameters()):
    max_opb = opb(100.0)
    assert rest_activation(0.0, max_opb, params) == -0.2
    assert rest_activation(100.0, max_opb, params) == pytest.approx(0.0, abs=1e-15)


def test_rest_activation_midpoint(params=Parameters()):
    # a frequency whose opb is half the maximum sits exactly halfway
    max_opb = 2 * opb(5.0)
    assert rest_activation(5.0, max_opb, params) == pytest.approx(-0.1, abs=1e-12)


@given(st.floats(min_value=0, max_value=1e6))
def test_rest_activation_range(freq):
    params = Parameters()
    rest = rest_activation(freq, opb(1e6), params)
    assert -0.2 <= rest <= 0.0


def test_rest_activation_reaches_positive_max_rest(table1):
    # the most frequent word rests at MAX_REST, not at MIN_REST + |MIN_REST|
    params = Parameters(MAX_REST=0.05)
    top = max(f for e in table1.entries for f in (e.freq_a, e.freq_b))
    assert rest_activation(top, table1.max_opb, params) == pytest.approx(0.05, abs=1e-12)
    assert rest_activation(0.0, table1.max_opb, params) == -0.2


def test_rest_activation_requires_positive_max():
    with pytest.raises(ValueError):
        rest_activation(1.0, 0.0, Parameters())


def test_compatibility_max_opb_used_in_build():
    from lexsim import build_network
    from lexsim.network import Pool
    lex = parse_lexicon(AARDE_ROW)
    compat = Parameters().updated(MAX_OPB=0.6402259325203161)
    net = build_network(lex, compat)
    node = net.find(Pool.ORTHO, "AARDE", "NL")
    expected = -0.2 + opb(100.07) * (0.2 / 0.6402259325203161)
    assert node.rest == pytest.approx(expected, rel=1e-12)


def test_empty_symbol_rejected():
    with pytest.raises(ValidationError, match="empty"):
        parse_lexicon(",1.0,ard@,1.0,EARTH,1.0,3T,1.0")


def test_repo_fixture_matches_bundled_copy():
    from pathlib import Path
    repo_copy = Path(__file__).parent.parent / "fixtures" / "table1.csv"
    assert repo_copy.read_bytes() == Path(table1_path()).read_bytes()


@pytest.mark.parametrize("freq_a, freq_b, message", [
    (-1.0, 2.0, "freq_a=-1.0 must be finite and >= 0 (row 7)"),
    (1.0, math.inf, "freq_b=inf must be finite and >= 0 (row 7)"),
    (math.nan, 2.0, "freq_a=nan must be finite and >= 0 (row 7)"),
])
def test_entry_validate_rejects_bad_frequency(freq_a, freq_b, message):
    entry = LexiconEntry("AARDE", freq_a, "ard@", "EARTH", freq_b, "3T")
    with pytest.raises(ValidationError) as info:
        entry.validate(row=7)
    assert str(info.value) == message
