import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexsim import (Lexicon, LexiconEntry, ParseError, ParseOptions, Parameters, ValidationError,
                    build_network, load_lexicon, opb, parse_lexicon, table1_path)
from lexsim.lexicon import rest_from_opb

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
    # an immutable, hashable record, however it is built, with the dataclass-style repr
    with pytest.raises(AttributeError):
        e.ortho_a = "AAP"
    by_keyword = LexiconEntry(ortho_a="AARDE", freq_a=100.07, phono_a="ard@",
                              ortho_b="EARTH", freq_b=24.87, phono_b="3T")
    by_position = LexiconEntry("AARDE", 100.07, "ard@", "EARTH", 24.87, "3T")
    assert e == by_keyword == by_position and hash(e) == hash(by_keyword) == hash(by_position)
    assert repr(e) == ("LexiconEntry(ortho_a='AARDE', freq_a=100.07, phono_a='ard@', "
                       "ortho_b='EARTH', freq_b=24.87, phono_b='3T')")


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


HEADER = "ortho_a,freq_a,phono_a,freq_pa,ortho_b,freq_b,phono_b,freq_pb"


@pytest.mark.parametrize("rows, options, error, message", [
    # the earlier of two faulty rows is reported
    (["AARDE,1,ard@,1,EARTH,1,3T,1", "AARDE,2,ard@,2,SOIL,2,sOIl,2", "BAD,1"], ParseOptions(),
     ValidationError,
     "row 3: duplicate orthographic reading 'AARDE' in language NL (first seen at row 2)"),
    # within one row: the column count first
    (["AARDE,-1,,x,EARTH,1,3T"], ParseOptions(), ParseError, "row 2: expected 8 columns, got 7"),
    # then each frequency in column order
    (["AAP,-1,ap,x,APE,1,ep,1"], ParseOptions(), ParseError,
     "row 2: frequency must be finite and >= 0, got -1"),
    (["AAP,1,ap,x,APE,-1,ep,1"], ParseOptions(), ParseError, "row 2: non-numeric frequency 'x'"),
    (["AAP,1,ap,1,APE,inf,ep,y"], ParseOptions(), ParseError,
     "row 2: frequency must be finite and >= 0, got inf"),
    # a phonological cell spelled unlike its sibling's is parsed, and named by its row
    (["AAP,1,ap,1.0,APE,2,ep,2", "AARDE,1,ard@,1,EARTH,2,3T,y"], ParseOptions(), ParseError,
     "row 3: non-numeric frequency 'y'"),
    (["AAP,1,ap,1.0,APE,2,ep,2", "AARDE,1,ard@,-1,EARTH,2,3T,2"], ParseOptions(), ParseError,
     "row 3: frequency must be finite and >= 0, got -1"),
    # then the sibling-frequency mismatch
    (["AAP,1,,2,,1,ep,1"], ParseOptions(), ValidationError,
     "row 2: phonological frequency must equal its orthographic sibling's"),
    (["AAP,1,ap,1,APE,2,ep,2.0", "AARDE,1,ard@,1,EARTH,2,3T,2.5"], ParseOptions(),
     ValidationError, "row 3: phonological frequency must equal its orthographic sibling's"),
    # then the empty symbol, before a duplicate
    (["AARDE,1,ard@,1,EARTH,1,3T,1", "AARDE,1,ard@,1,SOIL,1,,1"], ParseOptions(),
     ValidationError, "empty phono_b (row 3)"),
    # then the duplicate in language A before the one in language B
    (["AARDE,1,ard@,1,EARTH,1,3T,1", "AARDE,2,ard@,2,EARTH,2,3T,2"], ParseOptions(),
     ValidationError,
     "row 3: duplicate orthographic reading 'AARDE' in language NL (first seen at row 2)"),
    # equal language tags share one duplicate check, across columns and within a row
    (["X,1,x,1,Y,1,y,1", "Y,1,y,1,Z,1,z,1"], ParseOptions(language_a="NL", language_b="NL"),
     ValidationError,
     "row 3: duplicate orthographic reading 'Y' in language NL (first seen at row 2)"),
    (["X,1,x,1,x,1,y,1"], ParseOptions(language_a="NL", language_b="NL"), ValidationError,
     "row 2: duplicate orthographic reading 'X' in language NL (first seen at row 2)"),
], ids=["earlier_row", "column_count", "negative_before_non_numeric", "freq_pa_before_freq_b",
        "inf_before_non_numeric", "non_numeric_freq_pb", "negative_freq_pa",
        "sibling_before_empty", "sibling_of_another_value", "empty_before_duplicate",
        "duplicate_a_before_b", "equal_tags_across_rows", "equal_tags_within_row"])
def test_parse_reports_the_first_error_in_row_and_check_order(rows, options, error, message):
    with pytest.raises(error) as info:
        parse_lexicon("\n".join([HEADER, *rows]), options)
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


def test_phono_frequency_spelled_otherwise_but_equal_loads():
    lex = parse_lexicon("AARDE,1,ard@,1.0,EARTH,24.870,3T,2.487e1\nAAP,0,ap,0.0,APE,1,ep, 1 ")
    assert [(e.freq_a, e.freq_b) for e in lex.entries] == [(1.0, 24.87), (0.0, 1.0)]


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
    # one opb per distinct frequency, in first-seen order, kept out of the repr
    freqs = tuple(dict.fromkeys(f for e in lex.entries for f in (e.freq_a, e.freq_b)))
    assert lex.freqs == freqs and lex.opbs == tuple(map(opb, freqs))
    assert repr(lex).endswith(f"language_a='NL', language_b='EN', max_opb={lex.max_opb!r})")
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


def _rest(freq, max_opb, params):
    """The resting level of one frequency."""
    return rest_from_opb(opb(freq), max_opb, params).item()


def test_rest_activation_endpoints(params=Parameters()):
    max_opb = opb(100.0)
    assert _rest(0.0, max_opb, params) == -0.2
    assert _rest(100.0, max_opb, params) == pytest.approx(0.0, abs=1e-15)


def test_rest_activation_midpoint(params=Parameters()):
    # a frequency whose opb is half the maximum sits exactly halfway
    max_opb = 2 * opb(5.0)
    assert _rest(5.0, max_opb, params) == pytest.approx(-0.1, abs=1e-12)


@given(st.floats(min_value=0, max_value=1e6))
def test_rest_activation_range(freq):
    params = Parameters()
    rest = _rest(freq, opb(1e6), params)
    assert -0.2 <= rest <= 0.0


def test_rest_activation_reaches_positive_max_rest(table1):
    # the most frequent word rests at MAX_REST, not at MIN_REST + |MIN_REST|
    params = Parameters(MAX_REST=0.05)
    top = max(f for e in table1.entries for f in (e.freq_a, e.freq_b))
    assert _rest(top, table1.max_opb, params) == pytest.approx(0.05, abs=1e-12)
    assert _rest(0.0, table1.max_opb, params) == -0.2


def _rest_reference(o, max_opb, params):
    """The scalar formula, one value at a time, as rest levels were first computed."""
    if o == 0.0:
        return params.MIN_REST
    if max_opb <= 0:
        raise ValueError("max_opb must be positive for nonzero frequencies")
    rest = params.MIN_REST + o * ((params.MAX_REST - params.MIN_REST) / max_opb)
    return min(params.MAX_REST, max(params.MIN_REST, rest))


_OPBS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0),
                  st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
                  st.builds(opb, st.floats(min_value=0.0, max_value=1e6)))


@given(opbs=st.lists(_OPBS, min_size=1, max_size=50),
       max_opb=st.one_of(st.none(), st.just(5e-324), st.floats(min_value=1e-6, max_value=1.0)),
       rests=st.tuples(st.floats(min_value=-0.2, max_value=0.0),
                       st.floats(min_value=-0.2, max_value=1.0)))
def test_rest_from_opb_over_an_array_equals_the_scalar_formula(opbs, max_opb, rests):
    # max_opb None is the lexicon maximum, which one opb reaches; a smaller MAX_OPB (5e-324,
    # a subnormal, among them) clamps every opb above it at MAX_REST
    params = Parameters(MIN_REST=min(rests), MAX_REST=max(rests), MAX_OPB=max_opb)
    max_opb = max(opbs) if max_opb is None else max_opb
    expected = [_rest_reference(o, max_opb, params).hex() for o in opbs]
    assert list(map(float.hex, rest_from_opb(np.array(opbs), max_opb, params).tolist())) \
        == expected
    assert [rest_from_opb(o, max_opb, params).item().hex() for o in opbs] == expected


def test_rest_from_opb_requires_positive_max_for_a_nonzero_opb(params):
    assert rest_from_opb(np.zeros(3), 0.0, params).tolist() == [-0.2] * 3
    with pytest.raises(ValueError, match="max_opb must be positive for nonzero frequencies"):
        rest_from_opb(np.array([0.0, 1e-300]), 0.0, params)


def test_rest_activation_requires_positive_max():
    with pytest.raises(ValueError):
        _rest(1.0, 0.0, Parameters())


def test_a_loaded_lexicon_cannot_change():
    # rest levels come from the opbs taken when the lexicon was made, so neither its
    # entries nor their largest opb may change after
    lex = load_lexicon(table1_path())
    with pytest.raises(AttributeError):
        lex.entries.append(lex.entries[0])
    with pytest.raises(AttributeError):
        lex.entries.pop()
    with pytest.raises(TypeError):
        lex.entries[0] = lex.entries[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        lex.max_opb = 1.0
    assert len(lex) == 10 and lex == load_lexicon(table1_path())


# sha256 of the table1 network's rest levels (float64 bytes) under the default parameters
TABLE1_REST_SHA256 = "7085da82c893528021a75c17fec8307eaf7f9102d12f973e55af845f80d7202a"


def test_a_lexicons_opbs_cannot_change(params):
    # build_network maps each distinct frequency to its rest level from freqs and
    # opbs, so neither may change after the lexicon is made
    lex = load_lexicon(table1_path())
    for name in ("freqs", "opbs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lex, name, ())
        with pytest.raises(TypeError):
            getattr(lex, name)[0] = 0.1
    rest = build_network(lex, params).rest
    assert hashlib.sha256(rest.tobytes()).hexdigest() == TABLE1_REST_SHA256
    copy = pickle.loads(pickle.dumps(lex))
    assert copy == lex and (copy.freqs, copy.opbs) == (lex.freqs, lex.opbs)


@pytest.mark.parametrize("field", ["ortho_a", "phono_a", "ortho_b", "phono_b"])
def test_build_network_rejects_an_empty_symbol(params, field):
    # parse_lexicon refuses an empty symbol; a Lexicon made from entries would
    # give the fast engine a node the dense engine cannot weight
    entry = LexiconEntry("AARDE", 1.0, "ard@", "EARTH", 1.0, "3T")
    lex = Lexicon([entry, entry._replace(**{field: ""})])
    with pytest.raises(ValidationError, match=f"^empty {field} in entry 1: LexiconEntry"):
        build_network(lex, params)


@pytest.mark.parametrize("rows, extra", [
    (slice(None, -1), ""),  # without AARDIG, the most frequent word: max_opb falls
    (slice(None), "ZEBRA,12345,zebr@,12345,ZEBU,0.5,zibu,0.5\n"),  # a new, largest frequency
])
def test_a_lexicon_made_from_changed_entries_rests_as_one_parsed(params, rows, extra):
    with open(table1_path(), encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    lex = load_lexicon(table1_path())
    expected = parse_lexicon("".join(lines[1:][rows]) + extra)
    made = dataclasses.replace(lex, entries=lex.entries[rows] + parse_lexicon(extra).entries)
    assert made == expected and (made.freqs, made.opbs) == (expected.freqs, expected.opbs)
    assert made.max_opb != lex.max_opb
    assert build_network(made, params).rest.tobytes() == \
        build_network(expected, params).rest.tobytes()


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
