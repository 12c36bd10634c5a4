"""Bilingual lexicon parsing, validation, and frequency-to-rest mapping.

The lexicon file is comma-separated with eight columns per row:
orthography/frequency/phonology/frequency for language A, then the same four
for language B. Frequencies are occurrences per million. Phonological
readings carry the same frequency as their orthographic sibling; rows where
the two columns disagree are rejected, because both nodes of a reading rest
at the level of that one frequency.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import IO

from .errors import ParseError, ValidationError
from .params import Parameters


@dataclass(frozen=True)
class LexiconEntry:
    """One translation pair; symbols are never empty, frequencies >= 0."""

    ortho_a: str
    freq_a: float
    phono_a: str
    ortho_b: str
    freq_b: float
    phono_b: str

    def validate(self, row: int | None = None) -> None:
        where = f" (row {row})" if row is not None else ""
        for name in ("ortho_a", "phono_a", "ortho_b", "phono_b"):
            if not getattr(self, name):
                raise ValidationError(f"empty {name}{where}")
        for name in ("freq_a", "freq_b"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"{name}={value} must be finite and >= 0{where}")


@dataclass(frozen=True)
class ParseOptions:
    language_a: str = "NL"
    language_b: str = "EN"
    # divide language-B frequencies by 4 at load time (unbalanced bilinguals)
    scale_l2_frequencies: bool = False
    # permit two concepts within one language to share an orthographic form
    allow_within_language_homographs: bool = False


@dataclass
class Lexicon:
    entries: list[LexiconEntry]
    language_a: str = "NL"
    language_b: str = "EN"
    max_opb: float = field(init=False, default=0.0)

    def __post_init__(self):
        # opb once per distinct frequency, in first-seen order: the first bad one raises
        freqs = dict.fromkeys(f for e in self.entries for f in (e.freq_a, e.freq_b))
        self.max_opb = max(map(opb, freqs), default=0.0)

    def __len__(self) -> int:
        return len(self.entries)


def opb(freq: float) -> float:
    """Log-compressed occurrences-per-billion value used for resting levels.

    opb(f) = log10(1 + 1000*f) / 10, with f in occurrences per million.
    Formula version 2 ("per-billion"): under it the stock parameter files'
    normalisation constant equals the value for a lexicon whose most
    frequent word occurs ~2525 times per million, so configurations remain
    bit-compatible while rest levels keep a realistic spread.
    """
    if freq < 0 or not math.isfinite(freq):
        raise ValueError(f"frequency must be finite and >= 0, got {freq}")
    return math.log10(1.0 + 1000.0 * freq) / 10.0


def rest_activation(freq: float, max_opb: float, params: Parameters) -> float:
    """Frequency-derived resting level in [MIN_REST, MAX_REST].

    Linear in opb(freq): MIN_REST at zero frequency, MAX_REST at the
    normalisation maximum. ``max_opb`` is the lexicon-wide maximum, or the
    fixed compatibility constant when Parameters.MAX_OPB is set.
    """
    o = opb(freq)
    if o == 0.0:
        return params.MIN_REST
    if max_opb <= 0:
        raise ValueError("max_opb must be positive for nonzero frequencies")
    rest = params.MIN_REST + o * ((params.MAX_REST - params.MIN_REST) / max_opb)
    return min(params.MAX_REST, max(params.MIN_REST, rest))


def _parse_float(raw: str, row: int, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric {what} {raw!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ParseError(f"row {row}: {what} must be finite and >= 0, got {raw}")
    return value


def parse_lexicon(source: str | IO[str],
                  options: ParseOptions = ParseOptions()) -> Lexicon:
    """Parse a bilingual lexicon from CSV text (optional header row).

    Orthographic symbols are uppercased; phonological symbols are kept
    byte-exact (SAMPA is case-significant).
    """
    lines = (source if isinstance(source, str) else source.read()).splitlines()

    entries: list[LexiconEntry] = []
    seen: dict[tuple[str, str], int] = {}
    for row, record in enumerate(csv.reader(lines), start=1):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if row == 1 and record[1:8:2] and not any(map(_is_number, record[1:8:2])):
            continue  # header row: no frequency cell is a number
        if len(record) != 8:
            raise ParseError(f"row {row}: expected 8 columns, got {len(record)}")
        o_a, f_a, p_a, f_pa, o_b, f_b, p_b, f_pb = map(str.strip, record)
        freq_a = _parse_float(f_a, row, "frequency")
        freq_pa = _parse_float(f_pa, row, "frequency")
        freq_b = _parse_float(f_b, row, "frequency")
        freq_pb = _parse_float(f_pb, row, "frequency")
        if freq_pa != freq_a or freq_pb != freq_b:
            raise ValidationError(
                f"row {row}: phonological frequency must equal its orthographic sibling's")
        if options.scale_l2_frequencies:
            freq_b = freq_b / 4.0
        entry = LexiconEntry(ortho_a=o_a.upper(), freq_a=freq_a, phono_a=p_a,
                             ortho_b=o_b.upper(), freq_b=freq_b, phono_b=p_b)
        if not (o_a and p_a and o_b and p_b):
            entry.validate(row)  # names the empty symbol; the frequencies passed _parse_float
        for language, symbol in ((options.language_a, entry.ortho_a),
                                 (options.language_b, entry.ortho_b)):
            key = (language, symbol)
            if key in seen and not options.allow_within_language_homographs:
                raise ValidationError(
                    f"row {row}: duplicate orthographic reading {symbol!r} "
                    f"in language {language} (first seen at row {seen[key]})")
            seen.setdefault(key, row)
        entries.append(entry)
    return Lexicon(entries=entries,
                   language_a=options.language_a,
                   language_b=options.language_b)


def _is_number(raw: str) -> bool:
    try:
        float(raw)
        return True
    except ValueError:
        return False


def load_lexicon(path, options: ParseOptions = ParseOptions()) -> Lexicon:
    with open(path, encoding="utf-8") as handle:
        return parse_lexicon(handle, options)


def table1_path() -> str:
    """Filesystem path of the bundled ten-pair fixture lexicon."""
    return str(resources.files("lexsim").joinpath("fixtures/table1.csv"))
