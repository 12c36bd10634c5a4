"""Seeded inputs for the benchmark: a bilingual lexicon CSV and a stimulus CSV.

The program under test only ever sees the files written here; the seed stays
on the benchmark's side.

Why not ``lexsim.synthetic_lexicon(n)``: its words are 5-letter base-5 codes,
which repeat after 5**5 = 3,125 pairs, so at 10,000 pairs ``load_lexicon``
rejects the file ("duplicate orthographic reading 'BBBBB'"). Its two
languages also use disjoint alphabets, so no stimulus ever activates a
word of the other language and the word-translation shortlist never rejects
anything. The generator below builds syllable-based words over one shared
alphabet, distinct within each language, and plants a seeded share of
cognates (same or one-letter-different form in both languages) and
interlingual homographs (the language-A form of one pair is the language-B
form of another), so the shortlist-rejection path runs at scale.
"""

from __future__ import annotations

import csv
import math
import random

LANG_A, LANG_B = "NL", "EN"

# per-language syllable inventories over one shared alphabet
_SYLLABLES = {
    LANG_A: (("B", "D", "G", "K", "L", "M", "N", "P", "R", "S", "T", "V", "Z", "BR", "ST"),
             ("A", "E", "I", "O", "U", "AA", "EE", "OO", "IJ", "OE"),
             ("", "", "N", "R", "L", "K", "T", "S", "RD", "NG")),
    LANG_B: (("B", "C", "D", "F", "G", "H", "L", "M", "N", "P", "R", "S", "T", "W", "TR"),
             ("A", "E", "I", "O", "U", "EA", "OU", "AI", "EE", "Y"),
             ("", "", "N", "R", "L", "CK", "T", "SH", "TH", "ND")),
}
# phonological readings: lower-cased orthography, language B with its own
# vowel symbols, so the two readings of a homograph differ
_PHONO_B = str.maketrans("aeiouy", "{EIQVi")

COGNATE_SHARE = 0.08
HOMOGRAPH_SHARE = 0.04


def _word(rng: random.Random, language: str) -> str:
    onsets, vowels, codas = _SYLLABLES[language]
    n_syllables = rng.choice((1, 2, 2, 2, 3, 3))
    return "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(n_syllables)) \
        + rng.choice(codas)


def _near(rng: random.Random, word: str) -> str:
    """The word itself, or the word with one letter replaced."""
    if rng.random() < 0.5:
        return word
    i = rng.randrange(len(word))
    return word[:i] + rng.choice("ABDEGKLMNOPRSTU".replace(word[i], "")) + word[i + 1:]


def _freq(rng: random.Random) -> float:
    """Occurrences per million, log-uniform over 0.3 .. 500, two decimals."""
    return round(10 ** rng.uniform(-0.5, 2.7), 2)


def make_lexicon(n_pairs: int, seed: int) -> tuple[list[tuple], dict[str, list[int]]]:
    """``n_pairs`` entries (ortho_a, freq_a, phono_a, ortho_b, freq_b, phono_b)
    and the indices of the planted cognates and homographs."""
    rng = random.Random(f"lexicon-{n_pairs}-{seed}")
    seen = {LANG_A: set(), LANG_B: set()}
    pairs: list[list[str]] = []
    kinds = {"cognate": [], "homograph": []}

    def fresh(language: str, make) -> str:
        while True:
            word = make()
            if word not in seen[language]:
                seen[language].add(word)
                return word

    for i in range(n_pairs):
        roll = rng.random()
        if roll < HOMOGRAPH_SHARE and pairs:
            # the language-A form of this pair is an existing language-B form
            donors = [p[1] for p in rng.sample(pairs, min(8, len(pairs)))
                      if p[1] not in seen[LANG_A]]
            if donors:
                ortho_a = donors[0]
                seen[LANG_A].add(ortho_a)
                pairs.append([ortho_a, fresh(LANG_B, lambda: _word(rng, LANG_B))])
                kinds["homograph"].append(i)
                continue
        ortho_a = fresh(LANG_A, lambda: _word(rng, LANG_A))
        if roll < HOMOGRAPH_SHARE + COGNATE_SHARE:
            ortho_b = fresh(LANG_B, lambda: _near(rng, ortho_a))
            kinds["cognate"].append(i)
        else:
            ortho_b = fresh(LANG_B, lambda: _word(rng, LANG_B))
        pairs.append([ortho_a, ortho_b])

    entries = [(a, _freq(rng), a.lower(), b, _freq(rng), b.lower().translate(_PHONO_B))
               for a, b in pairs]
    return entries, kinds


def write_lexicon(path: str, entries: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["ortho_a", "freq_a", "phono_a", "freq_pa",
                         "ortho_b", "freq_b", "phono_b", "freq_pb"])
        for o_a, f_a, p_a, o_b, f_b, p_b in entries:
            writer.writerow([o_a, f_a, p_a, f_a, o_b, f_b, p_b, f_b])


def write_stimuli(path: str, records: list[tuple]) -> None:
    """Rows of (stimulus, source_lang, target_lang, task) with a header."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["stimulus", "source_lang", "target_lang", "task"])
        writer.writerows(records)


def _planted_every(rng: random.Random, entries, kinds, n: int, every: int) -> list[int]:
    """``n`` <= len(entries) distinct entry indices; every ``every``-th one
    is a planted cognate or homograph while they last, the rest are drawn
    from the other entries."""
    planted = kinds["cognate"] + kinds["homograph"]
    rng.shuffle(planted)
    planted_set = set(planted)
    others = [i for i in range(len(entries)) if i not in planted_set]
    rng.shuffle(others)
    chosen = []
    for k in range(n):
        take_planted = (k % every == every - 1 and planted) or not others
        chosen.append(planted.pop() if take_planted else others.pop())
    return chosen


def mixed_stimuli(entries, kinds, n: int, seed: int) -> list[tuple]:
    """LD, NAME and WT trials in turn, one third each, over distinct words.

    LD and NAME present a language-A or language-B word in its own
    language; WT translates a language-A word into language B.
    """
    rng = random.Random(f"mixed-{seed}")
    records = []
    for k, i in enumerate(_planted_every(rng, entries, kinds, n, every=4)):
        task = ("LD", "NAME", "WT")[k % 3]
        o_a, _fa, _pa, o_b, _fb, _pb = entries[i]
        if task == "WT" or rng.random() < 0.5:
            records.append((o_a, LANG_A, LANG_B if task == "WT" else LANG_A, task))
        else:
            records.append((o_b, LANG_B, LANG_B, task))
    return records


def wt_stimuli(entries, kinds, n: int, seed: int) -> list[tuple]:
    """Word translation A -> B of ``n`` distinct language-A words.

    At 10,000 pairs a run holds only about a dozen trials, and the trial
    cost grows with stimulus length while the cycle count falls with
    frequency. So the k-th stimulus of every seed is matched on both: its
    length is 5, 6, 7 or 8 letters in turn, and its frequency is the one
    nearest to a fixed low-discrepancy sequence over 3 .. 100 per million.
    Every fourth stimulus is a planted cognate or homograph.
    """
    rng = random.Random(f"wt-{seed}")
    planted = set(kinds["cognate"] + kinds["homograph"])
    order = list(range(len(entries)))
    rng.shuffle(order)
    pools: dict[tuple[bool, int], list[int]] = {}
    for i in order:
        ortho, freq = entries[i][0], entries[i][1]
        if 5 <= len(ortho) <= 8 and 3 <= freq <= 100:
            pools.setdefault((i in planted, len(ortho)), []).append(i)
    lo, hi = math.log10(3), math.log10(100)
    chosen = []
    for k in range(n):
        is_planted = k % 4 == 3
        pool = pools.get((is_planted, (5, 6, 7, 8)[(k + k // 4) % 4])) or max(
            (p for key, p in pools.items() if key[0] == is_planted), key=len)
        target = lo + (k * 0.6180339887498949) % 1.0 * (hi - lo)
        best = min(pool, key=lambda i: abs(math.log10(entries[i][1]) - target))
        pool.remove(best)
        chosen.append(best)
    return [(entries[i][0], LANG_A, LANG_B, "WT") for i in chosen]
