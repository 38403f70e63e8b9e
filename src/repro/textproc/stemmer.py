"""Porter stemming algorithm (Porter, 1980), implemented from scratch.

Used to fold morphological variants together in the TF-IDF index, the
keyword extractor, and the search engines, so that a query for
``connections`` matches documents about ``connecting``.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, index: int) -> bool:
    letter = word[index]
    if letter in _VOWELS:
        return False
    if letter == "y":
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m: the number of VC sequences in the stem."""
    count = 0
    previous_vowel = False
    for index in range(len(stem)):
        consonant = _is_consonant(stem, index)
        if consonant and previous_vowel:
            count += 1
        previous_vowel = not consonant
    return count


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, index) for index in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Ends consonant-vowel-consonant where the final consonant is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_suffix(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    """Replace ``suffix`` with ``replacement`` when m(stem) > min_measure."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if not _contains_vowel(stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_consonant(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_SUFFIXES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_SUFFIXES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _replace_first(word: str, suffixes: list[tuple[str, str]]) -> str:
    """Steps 2 and 3: rewrite the first listed suffix the word ends with."""
    for suffix, replacement in suffixes:
        replaced = _replace_suffix(word, suffix, replacement, 0)
        if replaced is not None:
            return replaced
    return word


def _step4(word: str) -> str:
    if word.endswith("ion"):
        stem = word[:-3]
        if stem and stem[-1] in "st" and _measure(stem) > 1:
            return stem
        return word
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        measure = _measure(stem)
        if measure > 1 or (measure == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


# A world has ~350 distinct words; the bound is for open-ended text.
@lru_cache(maxsize=8192)
def porter_stem(word: str) -> str:
    """Return the Porter stem of ``word`` (input assumed lowercase); memoised."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_first(word, _STEP2_SUFFIXES)
    word = _replace_first(word, _STEP3_SUFFIXES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
