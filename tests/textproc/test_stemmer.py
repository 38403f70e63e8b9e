"""Tests for the Porter stemmer."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.textproc.stemmer import porter_stem

MEMO_BOUND = porter_stem.cache_info().maxsize

# Classic examples from Porter's paper and the reference vocabulary.
KNOWN_STEMS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", KNOWN_STEMS)
def test_known_stems(word, expected):
    assert porter_stem(word) == expected


def test_short_words_untouched():
    assert porter_stem("a") == "a"
    assert porter_stem("is") == "is"


def test_idempotent_on_common_words():
    for word in ("connection", "running", "flies", "analysis", "happily"):
        once = porter_stem(word)
        assert porter_stem(once) == porter_stem(once)


def test_morphological_variants_collapse():
    assert porter_stem("connect") == porter_stem("connected")
    assert porter_stem("connect") == porter_stem("connecting")
    assert porter_stem("connect") == porter_stem("connection")
    assert porter_stem("connect") == porter_stem("connections")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=0, max_size=20))
def test_never_longer_than_input(word):
    assert len(porter_stem(word)) <= max(len(word), 1) or word == ""


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_always_returns_nonempty(word):
    assert porter_stem(word)


class TestStemMemo:
    """``porter_stem`` remembers; ``__wrapped__`` is the bare algorithm."""

    @given(st.text(max_size=24))
    def test_memo_never_changes_a_stem_and_stays_bounded(self, word):
        assert porter_stem(word) == porter_stem.__wrapped__(word)
        assert porter_stem(word) == porter_stem.__wrapped__(word)  # now a hit
        assert porter_stem.cache_info().currsize <= MEMO_BOUND

    def test_memo_drops_old_words_instead_of_growing(self):
        assert MEMO_BOUND is not None and MEMO_BOUND <= 2 ** 16
        for number in range(MEMO_BOUND + 500):
            porter_stem(f"w{number}ing")
        assert porter_stem.cache_info().currsize == MEMO_BOUND
        assert porter_stem("w0ing") == porter_stem.__wrapped__("w0ing")

    def test_eight_threads_stemming_concurrently_agree(self):
        words = [f"{stem}{suffix}" for stem in ("connect", "relat", "hop", "pon", "caress")
                 for suffix in ("", "s", "ed", "ing", "ion", "ions", "ional", "iveness")] * 50
        expected = [porter_stem.__wrapped__(word) for word in words]
        porter_stem.cache_clear()
        results, start = {}, threading.Barrier(8)

        def stem_all(slot):
            start.wait(timeout=10)
            results[slot] = [porter_stem(word) for word in words]

        threads = [threading.Thread(target=stem_all, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[slot] for slot in range(8)] == [expected] * 8
