"""Exact guess order, pinned by digest.

Each pin hashes every (text, level, length) a stream yields, in order, so a
change to enumeration order, to the interleaving of lengths under feedback
or to boosted levels shows up as a different digest. The digests were
recorded on the scheduler and boost code as they stood before their cell
loop and level-raising code were each folded into one function.
"""

import hashlib

import pytest

import synth
from omen import (
    BoostProfile,
    Corpus,
    TestSetOracle,
    boost_conditionals,
    guess_stream,
    plus_stream,
    train,
)
from omen.similarity import ngram_set

LENGTHS = (4, 5, 6, 7)


@pytest.fixture(scope="module")
def corpus():
    alphabet = synth.make_alphabet(20)
    train_words, test_words = synth.zipf_corpus(5, alphabet, 1500, 6000, 3000,
                                                min_len=4, max_len=7)
    return train(Corpus(train_words), alphabet=alphabet), test_words


def digest(stream) -> str:
    h = hashlib.sha256()
    for g in stream:
        h.update(f"{g.text}\t{g.level}\t{g.length}\n".encode())
    return h.hexdigest()


def test_pin_guess_stream_under_test_set_feedback(corpus):
    model, test_words = corpus
    oracle = TestSetOracle(test_words)
    got = digest(guess_stream(model, 20_000, oracle, LENGTHS))
    assert got == "1fa480cfe85be29687a46c522f82c469e8e5e488a95f1c9fafacaefca686e291"
    assert oracle.cracked == 1850
    # the feedback must matter, or this pin would not cover it
    assert digest(guess_stream(model, 20_000, None, LENGTHS)) != got


def test_pin_plus_stream_with_overlapping_attributes(corpus):
    model, test_words = corpus
    profile = BoostProfile(L=model.L)
    profile.set("firstName", 5.0)  # boost level 2
    profile.set("lastName", 3.0)  # boost level 1
    # the two values share grams, which must take firstName's larger bonus
    hints = {"firstName": ["abcdef"], "lastName": ["cdefgh", "hgfe"]}
    oracle = TestSetOracle(test_words)
    got = digest(plus_stream(model, profile, hints, 8000, oracle, LENGTHS))
    assert got == "92df210608fa91d08b370a6349f43193419779a21261de79068d5bfd93372d88"


def test_pin_guess_stream_over_boosted_conditionals(corpus):
    model, test_words = corpus
    grams = ngram_set("abcdef", model.n) | ngram_set("hgfe", model.n)
    view = boost_conditionals(model, grams, 4.5)  # round(ln 4.5) = 2
    oracle = TestSetOracle(test_words)
    got = digest(guess_stream(view, 8000, oracle, LENGTHS))
    assert got == "3c5376b64c3717136975597900b1fec614c7a1f99308ff126aba937b4da7e451"
