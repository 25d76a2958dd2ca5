import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import omen.corpus
from omen import (
    Alphabet,
    Corpus,
    EmptyCorpusError,
    HintParseError,
    HintRecord,
    OmenError,
    PasswordFile,
    load_hints,
    load_passwords,
    save_hints,
    split,
)
from omen.corpus import ATTRIBUTE_NAMES


def test_default_alphabet_size_and_membership():
    a = Alphabet.default()
    assert a.size == 72
    for ch in "az09AZ!@#$%^&*.-":
        assert ch in a.chars
    assert " " not in a.chars and "\t" not in a.chars


def test_alphabet_rejects_duplicates_and_short():
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("x")
    with pytest.raises(ValueError):
        Alphabet("ab\n")


def test_alphabet_index_and_accepts():
    a = Alphabet("abc")
    assert [a.index(c) for c in "cab"] == [2, 0, 1]
    with pytest.raises(KeyError):
        a.index("z")
    assert a.accepts("abccba")
    assert not a.accepts("abd")


_ALPHABETS = [Alphabet.default(), Alphabet("ab"), Alphabet("xé\U0001d11e")]


@st.composite
def alphabet_and_text(draw):
    alphabet = draw(st.sampled_from(_ALPHABETS))
    # mostly alphabet characters, with foreign ones (BMP and beyond) mixed in
    chars = st.one_of(st.sampled_from(alphabet.chars), st.sampled_from("zé \x00\U0001f600"),
                      st.characters())
    return alphabet, draw(st.text(chars, max_size=12))


@given(alphabet_and_text())
@example((_ALPHABETS[0], ""))
@settings(max_examples=300, deadline=None)
def test_accepts_means_every_character_is_in_the_alphabet(case):
    alphabet, text = case
    assert alphabet.accepts(text) == all(ch in alphabet for ch in text)


@given(alphabet_and_text())
@settings(max_examples=300, deadline=None)
def test_encode_agrees_with_index_and_accepts(case):
    alphabet, text = case
    if alphabet.accepts(text):
        assert alphabet.encode(text).tolist() == [alphabet.index(ch) for ch in text]
    else:
        with pytest.raises(ValueError, match="not in alphabet"):
            alphabet.encode(text)


def test_encode_round_trips_through_decode_batch():
    a = Alphabet.default()
    words = ["Passw0rd!", "zzzzzzzzz", "aA0!@#$%-"]
    codes = np.stack([a.encode(w) for w in words])
    assert codes.dtype == np.int64
    assert a.decode_batch(codes) == words
    assert a.encode("").shape == (0,)


@pytest.mark.parametrize("foreign", ["[", "~", "\U0001f600", "\ud800"])
def test_encode_names_a_foreign_character(foreign):
    # "[" lies between the default alphabet's code points, "~" above all of them;
    # a lone surrogate has no UTF-32 encoding of its own
    with pytest.raises(ValueError, match=re.escape(repr(foreign)) + " not in alphabet"):
        Alphabet.default().encode("ab" + foreign + "c")


def test_alphabet_file_round_trip(tmp_path):
    a = Alphabet("xyz123")
    p = tmp_path / "alpha.txt"
    a.to_file(p)
    assert Alphabet.from_file(p).chars == a.chars


def test_load_passwords_filters_and_counts(tmp_path):
    p = tmp_path / "pwds.txt"
    p.write_text("abc\nab\npassword\nbad char\n" + "x" * 21 + "\nzzz\n")
    corpus = load_passwords(p)
    assert corpus.passwords == ["abc", "password", "zzz"]
    assert corpus.rejected_count == 3


def test_load_passwords_length_bounds(tmp_path):
    p = tmp_path / "pwds.txt"
    p.write_text("abcd\nabcde\nabcdef\n")
    corpus = load_passwords(p, min_len=5, max_len=5)
    assert corpus.passwords == ["abcde"]
    assert corpus.rejected_count == 2


def test_load_passwords_empty_raises(tmp_path):
    p = tmp_path / "pwds.txt"
    p.write_text("!!\n@@\n")
    with pytest.raises(EmptyCorpusError):
        load_passwords(p, alphabet=Alphabet("abc"))


def _filter_per_line(path, alphabet, min_len, max_len):
    """The filter as a plain loop over the file's lines: (kept, rejected)."""
    kept, rejected = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            pwd = line.rstrip("\r\n")
            if min_len <= len(pwd) <= max_len and alphabet.accepts(pwd):
                kept.append(pwd)
            else:
                rejected += 1
    return kept, rejected


_LINE_CHARS = st.one_of(
    st.sampled_from("ab\U0001d11e"),  # the alphabet, one character beyond the BMP
    # foreign; str.splitlines would end a line at \x85, \u2028 and \x0c, a file does not
    st.sampled_from("z\U0001f600\x85\u2028\x0c\t "),
    # a lone surrogate has no UTF-8 encoding, so no file can hold one
    st.characters(exclude_characters="\r\n", exclude_categories=("Cs",)),
)


@given(
    lines=st.lists(st.text(_LINE_CHARS, max_size=12), max_size=20),
    breaks=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=20, max_size=20),
    final_break=st.booleans(),
    block=st.integers(1, 7),
    bounds=st.sampled_from([(1, 3), (3, 20), (2, 9)]),
)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_password_file_keeps_what_a_per_line_filter_keeps(
        tmp_path, monkeypatch, lines, breaks, final_break, block, bounds):
    # blocks of a few characters split lines, and CRLF pairs, across reads
    alphabet = Alphabet("ab\U0001d11e")
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if lines and not final_break:
        text = text[: -len(breaks[len(lines) - 1])]
    path = tmp_path / "pwds.txt"
    path.write_bytes(text.encode("utf-8"))
    kept, rejected = _filter_per_line(path, alphabet, *bounds)
    with monkeypatch.context() as patch:
        patch.setattr(omen.corpus, "_BLOCK", block)
        passwords = PasswordFile(path, alphabet, *bounds)
        if kept:
            assert list(passwords) == kept
            assert (passwords.kept, passwords.rejected_count) == (len(kept), rejected)
        else:
            with pytest.raises(EmptyCorpusError, match=f"rejected {rejected}\\)"):
                list(passwords)


def test_password_file_streams_every_pass_again(tmp_path):
    p = tmp_path / "pwds.txt"
    p.write_text("abc\nab\npassword\n")
    passwords = PasswordFile(p)
    assert list(passwords) == list(passwords) == ["abc", "password"]
    assert (passwords.kept, passwords.rejected_count) == (2, 1)
    p.write_text("zzz\n")
    assert list(passwords) == ["zzz"]
    assert (passwords.kept, passwords.rejected_count) == (1, 0)


def test_a_long_line_is_held_only_up_to_max_len(tmp_path, monkeypatch):
    monkeypatch.setattr(omen.corpus, "_BLOCK", 4)
    p = tmp_path / "pwds.txt"
    p.write_text("abcd\n" + "x" * 10_000 + "\nabcde")
    passwords = PasswordFile(p, min_len=4, max_len=5)
    assert list(passwords) == ["abcd", "abcde"]
    assert passwords.rejected_count == 1


@pytest.mark.parametrize("read", [load_passwords, load_hints, Alphabet.from_file,
                                  lambda path: list(PasswordFile(path))])
def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_file(tmp_path, read):
    p = tmp_path / "data.txt"
    p.write_bytes(b"abc\n\xffabc\n")
    with pytest.raises(OmenError, match=re.escape(f"{p}: not UTF-8")):
        read(p)


def test_split_is_a_partition():
    corpus = Corpus([f"pw{i:03d}" for i in range(100)])
    a, b = split(corpus, 0.8, seed=7)
    assert len(a.passwords) == 80 and len(b.passwords) == 20
    assert sorted(a.passwords + b.passwords) == sorted(corpus.passwords)
    assert not set(a.passwords) & set(b.passwords)


def test_split_deterministic_and_seed_sensitive():
    corpus = Corpus([f"pw{i:03d}" for i in range(50)])
    a1, _ = split(corpus, 0.5, seed=3)
    a2, _ = split(corpus, 0.5, seed=3)
    a3, _ = split(corpus, 0.5, seed=4)
    assert a1.passwords == a2.passwords
    assert a1.passwords != a3.passwords


def test_split_keeps_corpus_order_within_halves():
    corpus = Corpus([f"pw{i:03d}" for i in range(40)])
    a, b = split(corpus, 0.5, seed=1)
    assert a.passwords == sorted(a.passwords)
    assert b.passwords == sorted(b.passwords)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_split_partition_property(seed, frac, n):
    corpus = Corpus([f"pw{i:04d}" for i in range(n)])
    a, b = split(corpus, frac, seed=seed)
    assert len(a.passwords) == round(frac * n)
    assert sorted(a.passwords + b.passwords) == corpus.passwords


def test_hints_round_trip(tmp_path):
    records = [
        HintRecord("secret1", {"firstName": ["Ann"], "location": ["Oslo", "Bergen"]}),
        HintRecord("secret2", {"email": ["a@b.c"]}),
    ]
    p = tmp_path / "hints.jsonl"
    save_hints(records, p)
    assert load_hints(p) == records


def test_load_hints_line_numbers_on_error(tmp_path):
    p = tmp_path / "hints.jsonl"
    p.write_text('{"password": "x", "attributes": {}}\nnot json\n')
    with pytest.raises(HintParseError) as err:
        load_hints(p)
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"attributes": {}},
        {"password": "x"},
        {"password": "x", "attributes": {"petName": ["rex"]}},
        {"password": "x", "attributes": {"location": "Oslo"}},
        {"password": 5, "attributes": {}},
        {"password": "x", "attributes": {"location": [3]}},
    ],
)
def test_load_hints_rejects_bad_records(tmp_path, payload):
    p = tmp_path / "hints.jsonl"
    p.write_text(json.dumps(payload) + "\n")
    with pytest.raises(HintParseError):
        load_hints(p)


def test_attribute_vocabulary():
    assert set(ATTRIBUTE_NAMES) == {
        "email", "userName", "firstName", "lastName", "birthday",
        "location", "contact", "eduWork", "friends", "siblings",
    }
