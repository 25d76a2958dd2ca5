import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import omen.corpus
import omen.model
import synth
from omen import (
    Alphabet,
    Corpus,
    EmptyCorpusError,
    ModelFormatError,
    PasswordFile,
    ScoringError,
    TrainingError,
    load_model,
    password_level,
    password_probability,
    save_model,
    train,
)
from omen.model import calibrate, discretize


# --- calibration and discretization ---------------------------------------


def test_calibrate_reference_values():
    c1, c2 = calibrate(1.0, 10)
    assert c2 == pytest.approx(math.exp(-9))
    assert c1 == pytest.approx(1.0 - math.exp(-9))
    c1, c2 = calibrate(0.05, 10)
    assert c1 == pytest.approx((1.0 - math.exp(-9)) / 0.05)


def test_calibrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        calibrate(0.0, 10)
    with pytest.raises(ValueError):
        calibrate(1.5, 10)
    with pytest.raises(ValueError):
        calibrate(0.5, 1)


def test_discretize_endpoints():
    for L in (2, 3, 10, 128):
        c1, c2 = calibrate(1.0, L)
        assert discretize(1.0, c1, c2) == 0
        assert discretize(0.0, c1, c2) == -(L - 1)


def test_discretize_most_probable_gram_is_level_zero():
    for p_max in (1.0, 0.4, 0.01, 1e-6):
        c1, c2 = calibrate(p_max, 10)
        assert discretize(p_max, c1, c2) == 0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 128))
@settings(max_examples=150, deadline=None)
def test_discretize_is_monotone(p1, p2, L):
    lo, hi = sorted((p1, p2))
    c1, c2 = calibrate(1.0, L)
    a, b = discretize(lo, c1, c2), discretize(hi, c1, c2)
    assert a <= b
    assert -(L - 1) <= a and b <= 0


# --- training against hand-computed counts ---------------------------------


def test_train_smoothed_probabilities_by_hand():
    model = train(Corpus(["aab", "abb"]), alphabet=Alphabet("ab"), n=3, L=10, delta=0.01)
    a, b = 0, 1
    aa, ab, ba, bb = 0, 1, 2, 3
    # conditionals: one observation each for aa->b and ab->b
    assert model.cond_prob[aa, b] == pytest.approx(1.01 / 1.02)
    assert model.cond_prob[aa, a] == pytest.approx(0.01 / 1.02)
    assert model.cond_prob[ab, b] == pytest.approx(1.01 / 1.02)
    for ctx in (ba, bb):  # unseen contexts flatten to uniform
        assert model.cond_prob[ctx, a] == pytest.approx(0.5)
    # initial grams: aa and ab once each, smoothed over 4 cells
    assert model.init_prob[aa] == pytest.approx(1.01 / 2.04)
    assert model.init_prob[ba] == pytest.approx(0.01 / 2.04)
    assert model.init_prob[aa] + model.init_prob[ab] + \
        model.init_prob[ba] + model.init_prob[bb] == pytest.approx(1.0)


def test_train_accepts_entries_of_exactly_context_length():
    # "ab" carries an initial gram but no transition; delta=1 flattens rows
    model = train(Corpus(["ab"]), alphabet=Alphabet("ab"), n=3, L=10, delta=1.0)
    assert model.init_prob[1] == pytest.approx(2 / 5)
    assert model.init_prob[0] == pytest.approx(1 / 5)
    cond = model.cond_prob
    assert np.allclose(cond, 0.5)


def test_train_rejects_hopeless_corpora():
    with pytest.raises(TrainingError):
        train(Corpus([]), alphabet=Alphabet("ab"))
    with pytest.raises(TrainingError):
        train(Corpus(["a", "b"]), alphabet=Alphabet("ab"), n=3)


def _model_bytes(tmp_path, corpus, **kwargs) -> bytes:
    path = tmp_path / "model.omen"
    save_model(train(corpus, **kwargs), path)
    return path.read_bytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chunk_boundaries_do_not_change_the_model(tmp_path, monkeypatch, n):
    alphabet = synth.make_alphabet(6)
    words = synth.markov_words(7 + n, alphabet, 120, min_len=1, max_len=9)
    short = [w[: n - 2] for w in words[:20]]  # n-2 characters: no initial gram
    # 13 short entries in a row fill at least one whole chunk of 1, 3 or 7
    corpus = Corpus(words[:40] + short[:13] + words[40:] + short[13:] + [words[0][: n - 1]])
    kwargs = dict(alphabet=alphabet, n=n, L=10, delta=0.01)
    monkeypatch.setattr(omen.model, "_CHUNK", len(corpus))
    whole = _model_bytes(tmp_path, corpus, **kwargs)
    for chunk in (1, 3, 7):
        monkeypatch.setattr(omen.model, "_CHUNK", chunk)
        assert _model_bytes(tmp_path, corpus, **kwargs) == whole, chunk
        with pytest.raises(TrainingError, match="empty"):
            train(Corpus([]), **kwargs)
        with pytest.raises(TrainingError, match="initial gram"):
            train(Corpus(short), **kwargs)


def _train_peak_bytes(corpus, alphabet) -> int:
    """Peak traced allocation while training, above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        train(corpus, alphabet=alphabet)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_training_memory_does_not_grow_with_the_corpus():
    alphabet = Alphabet.default()
    words = synth.markov_words(17, alphabet, 80_000)
    small = _train_peak_bytes(Corpus(words[:20_000]), alphabet)
    large = _train_peak_bytes(Corpus(words), alphabet)
    assert large <= small + 512 * 1024, (small, large)


def test_training_holds_about_one_conditional_table():
    # the int64 counts become the probabilities in place, and the levels are
    # an int8 table filled a block at a time: one float table plus an eighth,
    # and a chunk's temporaries
    alphabet = Alphabet.default()
    table = alphabet.size ** 3 * np.dtype(np.float64).itemsize
    peak = _train_peak_bytes(Corpus(synth.markov_words(3, alphabet, 2000)), alphabet)
    assert peak < 1.5 * table, peak / table


def test_training_from_a_file_holds_about_one_conditional_table(tmp_path):
    # the bound above, on the route omen train takes: the file's blocks are
    # encoded and counted one at a time, so their temporaries must fit where
    # a list's chunk does. The file spans about twenty blocks.
    alphabet = Alphabet.default()
    table = alphabet.size ** 3 * np.dtype(np.float64).itemsize
    path = tmp_path / "pwds.txt"
    path.write_text("\n".join(synth.markov_words(17, alphabet, 80_000)) + "\n")
    peak = _train_peak_bytes(PasswordFile(path, alphabet), alphabet)
    assert peak < 1.5 * table, peak / table


def test_train_rejects_bad_parameters():
    corpus = Corpus(["abc"])
    with pytest.raises(ValueError):
        train(corpus, n=1)
    with pytest.raises(ValueError):
        train(corpus, L=1)
    with pytest.raises(ValueError):
        train(corpus, delta=0.0)
    with pytest.raises(ValueError):
        train(corpus, alphabet=Alphabet("ab"))  # 'c' outside alphabet
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            train(corpus, delta=delta)


_FILE_ALPHABET = Alphabet("ab\U0001d11e")  # one character beyond the BMP
_FILE_LINE = st.text(
    # foreign characters, one of them beyond the BMP too; no line break
    st.one_of(st.sampled_from(_FILE_ALPHABET.chars), st.sampled_from("z\U0001f600\t")),
    max_size=12)


def _trained(tmp_path, corpus, name, **kwargs):
    """The saved model's bytes, or the error training raised."""
    try:
        model = train(corpus, alphabet=_FILE_ALPHABET, **kwargs)
    except (EmptyCorpusError, TrainingError) as exc:
        return type(exc), str(exc)
    path = tmp_path / name
    save_model(model, path)
    return path.read_bytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@given(
    lines=st.lists(_FILE_LINE, max_size=20),
    breaks=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=20, max_size=20),
    final_break=st.booleans(),
    block=st.sampled_from([*range(1, 8), omen.corpus._BLOCK]),
    bounds=st.sampled_from([(1, 3), (1, 20), (2, 9)]),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_password_file_trains_as_its_list_of_lines(
        tmp_path, monkeypatch, n, lines, breaks, final_break, block, bounds):
    # the file route counts the blocks' ranks; the list route encodes the
    # strings that iterating the same file yields
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if lines and not final_break:
        text = text[: -len(breaks[len(lines) - 1])]
    path = tmp_path / "pwds.txt"
    path.write_bytes(text.encode("utf-8"))
    with monkeypatch.context() as patch:
        patch.setattr(omen.corpus, "_BLOCK", block)
        encoded = PasswordFile(path, _FILE_ALPHABET, *bounds)
        from_file = _trained(tmp_path, encoded, "file.omen", n=n)
        listed = PasswordFile(path, _FILE_ALPHABET, *bounds)
        try:
            corpus = list(listed)
        except EmptyCorpusError as exc:
            from_list = EmptyCorpusError, str(exc)
        else:
            from_list = _trained(tmp_path, corpus, "list.omen", n=n)
    assert from_file == from_list
    assert (encoded.kept, encoded.rejected_count) == (listed.kept, listed.rejected_count)


def test_train_rejects_a_foreign_character_past_the_first_chunk():
    # a generator, so the corpus is read once, chunk by chunk
    chunk = omen.model._CHUNK
    words = (("abba" if i < chunk else "ab!a") for i in range(chunk + 1))
    with pytest.raises(ValueError, match="'!' not in alphabet"):
        train(words, alphabet=Alphabet("ab"))


@pytest.mark.parametrize("n,L,delta", [(2, 5, 0.1), (3, 10, 0.01), (4, 8, 1.0)])
def test_model_invariants_after_training(n, L, delta):
    alphabet = synth.make_alphabet(8)
    words = synth.markov_words(99, alphabet, 400, min_len=4, max_len=8)
    model = train(Corpus(words), alphabet=alphabet, n=n, L=L, delta=delta)
    assert model.cond_prob.shape == (8 ** (n - 1), 8)
    assert np.allclose(model.cond_prob.sum(axis=1), 1.0, atol=1e-9)
    assert model.init_prob.sum() == pytest.approx(1.0, abs=1e-9)
    for levels in (model.init_level, model.cond_level):
        assert levels.min() >= -(L - 1) and levels.max() <= 0
    assert (model.init_level == 0).any()
    assert (model.cond_level == 0).any()


def test_levels_track_probabilities_spearman():
    from scipy.stats import spearmanr

    alphabet = synth.make_alphabet(12)
    train_set, test_set = synth.zipf_corpus(5, alphabet, 3000, 20000, 500)
    model = train(Corpus(train_set), alphabet=alphabet)
    probs = [password_probability(model, w) for w in test_set]
    levels = [password_level(model, w) for w in test_set]
    rho = spearmanr(probs, levels).statistic
    assert rho >= 0.9


# --- scoring ----------------------------------------------------------------


def test_password_probability_chain_by_hand():
    model = train(Corpus(["aab", "abb"]), alphabet=Alphabet("ab"), n=3, delta=0.01)
    expected = (1.01 / 2.04) * (1.01 / 1.02)
    assert password_probability(model, "aab") == pytest.approx(expected)
    expected_level = int(model.init_level[0]) + int(model.cond_level[0, 1])
    assert password_level(model, "aab") == expected_level


def test_password_level_uses_rolling_context():
    model = synth.random_model(3, sigma=3, n=3, L=10)
    pwd = "abcba"
    ranks = [model.alphabet.index(c) for c in pwd]
    lvl = int(model.init_level[ranks[0] * 3 + ranks[1]])
    ctx = ranks[0] * 3 + ranks[1]
    for z in ranks[2:]:
        lvl += int(model.cond_level[ctx, z])
        ctx = (ctx * 3 + z) % 9
    assert password_level(model, pwd) == lvl


def test_scoring_rejects_bad_passwords():
    model = train(Corpus(["aab", "abb"]), alphabet=Alphabet("ab"), n=3)
    with pytest.raises(ScoringError):
        password_probability(model, "a")
    with pytest.raises(ScoringError):
        password_level(model, "abz")


# --- persistence ------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    alphabet = synth.make_alphabet(6)
    words = synth.markov_words(21, alphabet, 300)
    model = train(Corpus(words), alphabet=alphabet, n=3, L=10, delta=0.01)
    path = tmp_path / "model.omen"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.n == model.n and loaded.L == model.L
    assert loaded.alphabet.chars == model.alphabet.chars
    assert np.array_equal(loaded.init_prob, model.init_prob)
    assert np.array_equal(loaded.cond_prob, model.cond_prob)
    assert np.array_equal(loaded.init_level, model.init_level)
    assert np.array_equal(loaded.cond_level, model.cond_level)


def test_save_is_deterministic(tmp_path):
    model = train(Corpus(["aab", "abb", "bba"]), alphabet=Alphabet("ab"), n=3)
    p1, p2 = tmp_path / "m1", tmp_path / "m2"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_writes_the_tables_without_copies(tmp_path):
    alphabet = synth.make_alphabet(30)
    model = train(Corpus(synth.markov_words(9, alphabet, 500)), alphabet=alphabet, n=3)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "model")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * model.cond_prob.nbytes, peak / model.cond_prob.nbytes
    assert load_model(tmp_path / "model").cond_prob.tobytes() == model.cond_prob.tobytes()


def test_load_rejects_corrupt_files(tmp_path):
    model = train(Corpus(["aab", "abb", "bba"]), alphabet=Alphabet("ab"), n=3)
    good = tmp_path / "good"
    save_model(model, good)
    blob = good.read_bytes()

    bad_magic = tmp_path / "bad_magic"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    truncated = tmp_path / "truncated"
    truncated.write_bytes(blob[:-8])
    version = tmp_path / "version"
    version.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    # n is the u32 at offset 8, L the one at 12
    headers = []
    for name, at, value in (("n1", 8, 1), ("L1", 12, 1), ("L129", 12, 129)):
        headers.append(tmp_path / name)
        headers[-1].write_bytes(blob[:at] + struct.pack("<I", value) + blob[at + 4:])
    for path in (bad_magic, truncated, version, *headers):
        with pytest.raises(ModelFormatError):
            load_model(path)
    with pytest.raises(OSError):
        load_model(tmp_path / "missing" / "nothing")


def test_load_rejects_out_of_range_levels(tmp_path):
    model = train(Corpus(["aab", "abb", "bba"]), alphabet=Alphabet("ab"), n=3)
    good = tmp_path / "good"
    save_model(model, good)
    blob = bytearray(good.read_bytes())
    blob[-1] = 0x7F  # last conditional level -> +127
    bad = tmp_path / "bad_levels"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError):
        load_model(bad)


def _rewritten(tmp_path, chars: str, table: str, index: int, value: float):
    """A saved n=3 model over chars with one probability replaced by value."""
    sigma = len(chars)
    model = train(Corpus(["aab", "abb", "bba"]), alphabet=Alphabet(chars), n=3)
    path = tmp_path / "model"
    save_model(model, path)
    blob = path.read_bytes()
    # header, alphabet, then init_prob f64[sigma**2] and cond_prob f64[sigma**2, sigma]
    at = 20 + sigma + (8 * sigma**2 if table == "cond" else 0) + 8 * index
    path.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
    return path


@pytest.mark.parametrize("table,index,value", [
    ("cond", 0, math.nan), ("cond", 1, -5.0), ("init", 0, 1.5),
])
def test_load_rejects_probabilities_outside_the_unit_interval(tmp_path, table, index, value):
    with pytest.raises(ModelFormatError, match=r"outside \[0, 1\]"):
        load_model(_rewritten(tmp_path, "ab", table, index, value))


@pytest.mark.parametrize("table", ["cond", "init"])
def test_load_rejects_tables_that_do_not_sum_to_1(tmp_path, table):
    # 0.9 is a probability, but it replaces about 0.01 in cond_prob[0, 0]
    # and about 0.33 in init_prob[0], so the row or table no longer sums to 1
    path = _rewritten(tmp_path, "abc", table, 0, 0.9)
    with pytest.raises(ModelFormatError, match="do not sum to 1"):
        load_model(path)


@pytest.mark.parametrize("table", ["init", "cond"])
def test_load_rejects_levels_that_disagree_with_the_probabilities(tmp_path, table):
    model = train(Corpus(["aab", "abb", "bba"]), alphabet=Alphabet("abc"), n=3)
    path = tmp_path / "model"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    levels = (model.init_level if table == "init" else model.cond_level).reshape(-1)
    index = int(np.argmin(levels))
    # one level up stays in [-(L-1), 0] and leaves the table's level-0 gram
    assert levels[index] < 0
    C = 3**2
    # header, alphabet, init_prob f64[C], cond_prob f64[C*3], then the levels
    at = 20 + 3 + 8 * C * 4 + (C if table == "cond" else 0) + index
    blob[at] += 1
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="levels do not match the probabilities"):
        load_model(path)


def test_load_refuses_an_absurd_order_before_sizing_its_tables(tmp_path):
    model = train(Corpus(["aab", "abb", "bba"]), alphabet=Alphabet("abc"), n=3)
    good = tmp_path / "good"
    save_model(model, good)
    blob = good.read_bytes()
    bad = tmp_path / "huge_n"
    bad.write_bytes(blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:])
    with pytest.raises(ModelFormatError, match="200000000 cells"):
        load_model(bad)
