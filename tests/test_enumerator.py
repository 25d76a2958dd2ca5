import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from omen import Alphabet, NgramModel, boost_conditionals, password_level, train
from omen import enumerator
from omen.enumerator import count_guesses, enum_level_vectors, enum_pwd
from omen.similarity import ngram_set


def level_model(chars: str, L: int, init_level, cond_level) -> NgramModel:
    """Order-3 model with hand-assigned levels and probabilities that follow them."""
    init_level = np.array(init_level, dtype=np.int8)
    cond_level = np.array(cond_level, dtype=np.int8)
    init_prob = np.exp(init_level.astype(np.float64))
    init_prob /= init_prob.sum()
    cond_prob = np.exp(cond_level.astype(np.float64))
    cond_prob /= cond_prob.sum(axis=1, keepdims=True)
    return NgramModel(Alphabet(chars), 3, L, init_prob, cond_prob, init_level, cond_level)


def toy_model() -> NgramModel:
    """Two-letter order-3 model with hand-assigned levels.

    Level sums over length 3: bba=0; aaa,aab,aba=-1; bbb,baa,bab=-2; abb=-3.
    """
    return level_model("ab", 10, [0, -1, -1, 0],  # aa ab ba bb
                       [[-1, -1], [0, -2], [-1, -1], [0, -2]])  # rows aa ab ba bb


def brute_level_map(model, ell: int) -> dict[int, list[str]]:
    """Exhaustive level table built straight from the model arrays."""
    sigma = model.alphabet.size
    n1 = model.n - 1
    C = sigma**n1
    out: dict[int, list[str]] = {}
    for tup in itertools.product(range(sigma), repeat=ell):
        ctx = 0
        for r in tup[:n1]:
            ctx = ctx * sigma + r
        lvl = int(model.init_level[ctx])
        for z in tup[n1:]:
            lvl += int(model.cond_level[ctx, z])
            ctx = (ctx * sigma + z) % C
        word = "".join(model.alphabet.chars[r] for r in tup)
        out.setdefault(lvl, []).append(word)
    return out


# --- level vectors ----------------------------------------------------------


def test_vectors_zero_budget():
    assert list(enum_level_vectors(0, 3, -9)) == [(0, 0, 0)]


def test_vectors_reference_order():
    assert list(enum_level_vectors(-1, 2, -9)) == [(0, -1), (-1, 0)]
    assert list(enum_level_vectors(-2, 2, -9)) == [(0, -2), (-1, -1), (-2, 0)]


def test_vectors_min_level_truncates():
    assert list(enum_level_vectors(-2, 2, -1)) == [(-1, -1)]
    assert list(enum_level_vectors(-3, 2, -1)) == []


def test_vectors_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enum_level_vectors(-1, 0, -9))
    with pytest.raises(ValueError):
        list(enum_level_vectors(-1, 2, 1))


@given(st.integers(1, 4), st.integers(-6, 0), st.integers(0, 18))
@settings(max_examples=120, deadline=None)
def test_vectors_match_brute_force(k, min_level, depth):
    eta = -depth
    got = list(enum_level_vectors(eta, k, min_level))
    want = [
        v
        for v in itertools.product(range(min_level, 1), repeat=k)
        if sum(v) == eta
    ]
    want.sort(reverse=True)
    assert got == want
    assert len(set(got)) == len(got)


# --- toy enumeration --------------------------------------------------------


def test_toy_enumeration_exact_outputs():
    model = toy_model()
    assert list(enum_pwd(model, 0, 3)) == ["bba"]
    assert list(enum_pwd(model, -1, 3)) == ["aaa", "aab", "aba"]
    assert list(enum_pwd(model, -2, 3)) == ["bbb", "baa", "bab"]
    assert list(enum_pwd(model, -3, 3)) == ["abb"]
    for eta in range(-4, -19, -1):
        assert list(enum_pwd(model, eta, 3)) == []


def test_toy_levels_score_back():
    model = toy_model()
    assert password_level(model, "bba") == 0
    assert password_level(model, "aab") == -1
    assert password_level(model, "bab") == -2
    assert password_level(model, "abb") == -3


def test_toy_counts():
    model = toy_model()
    assert [count_guesses(model, eta, 3) for eta in (0, -1, -2, -3)] == [1, 3, 3, 1]
    total = sum(count_guesses(model, eta, 3) for eta in range(0, -19, -1))
    assert total == 2**3


# --- random-model equivalence with the exhaustive oracle --------------------


@pytest.mark.parametrize("seed,sigma,L,ell", [
    (1, 2, 3, 4), (2, 3, 5, 4), (3, 4, 10, 5), (4, 2, 10, 6), (5, 3, 3, 5),
])
def test_enumeration_matches_brute_force(seed, sigma, L, ell):
    model = synth.random_model(seed, sigma=sigma, L=L)
    oracle = brute_level_map(model, ell)
    k = ell - (model.n - 2)
    floor = -(L - 1) * k
    seen: list[str] = []
    for eta in range(0, floor - 1, -1):
        got = list(enum_pwd(model, eta, ell))
        assert sorted(got) == sorted(oracle.get(eta, []))
        assert len(set(got)) == len(got)
        assert count_guesses(model, eta, ell) == len(got)
        seen.extend(got)
    # all eta together enumerate the whole space exactly once
    assert len(seen) == sigma**ell
    assert len(set(seen)) == sigma**ell


def test_enumeration_order_follows_vectors():
    # within one eta, words arrive grouped by descending level vector
    model = synth.random_model(8, sigma=3, L=5)
    ell, eta = 4, -3
    words = list(enum_pwd(model, eta, ell))
    vectors = []
    for w in words:
        ranks = [model.alphabet.index(c) for c in w]
        ctx = ranks[0] * 3 + ranks[1]
        vec = [int(model.init_level[ctx])]
        for z in ranks[2:]:
            vec.append(int(model.cond_level[ctx, z]))
            ctx = (ctx * 3 + z) % 9
        vectors.append(tuple(vec))
    assert vectors == sorted(vectors, reverse=True)


def test_enumeration_deterministic():
    model = synth.random_model(11, sigma=3, L=5)
    a = list(enum_pwd(model, -4, 5))
    b = list(enum_pwd(model, -4, 5))
    assert a == b and len(a) > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("batch", [1, 3])
def test_small_batches_change_nothing(monkeypatch, batch, n):
    model = synth.random_model(12, sigma=4, n=n, L=5)
    for eta in (0, -2, -5):
        full = list(enum_pwd(model, eta, 5))
        with monkeypatch.context() as patch:
            patch.setattr(enumerator, "_BATCH", batch)
            tiny = list(enum_pwd(model, eta, 5))
        assert full == tiny


def test_enum_pwd_rejects_bad_arguments():
    model = toy_model()
    with pytest.raises(ValueError):
        enum_pwd(model, 1, 3)
    with pytest.raises(ValueError):
        enum_pwd(model, 0, 2)
    with pytest.raises(ValueError):
        enum_pwd(model, -19, 3)  # below -(L-1)*k = -18
    with pytest.raises(ValueError):
        count_guesses(model, 1, 3)
    with pytest.raises(ValueError):
        count_guesses(model, 0, 2)


def test_longer_passwords_roll_the_context():
    model = toy_model()
    # ababb crosses contexts ab->ba->ab and ends on the b|ab = -2 step:
    # -1 (init ab) + 0 (a|ab) - 1 (b|ba) - 2 (b|ab) = -4
    assert password_level(model, "ababb") == -4
    assert "ababb" not in list(enum_pwd(model, -1, 5))
    assert "ababb" in list(enum_pwd(model, -4, 5))


def test_count_guesses_partitions_large_space():
    model = synth.random_model(17, sigma=4, L=10)
    ell = 8
    k = ell - 1
    total = sum(count_guesses(model, eta, ell) for eta in range(0, -(9 * k) - 1, -1))
    assert total == 4**ell


def test_count_guesses_exact_past_float_precision():
    # 3**40 is above 2**63, and single cells hold more than 2**53 strings
    model = synth.random_model(21, sigma=3, L=4)
    ell = 40
    counts = [count_guesses(model, eta, ell) for eta in range(0, -3 * (ell - 1) - 1, -1)]
    assert max(counts) > 2**53
    assert sum(counts) == 3**ell


def test_count_guesses_switches_to_python_ints():
    # n=2 over two letters: after 62 transitions an int64 entry could overflow
    model = synth.random_model(22, sigma=2, n=2, L=3)
    ell = 70
    counts = [count_guesses(model, eta, ell) for eta in range(0, -2 * ell - 1, -1)]
    assert max(counts) > 2**63
    assert sum(counts) == 2**ell


def test_count_guesses_exact_in_the_sum_over_initial_grams():
    # n=6 over two letters: every class entry of the last layer fits in
    # int64, but one cell's sum over the 32 initial grams passes 2**63
    model = synth.random_model(23, sigma=2, n=6, L=2)
    ell = 67
    counts = [count_guesses(model, eta, ell) for eta in range(0, -(ell - 4) - 1, -1)]
    assert max(counts) > 2**63
    assert sum(counts) == 2**ell


def test_an_empty_cell_stops_before_its_first_vector(monkeypatch):
    # no string of length 16 sums to -4, though 3060 level vectors do: the
    # cell ends at the root instead of forming them
    model = synth.random_model(40, sigma=4, L=6)
    ell, eta = 16, -4
    assert sum(1 for _ in enum_level_vectors(eta, ell - 1, -5)) == 3060
    formed = []
    vectors = enumerator.enum_level_vectors

    def counting(*args):
        for vec in vectors(*args):
            formed.append(vec)
            yield vec

    monkeypatch.setattr(enumerator, "enum_level_vectors", counting)
    assert count_guesses(model, eta, ell) == 0
    assert list(enum_pwd(model, eta, ell)) == []
    assert formed == []
    # the next cell holds strings, and its odometer still runs
    assert count_guesses(model, eta - 1, ell) == 27
    assert len(list(enum_pwd(model, eta - 1, ell))) == 27
    assert formed


def test_a_run_of_vectors_is_one_walk_pass(monkeypatch):
    # the vectors that share their first k - 2 levels run as one pass: with
    # a batch that splits no frontier, the walk starts at most once per
    # distinct (k - 2)-prefix of the odometer, not once per vector
    model = synth.random_model(43, sigma=4, L=5)
    ell = 6
    k = ell - 1
    monkeypatch.setattr(enumerator, "_BATCH", 4**ell)
    starts = []
    start = enumerator._Walk.start

    def counting(self, vec):
        starts.append(vec)
        start(self, vec)

    monkeypatch.setattr(enumerator._Walk, "start", counting)
    started = formed = 0
    for eta in range(0, -4 * k - 1, -1):
        starts.clear()
        assert sum(1 for _ in enum_pwd(model, eta, ell)) == count_guesses(model, eta, ell)
        cell = list(enum_level_vectors(eta, k, -4))
        assert len(starts) <= len({vec[:k - 2] for vec in cell}), eta
        started += len(starts)
        formed += len(cell)
    assert started < formed


def test_a_cell_that_fits_one_batch_is_one_walk_pass(monkeypatch):
    # 28 strings of length 13 over 11,440 level vectors: the strings below
    # the root fit one batch, so one pass grouped at the root emits the cell
    model = synth.random_model(46, sigma=2, L=4)
    ell, eta = 13, -6
    k = ell - 1
    assert sum(1 for _ in enum_level_vectors(eta, k, -3)) == 11440
    starts = []
    start = enumerator._Walk.start

    def counting(self, vec):
        starts.append(vec)
        start(self, vec)

    monkeypatch.setattr(enumerator._Walk, "start", counting)
    want = [word for _, word in brute_cell(model, eta, ell)]
    assert len(want) == 28
    assert list(enum_pwd(model, eta, ell)) == want
    assert len(starts) == 1


# --- full order and bounded batches -----------------------------------------


def brute_cell(model, eta: int, ell: int) -> list[tuple[tuple[int, ...], str]]:
    """(negated level vector, string) for every string of the cell, in the
    engine's order: level vector descending, then character ranks ascending.

    Levels are read from the model's own tables, so a boosted model is honoured.
    """
    sigma = model.alphabet.size
    n1 = model.n - 1
    C = sigma**n1
    keyed = []
    for tup in itertools.product(range(sigma), repeat=ell):
        ctx = 0
        for r in tup[:n1]:
            ctx = ctx * sigma + r
        vec = [int(model.init_level[ctx])]
        for z in tup[n1:]:
            vec.append(int(model.cond_level[ctx, z]))
            ctx = (ctx * sigma + z) % C
        if sum(vec) == eta:
            keyed.append((tuple(-v for v in vec), tup))
    keyed.sort()
    return [(vec, "".join(model.alphabet.chars[r] for r in tup)) for vec, tup in keyed]


@pytest.mark.parametrize("seed,sigma,n,L,ell", [
    (31, 4, 2, 4, 6), (32, 3, 3, 5, 6), (33, 3, 4, 4, 6), (34, 4, 3, 10, 5),
    (37, 3, 4, 10, 3), (39, 2, 5, 10, 4),
    # k = 2: the run of a cell's vectors starts at the root
    (41, 3, 3, 5, 3), (42, 3, 4, 5, 4),
])
def test_full_order_matches_brute_force_sort(seed, sigma, n, L, ell, monkeypatch):
    model = synth.random_model(seed, sigma=sigma, n=n, L=L)
    k = ell - (n - 2)
    # chunks of a pass grouped below the root and above depth k - 2 that
    # hold several groups: at batch 16 some cell of every k >= 4 case has one
    mixed = []
    chunk = enumerator._Walk.chunk

    def recording(self, depth, size):
        made = chunk(self, depth, size)
        if made and 1 <= self.grouped <= depth < self.k - 2:
            group = self.group[depth + 1]
            mixed.append(group[0] != group[-1])
        return made

    monkeypatch.setattr(enumerator._Walk, "chunk", recording)
    empty_vectors = 0
    for eta in range(0, -(L - 1) * k - 1, -1):
        cell = brute_cell(model, eta, ell)
        want = [word for _, word in cell]
        assert list(enum_pwd(model, eta, ell)) == want
        for batch in (2, 16):
            with monkeypatch.context() as patch:
                patch.setattr(enumerator, "_BATCH", batch)
                assert list(enum_pwd(model, eta, ell)) == want
        assert count_guesses(model, eta, ell) == len(want)
        used = {vec for vec, _ in cell}
        empty_vectors += sum(tuple(-v for v in vec) not in used
                             for vec in enum_level_vectors(eta, k, -(L - 1)))
    assert empty_vectors > 0
    assert any(mixed) or k < 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_order_of_a_boosted_view(n):
    model = synth.random_model(35, sigma=4, n=n, L=6)
    ell = 5
    k = ell - (n - 2)
    cells = range(0, -5 * k - 1, -1)
    # enumerate the base first so its cached tables exist: a boosted model
    # that carried them over would enumerate the base's levels
    base = {eta: list(enum_pwd(model, eta, ell)) for eta in cells}
    view = boost_conditionals(model, ngram_set("abca", n) | ngram_set("dd", n), 7.5)
    changed = 0
    for eta in cells:
        want = [word for _, word in brute_cell(view, eta, ell)]
        assert list(enum_pwd(view, eta, ell)) == want
        assert count_guesses(view, eta, ell) == len(want)
        changed += want != base[eta]
    assert changed > 0


def test_batches_stay_within_batch_size(monkeypatch):
    model = synth.random_model(36, sigma=6, L=2)
    ell, eta = 6, -2
    cell = brute_cell(model, eta, ell)
    assert max(Counter(vec for vec, _ in cell).values()) > 100
    words = [word for _, word in cell]

    rows = []
    decode = Alphabet.decode_batch

    def recording(self, codes):
        rows.append(codes.shape[0])
        return decode(self, codes)

    monkeypatch.setattr(Alphabet, "decode_batch", recording)
    assert list(enum_pwd(model, eta, ell)) == words
    rows.clear()
    monkeypatch.setattr(enumerator, "_BATCH", 7)
    assert list(enum_pwd(model, eta, ell)) == words
    assert max(rows) <= 7
    assert sum(rows) == len(words)


# --- context classes ----------------------------------------------------------


def reference_reach(model, transitions: int, width: int) -> list[np.ndarray]:
    """count[r][s, c], the number of ways r transitions from context c add
    up to s, by the plain recurrence, one context and character at a time."""
    sigma = model.alphabet.size
    C = sigma ** (model.n - 1)
    count = [np.zeros((width, C), dtype=np.int64)]
    count[0][0] = 1
    for _ in range(transitions):
        prev = count[-1]
        nxt = np.zeros_like(prev)
        for c in range(C):
            for z in range(sigma):
                a = -int(model.cond_level[c, z])
                if a < width:
                    nxt[a:, c] += prev[:width - a, (c * sigma + z) % C]
        count.append(nxt)
    return count


def assert_classes_exact(model, ell: int) -> None:
    """On a model whose contexts merge into fewer classes: every cell of
    length ell in brute-force order and size, and every count row equal to
    the context-space reference, clipped where the enumerator clips it."""
    assert enumerator._tables(model).size < model.alphabet.size ** (model.n - 1)
    k = ell - (model.n - 2)
    floor = -(model.L - 1) * k
    for eta in range(0, floor - 1, -1):
        want = [word for _, word in brute_cell(model, eta, ell)]
        assert list(enum_pwd(model, eta, ell)) == want
        assert count_guesses(model, eta, ell) == len(want)
    count = enumerator._reach(model, k - 1, 1 - floor)
    of = enumerator._tables(model).of
    want = reference_reach(model, len(count) - 1, count[0].shape[0])
    clip = np.iinfo(count[0].dtype).max
    assert max(int(ref.max()) for ref in want) > 1  # the counts are more than reach
    for got, ref in zip(count, want):
        assert np.array_equal(got[:, of], np.minimum(ref, clip))


def sparse_model(n: int) -> NgramModel:
    """Trained on 40 words over three of its five letters, so that most
    contexts are never seen and their rows sit at one level."""
    words = synth.markov_words(37, Alphabet("abc"), 40)
    return train(words, Alphabet("abcde"), n=n, L=5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classes_of_a_sparse_model_are_exact(n):
    assert_classes_exact(sparse_model(n), 5)


def test_constant_rows_of_one_suffix_at_two_levels():
    model = level_model("abc", 4, [0, -1, -2, -1, 0, -2, -1, -1, 0], [
        [-1, -1, -1],  # aa: constant at -1, suffix a
        [-2, -2, -2],  # ab: constant at -2, suffix b
        [-2, 0, -1],   # ac
        [-2, -2, -2],  # ba: constant at -2, suffix a
        [-2, -2, -2],  # bb: constant at -2, suffix b
        [0, 0, 0],     # bc: constant at 0, suffix c
        [-1, -1, -1],  # ca: constant at -1, suffix a
        [0, -1, -2],   # cb
        [-1, -1, -1],  # cc: constant at -1, suffix c
    ])
    of = enumerator._tables(model).of
    aa, ab, ac, ba, bb, bc, ca, cb, cc = range(9)
    assert of[aa] == of[ca] != of[ba]
    assert of[ab] == of[bb]
    assert len({of[c] for c in (aa, ab, ac, ba, bc, cb, cc)}) == 7
    assert_classes_exact(model, 5)


def test_boost_that_raises_a_constant_row():
    model = sparse_model(3)
    d = model.alphabet.index("d")
    dd = d * model.alphabet.size + d
    assert len(set(model.cond_level[dd])) == 1
    view = boost_conditionals(model, {"dda"}, 7.5)
    assert len(set(view.cond_level[dd])) == 2
    of = enumerator._tables(view).of
    assert (of == of[dd]).sum() == 1
    assert_classes_exact(view, 5)


def test_counting_stays_below_one_context_layer():
    # 300 words leave most of the 8000 contexts of an n=4 model over 20
    # characters unseen. The class map and graph are built once per model,
    # by the first count; a cell's own temporaries are what must not grow
    # with width * C, at any width 1 - eta.
    alphabet = synth.make_alphabet(20)
    model = train(synth.markov_words(5, alphabet, 300), alphabet, n=4)
    count_guesses(model, 0, 8)
    for eta in (-4, -8, -10):
        tracemalloc.start()
        try:
            assert count_guesses(model, eta, 8) > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 - eta) * alphabet.size ** 3 * np.dtype(np.int64).itemsize, eta


def test_walk_stays_below_one_transition_table():
    # The first cell of a fresh model builds the class CSR and the reach
    # tables; none of it may be indexed by all C*sigma transitions.
    alphabet = synth.make_alphabet(20)
    model = train(synth.markov_words(5, alphabet, 300), alphabet, n=4)
    tracemalloc.start()
    try:
        assert sum(1 for _ in enum_pwd(model, -4, 8)) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < alphabet.size ** 4 * np.dtype(np.int64).itemsize
