from collections import Counter, defaultdict
from itertools import islice

import pytest

import synth
from omen import Corpus, guess_stream, train
from omen import scheduler
from omen.enumerator import count_guesses, enum_pwd, lowest_level
from omen.scheduler import Guess


def small_model(seed=42, sigma=4, L=5):
    return synth.random_model(seed, sigma=sigma, L=L)


@pytest.fixture()
def cells(monkeypatch):
    """[length, level, generated] of every cell the scheduler runs, in run
    order, empty cells included."""
    log = []

    def recording_enum_pwd(model, level, length):
        cell = [length, level, 0]
        log.append(cell)
        for text in enum_pwd(model, level, length):
            cell[2] += 1
            yield text

    monkeypatch.setattr(scheduler, "enum_pwd", recording_enum_pwd)
    return log


def test_level_zero_runs_first_for_every_length(cells):
    model = small_model()
    list(guess_stream(model, 10**6, lengths=(5, 3, 4)))
    assert [(ell, lvl) for ell, lvl, _ in cells[:3]] == [(3, 0), (4, 0), (5, 0)]
    expected = sum(count_guesses(model, 0, ell) for ell in (3, 4, 5))
    assert sum(size for *_, size in cells[:3]) == expected


def test_schedule_orders_by_sp_then_length(cells):
    # after the level-0 phase each cell belongs to the length whose last
    # cell had the highest sp = hits / generated, ties to the shorter length
    alphabet = synth.make_alphabet(4)
    words = synth.markov_words(3, alphabet, 400, min_len=3, max_len=6)
    model = train(Corpus(words), alphabet=alphabet, L=5)
    targets = Counter(words)
    hit_cells = Counter()

    def oracle(text):
        if targets.pop(text, 0):
            hit_cells[len(cells) - 1] += 1
            return 1
        return 0

    lengths = (3, 4, 5, 6)
    list(guess_stream(model, 10**6, feedback=oracle, lengths=lengths))
    sp, last = {}, {}
    ties = 0
    for i, (ell, lvl, size) in enumerate(cells):
        if i >= len(lengths):
            live = [x for x in lengths if last[x] > lowest_level(model, x)]
            assert ell == min(live, key=lambda x: (-sp[x], x)), i
            ties += [sp[x] for x in live].count(sp[ell]) > 1
        assert lvl == last.get(ell, 1) - 1
        sp[ell] = hit_cells[i] / size if size else 0.0
        last[ell] = lvl
    assert all(last[x] == lowest_level(model, x) for x in lengths)
    # the oracle must actually steer: some cells with hits, some ties, and
    # lengths interleaved beyond the level-0 phase
    assert len(hit_cells) > len(lengths)
    assert ties > 0
    after = [ell for ell, *_ in cells[len(lengths):]]
    assert sum(a != b for a, b in zip(after, after[1:])) > len(lengths)


def test_next_step_descends_and_reinserts(cells):
    # after its level-0 cell a single length comes back one level lower,
    # and keeps coming back until its lowest level has run
    model = small_model()
    stream = list(guess_stream(model, 10**6, lengths=(3,)))
    assert [(ell, lvl) for ell, lvl, _ in cells[:2]] == [(3, 0), (3, -1)]
    assert [lvl for _, lvl, _ in cells] == list(range(0, lowest_level(model, 3) - 1, -1))
    assert len(stream) >= cells[0][2]


def test_exhausted_lengths_are_dropped(cells):
    # with no feedback every sp is 0: each length runs once per level down
    # to its lowest, shorter length first, and is then gone
    model = small_model(L=3)
    stream = list(guess_stream(model, 10**6, lengths=(3, 4)))
    expected = [(3, 0), (4, 0)] + [(ell, lvl) for ell in (3, 4)
                                   for lvl in range(-1, lowest_level(model, ell) - 1, -1)]
    assert [(ell, lvl) for ell, lvl, _ in cells] == expected
    assert sum(size for *_, size in cells) == len(stream)


def test_guess_stream_rejects_bad_arguments():
    model = small_model()
    with pytest.raises(ValueError):
        guess_stream(model, 0)
    with pytest.raises(ValueError):
        list(guess_stream(model, 10, lengths=(2,)))
    with pytest.raises(ValueError):
        list(guess_stream(model, 10, lengths=()))


def test_guess_stream_budget_is_exact():
    model = small_model()
    guesses = list(guess_stream(model, 37, lengths=(3, 4)))
    assert len(guesses) == 37
    assert all(isinstance(g, Guess) for g in guesses)


def test_guess_stream_exhausts_small_space():
    model = small_model(sigma=2, L=4)
    guesses = list(guess_stream(model, 10**6, lengths=(3, 4)))
    texts = [g.text for g in guesses]
    assert len(texts) == 2**3 + 2**4
    assert len(set(texts)) == len(texts)


def test_per_length_levels_descend_without_repeats():
    model = small_model(sigma=3, L=6)
    guesses = list(guess_stream(model, 10**6, lengths=(3, 4, 5)))
    runs = defaultdict(list)
    for g in guesses:
        seq = runs[g.length]
        if not seq or seq[-1] != g.level:
            seq.append(g.level)
    for length, seq in runs.items():
        # empty batches are invisible here, so the first shown level may be
        # below 0; what must hold is strict descent with no revisits
        assert seq[0] <= 0
        assert all(a > b for a, b in zip(seq, seq[1:])), (length, seq)
        assert len(set(seq)) == len(seq)


def test_levels_within_length_have_no_gaps(cells):
    # levels execute as 0, -1, -2, ... even when batches are empty
    model = small_model(sigma=3, L=6)
    list(guess_stream(model, 10**6, lengths=(3, 4)))
    assert any(size == 0 for *_, size in cells)
    executed = defaultdict(list)
    for ell, lvl, size in cells:
        assert size == count_guesses(model, lvl, ell)
        executed[ell].append(lvl)
    for ell, levels in executed.items():
        assert levels == list(range(0, lowest_level(model, ell) - 1, -1))


@pytest.mark.parametrize("take", ["next", "islice", "partial"])
def test_every_yielded_guess_reaches_feedback_once(take):
    model = small_model()
    budget = 300
    seen = []

    def feedback(text):
        seen.append(text)
        return 0

    stream = guess_stream(model, budget, feedback, (3, 4, 5))
    if take == "next":
        taken = [next(stream) for _ in range(budget)]
    elif take == "islice":
        taken = list(islice(stream, budget))
    else:
        taken = list(islice(stream, budget // 3))
    # the consumer stops without resuming the stream; what it holds was scored
    assert seen == [g.text for g in taken]


def test_feedback_steers_the_schedule():
    # a skewed oracle should pull its favourite length ahead of the other
    alphabet = synth.make_alphabet(6)
    words = synth.markov_words(7, alphabet, 3000, min_len=4, max_len=7)
    model = train(Corpus(words), alphabet=alphabet)
    targets = Counter(w for w in words if len(w) == 6)

    def oracle(text: str) -> int:
        n = targets.pop(text, 0)
        return 1 if n else 0

    with_feedback = list(guess_stream(model, 30000, feedback=oracle, lengths=(4, 5, 6)))
    lengths_seen = [g.length for g in with_feedback[-5000:]]
    assert lengths_seen.count(6) > 0


def test_null_feedback_is_deterministic():
    model = small_model()
    a = [g.text for g in guess_stream(model, 5000, lengths=(3, 4, 5))]
    b = [g.text for g in guess_stream(model, 5000, lengths=(3, 4, 5))]
    assert a == b


def test_stream_interleaving_matches_manual_schedule():
    # the generator must replay exactly what a direct transcription of the
    # policy produces when both see the same feedback
    model = small_model()
    lengths = (3, 4, 5)
    probe = [g.text for g in guess_stream(model, 10**6, lengths=lengths)]
    # targets in two lengths at different rates; the shorter length has the
    # higher rate but fewer hits per cell, so sp as a rate is what decides
    wanted = [t for t in probe if len(t) == 4][::2] + [t for t in probe if len(t) == 5][::3]

    def make_feedback():
        hits = Counter(wanted)
        return lambda text: 1 if hits.pop(text, 0) else 0

    def run_manual(fb):
        out, last, sp = [], {ell: 1 for ell in lengths}, {ell: float("inf") for ell in lengths}
        live = list(lengths)
        while live:
            ell = min(live, key=lambda x: (-sp[x], x))
            level = last[ell] - 1
            generated = hits = 0
            for text in enum_pwd(model, level, ell):
                generated += 1
                hits += fb(text)
                out.append(Guess(text, level, ell))
            last[ell] = level
            sp[ell] = hits / generated if generated else 0.0
            if level == lowest_level(model, ell):
                live.remove(ell)
        return out

    manual = run_manual(make_feedback())
    stream = list(guess_stream(model, 10**6, feedback=make_feedback(), lengths=lengths))
    assert stream == manual
    # the feedback must reorder cells relative to the no-feedback run
    assert [g.text for g in stream] != probe
