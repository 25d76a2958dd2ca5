from collections import Counter, defaultdict
from itertools import islice

import pytest

import synth
from omen import Corpus, guess_stream, next_step, schedule_init, train
from omen.scheduler import Guess, ScheduleEntry, _min_total_level, _sort_entries


def small_model(seed=42, sigma=4, L=5):
    return synth.random_model(seed, sigma=sigma, L=L)


def test_schedule_init_covers_level_zero():
    model = small_model()
    state = schedule_init(model, lengths=(3, 4, 5))
    assert sorted(e.length for e in state.entries) == [3, 4, 5]
    assert all(e.level == 0 for e in state.entries)
    assert state.cracked == 0
    from omen.enumerator import count_guesses

    expected = sum(count_guesses(model, 0, ell) for ell in (3, 4, 5))
    assert state.guesses_made == expected


def test_schedule_orders_by_sp_then_length():
    entries = [
        ScheduleEntry(0.1, 0, 5),
        ScheduleEntry(0.5, 0, 8),
        ScheduleEntry(0.5, 0, 4),
        ScheduleEntry(0.0, 0, 3),
    ]
    _sort_entries(entries)
    assert [(e.sp, e.length) for e in entries] == [
        (0.5, 4), (0.5, 8), (0.1, 5), (0.0, 3)]


def test_next_step_descends_and_reinserts():
    model = small_model()
    state = schedule_init(model, lengths=(3,))
    before = state.guesses_made
    next_step(state, model)
    assert len(state.entries) == 1
    assert state.entries[0].level == -1
    assert state.guesses_made >= before


def test_next_step_drops_exhausted_lengths():
    model = small_model(L=3)
    state = schedule_init(model, lengths=(3,))
    floor = _min_total_level(model, 3)
    steps = 0
    while state.entries:
        next_step(state, model)
        steps += 1
        assert steps < 50
    assert steps == -floor + 1  # every level below 0, plus the drop step


def test_next_step_on_empty_schedule_raises():
    model = small_model()
    state = schedule_init(model, lengths=(3,))
    state.entries.clear()
    with pytest.raises(ValueError):
        next_step(state, model)


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


def test_levels_within_length_have_no_gaps():
    # levels execute as 0, -1, -2, ... even when batches are empty
    model = small_model(sigma=3, L=6)
    executed = defaultdict(list)
    state = schedule_init(model, lengths=(3, 4))
    for e in state.entries:
        executed[e.length].append(e.level)
    while state.entries:
        lengths_before = {e.length: e.level for e in state.entries}
        next_step(state, model)
        after = {e.length: e.level for e in state.entries}
        for ell, lvl in after.items():
            if lengths_before.get(ell) != lvl:
                executed[ell].append(lvl)
    for ell, levels in executed.items():
        assert levels == list(range(0, -len(levels), -1))


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
    # the generator must replay exactly what schedule_init/next_step produce
    # when both see the same feedback
    model = small_model(sigma=3, L=5)

    def run_manual():
        hits = Counter(["aaa", "abcab"])  # arbitrary fixed targets

        def fb(text):
            return 1 if hits.pop(text, 0) else 0

        order = []
        state = schedule_init(model, lengths=(3, 4), feedback=fb)
        levels = {e.length: e.level for e in state.entries}
        order.extend((0, ell) for ell in sorted(levels))
        while state.entries:
            head = state.entries[0]
            next_step(state, model, feedback=fb)
            order.append((head.level - 1, head.length))
        return order

    def run_stream():
        hits = Counter(["aaa", "abcab"])

        def fb(text):
            return 1 if hits.pop(text, 0) else 0

        order = []
        for g in guess_stream(model, 10**6, feedback=fb, lengths=(3, 4)):
            if not order or order[-1] != (g.level, g.length):
                order.append((g.level, g.length))
        return order

    manual = [(lvl, ell) for lvl, ell in run_manual()
              if lvl >= _min_total_level(model, ell)]
    # manual order lists every executed batch; stream shows non-empty ones
    stream = run_stream()
    it = iter(manual)
    for batch in stream:
        for cand in it:
            if cand == batch:
                break
        else:
            pytest.fail(f"stream batch {batch} missing from manual order")
