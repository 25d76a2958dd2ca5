"""Acceptance suite: one test per criterion, pinned tolerances and budgets.

Each test prints a single summary line (visible with -s, or in pytest -v via
the test id). Time limits are wall-clock.
"""

import itertools
import random
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

import synth
from omen import (
    Alphabet,
    BoostProfile,
    Corpus,
    NgramModel,
    TestSetOracle,
    crack_curve,
    derive_sets,
    estimate_alpha,
    export_curve,
    guess_stream,
    jaccard3,
    lcss,
    load_curve,
    objective_S,
    password_probability,
    plus_stream,
    save_model,
    train,
)
from omen.boost import _grams_by_context, boost_conditionals, boosted_probability
from omen.enumerator import count_guesses, enum_pwd

CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)


def printed_toy_model() -> NgramModel:
    """The worked two-letter example with its levels exactly as given."""
    alphabet = Alphabet("ab")
    init_level = np.array([0, -1, -1, 0], dtype=np.int8)  # aa ab ba bb
    cond_level = np.array([[-1, -1], [0, -2], [-1, -1], [0, -2]], dtype=np.int8)
    init_prob = np.exp(init_level.astype(np.float64))
    init_prob /= init_prob.sum()
    cond_prob = np.exp(cond_level.astype(np.float64))
    cond_prob /= cond_prob.sum(axis=1, keepdims=True)
    return NgramModel(alphabet, 3, 10, init_prob, cond_prob, init_level, cond_level)


def brute_level_map(model, ell):
    sigma = model.alphabet.size
    n1 = model.n - 1
    C = sigma**n1
    out = defaultdict(set)
    for tup in itertools.product(range(sigma), repeat=ell):
        ctx = 0
        for r in tup[:n1]:
            ctx = ctx * sigma + r
        lvl = int(model.init_level[ctx])
        for z in tup[n1:]:
            lvl += int(model.cond_level[ctx, z])
            ctx = (ctx * sigma + z) % C
        out[lvl].add("".join(model.alphabet.chars[r] for r in tup))
    return out


@pytest.fixture(scope="module")
def model_family():
    """100 random small models with exhaustive level maps and enum outputs."""
    cases = []
    sigmas = (2, 3, 4)
    levels = (3, 5, 10)
    lengths = (3, 4, 5)
    for seed in range(100):
        sigma = sigmas[seed % 3]
        L = levels[(seed // 3) % 3]
        ell = lengths[(seed // 9) % 3]
        model = synth.random_model(seed, sigma=sigma, L=L)
        oracle = brute_level_map(model, ell)
        k = ell - (model.n - 2)
        per_eta = {}
        for eta in range(0, -(L - 1) * k - 1, -1):
            per_eta[eta] = (list(enum_pwd(model, eta, ell)),
                            oracle.get(eta, set()),
                            count_guesses(model, eta, ell))
        cases.append((sigma, L, ell, per_eta))
    return cases


def test_criterion_01_worked_example_reproduction():
    started = time.perf_counter()
    model = printed_toy_model()
    assert set(enum_pwd(model, 0, 3)) == {"bba"}
    assert set(enum_pwd(model, -1, 3)) == {"aba", "aaa", "aab"}
    # the printed walkthrough lists bba again at the (0,-2) vector; the
    # exhaustive level table shows that vector reaches bbb (levels 0 + -2),
    # so the expected set keeps bbb
    assert set(enum_pwd(model, -2, 3)) == {"baa", "bab", "bbb"}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (toy sets exact, {elapsed:.3f}s < 1s)")


def test_criterion_02_oracle_equivalence(model_family):
    started = time.perf_counter()
    checked = 0
    for sigma, L, ell, per_eta in model_family:
        for eta, (enum_out, brute_set, counted) in per_eta.items():
            assert set(enum_out) == brute_set, (sigma, L, ell, eta)
            assert len(enum_out) == len(brute_set)
            assert counted == len(brute_set), (sigma, L, ell, eta)
            checked += 1
    elapsed = time.perf_counter() - started
    assert len(model_family) == 100
    assert elapsed < 30.0
    print(f"criterion 2: PASS (100 models, {checked} (model, eta) pairs exact, "
          f"{elapsed:.1f}s < 30s)")


def test_criterion_03_partition_property(model_family):
    for sigma, L, ell, per_eta in model_family:
        total = 0
        union = set()
        for enum_out, _, _ in per_eta.values():
            total += len(enum_out)
            union.update(enum_out)
        assert total == sigma**ell, (sigma, L, ell)
        assert len(union) == sigma**ell, (sigma, L, ell)
    print("criterion 3: PASS (all eta together cover each space exactly once, "
          "100 models)")


def test_criterion_04_ordering_invariant():
    started = time.perf_counter()
    alphabet = synth.make_alphabet(20)
    train_set, test_set = synth.zipf_corpus(1, alphabet, 15000, 100000, 10000,
                                            min_len=4, max_len=9)
    model = train(Corpus(train_set), alphabet=alphabet)
    oracle = TestSetOracle(test_set)
    runs: dict[int, list[int]] = defaultdict(list)
    made = 0
    for guess in guess_stream(model, 10**6, feedback=oracle):
        made += 1
        seq = runs[guess.length]
        if not seq or seq[-1] != guess.level:
            seq.append(guess.level)
    assert made == 10**6
    for length, seq in runs.items():
        assert all(a > b for a, b in zip(seq, seq[1:])), (length, seq)
        assert len(set(seq)) == len(seq), (length, seq)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 4: PASS (per-length levels strictly descend, no repeats; "
          f"{len(runs)} lengths, cracked {oracle.cracked}; {elapsed:.1f}s < 60s)")


def test_criterion_05_ordered_vs_unordered_dominance():
    started = time.perf_counter()
    dominances = []
    for seed in range(5):
        alphabet = synth.make_alphabet(20)
        train_set, test_set = synth.zipf_corpus(100 + seed, alphabet, 12000,
                                                50000, 5000, min_len=4, max_len=8)
        model = train(Corpus(train_set), alphabet=alphabet)
        oracle = TestSetOracle(test_set)
        ordered = [g.text for g in guess_stream(model, 10**6, feedback=oracle)]
        shuffled = ordered.copy()
        random.Random(seed).shuffle(shuffled)
        omen_curve = crack_curve(iter(ordered), test_set, CHECKPOINTS)
        random_curve = crack_curve(iter(shuffled), test_set, CHECKPOINTS)
        wins = sum(a >= b for a, b in zip(omen_curve.fractions, random_curve.fractions))
        dominances.append(wins / len(CHECKPOINTS))
    mean_dom = sum(dominances) / len(dominances)
    elapsed = time.perf_counter() - started
    assert mean_dom >= 0.9, dominances
    assert elapsed < 300.0
    print(f"criterion 5: PASS (mean dominance {mean_dom:.2f} >= 0.9 over 5 seeds, "
          f"{elapsed:.0f}s < 300s)")


def test_criterion_06_headline_numbers_not_reproducible():
    # The original large-scale cracking rates were measured on leaked
    # real-world corpora with 1e10 guesses; neither the data nor the budget
    # is available here, so the claim is not checkable at desk scale. The
    # verifiable stand-ins are criteria 2-5 (exact enumeration semantics and
    # ordered-vs-unordered dominance on synthetic corpora).
    for name in ("test_criterion_02_oracle_equivalence",
                 "test_criterion_03_partition_property",
                 "test_criterion_04_ordering_invariant",
                 "test_criterion_05_ordered_vs_unordered_dominance"):
        assert name in globals()
    print("criterion 6: PASS (documented substitution: headline crack rates "
          "are not reproducible; covered by criteria 2-5)")


def test_criterion_07_similarity_units():
    started = time.perf_counter()
    assert lcss("abcabc", "abcba") == (3, "abc")
    assert jaccard3("password", "passabcd") == 1 / 3
    sets = derive_sets("password", "passabcd")
    assert sets.S == {"pas", "ass"}
    assert sets.T == {"ssw"}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 7: PASS (lcss, jaccard3, S/T sets exact, {elapsed:.3f}s < 1s)")


def test_criterion_08_boost_identity_and_monotonicity():
    started = time.perf_counter()
    alphabet = synth.make_alphabet(8)
    train_set, _ = synth.zipf_corpus(7, alphabet, 4000, 30000, 10,
                                     min_len=4, max_len=6)
    model = train(Corpus(train_set), alphabet=alphabet)
    lengths = (4, 5)
    budget = 8**4 + 8**5

    # alpha = 1: stream is byte-identical to the plain one
    profile_id = BoostProfile(L=model.L)
    profile_id.set("firstName", 1.0)
    plain = [g.text for g in guess_stream(model, budget, lengths=lengths)]
    neutral = [g.text for g in plus_stream(model, profile_id,
                                           {"firstName": ["abcdef"]}, budget,
                                           lengths=lengths)]
    assert neutral == plain

    # alpha = 1: S* equals the unboosted baseline within 1e-12
    records = synth.hint_records(8, alphabet, 80, "firstName", 0.4, train_set[:300])
    baseline = sum(password_probability(model, r.password) ** -1.5
                   for r in records) / len(records)
    s_star = objective_S(records, "firstName", 1.0, model)
    assert abs(s_star - baseline) <= 1e-12 * max(1.0, abs(baseline))

    # fully hint-covered passwords never move backwards under boosting
    profile = BoostProfile(L=model.L)
    profile.set("firstName", 3.0)
    position = {text: i for i, text in enumerate(plain)}
    step = len(plain) // 21
    probes = [plain[(i + 1) * step] for i in range(20)]
    moved = 0
    for probe in probes:
        boosted = plus_stream(model, profile, {"firstName": [probe]}, budget,
                              lengths=lengths)
        for idx, guess in enumerate(boosted):
            if guess.text == probe:
                assert idx <= position[probe], probe
                moved += idx < position[probe]
                break
        else:
            pytest.fail(f"probe {probe!r} missing from boosted stream")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 8: PASS (alpha=1 identity exact, S* gap <= 1e-12, 20/20 "
          f"probes kept or improved rank ({moved} strictly), {elapsed:.1f}s < 60s)")


def test_criterion_09_closed_form_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    accepted = 0
    busy = 0
    worst = 0.0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 20000, "regime sampling stalled"
        model = synth.random_model(int(rng.integers(0, 2**31)),
                                   sigma=int(rng.integers(6, 11)))
        chars = list(model.alphabet.chars)
        pwd = "".join(rng.choice(chars, size=int(rng.integers(4, 9))))
        cut = int(rng.integers(0, max(1, len(pwd) - 3)))
        hint = pwd[cut : cut + 4] + "".join(rng.choice(chars, size=2))
        alpha = float(rng.uniform(1.05, 5.0))
        sets = derive_sets(pwd, hint, model.n)
        worst_mass = 0.0
        for ctx, zs in _grams_by_context(model, sets.hint_grams).items():
            mass = sum(model.cond_row(ctx)[z] for z in zs)
            worst_mass = max(worst_mass, alpha * mass)
        if worst_mass > 0.3:
            continue
        direct = boosted_probability(model, sets, alpha, pwd)
        view = boost_conditionals(model, sets.hint_grams, alpha)
        recomputed = password_probability(view, pwd)
        rel = abs(direct - recomputed) / recomputed
        assert rel <= 0.05, (rel, alpha, pwd, hint)
        worst = max(worst, rel)
        accepted += 1
        busy += bool(sets.S or sets.T)
    elapsed = time.perf_counter() - started
    assert busy >= 500  # the sample must actually exercise the boost path
    assert elapsed < 30.0
    print(f"criterion 9: PASS (1000 triples, worst relative error {worst:.2e} "
          f"<= 5%, {busy} with non-empty S/T, {elapsed:.1f}s < 30s)")


def test_criterion_10_alpha_estimation_sanity():
    started = time.perf_counter()
    embed_alphas = []
    null_alphas = []
    for seed in range(5):
        alphabet = synth.make_alphabet(12)
        train_set, _ = synth.zipf_corpus(200 + seed, alphabet, 3000, 15000, 10,
                                         min_len=4, max_len=8)
        model = train(Corpus(train_set), alphabet=alphabet)
        embed = synth.hint_records(300 + seed, alphabet, 250, "firstName", 0.3,
                                   train_set[:1000])
        # null values are random over the full character pool, not the model
        # alphabet: a 12-char alphabet makes chance hint/password gram
        # collisions likely, and any collision is pure signal (the boosted
        # record's p^-1.5 term collapses while penalties stay near zero), so
        # the argmin would jump to the grid top on luck alone
        head = [w for w, _ in Counter(train_set).most_common(400)]
        null = synth.hint_records(400 + seed, synth.make_alphabet(72), 250,
                                  "firstName", 0.0, head)
        a_embed, _ = estimate_alpha(embed, "firstName", model)
        a_null, _ = estimate_alpha(null, "firstName", model)
        embed_alphas.append(a_embed)
        null_alphas.append(a_null)
    elapsed = time.perf_counter() - started
    assert all(a >= 1.5 for a in embed_alphas), embed_alphas
    assert all(a <= 1.2 for a in null_alphas), null_alphas
    assert elapsed < 120.0
    print(f"criterion 10: PASS (embedded alphas {embed_alphas} all >= 1.5; "
          f"null alphas {null_alphas} all <= 1.2; {elapsed:.0f}s < 120s)")


def test_criterion_11_determinism(tmp_path):
    alphabet = synth.make_alphabet(10)
    train_set, test_set = synth.zipf_corpus(55, alphabet, 3000, 20000, 500)

    def pipeline(tag: str):
        corpus = Corpus(list(train_set))
        model = train(corpus, alphabet=alphabet)
        model_path = tmp_path / f"model_{tag}.omen"
        save_model(model, model_path)
        oracle = TestSetOracle(test_set)
        stream = [g.text for g in guess_stream(model, 50000, feedback=oracle)]
        curve = crack_curve(iter(stream), test_set, (100, 1000, 50000))
        curve_path = tmp_path / f"curve_{tag}.csv"
        export_curve(curve, curve_path)
        profile = BoostProfile(L=model.L)
        profile.set("firstName", 2.5)
        boosted = [g.text for g in plus_stream(
            model, profile, {"firstName": [test_set[0]]}, 5000)]
        return model_path.read_bytes(), stream, curve_path.read_bytes(), boosted

    first = pipeline("a")
    second = pipeline("b")
    assert first[0] == second[0], "model files differ"
    assert first[1] == second[1], "guess streams differ"
    assert first[2] == second[2], "curve files differ"
    assert first[3] == second[3], "boosted streams differ"
    assert load_curve(tmp_path / "curve_a.csv") == load_curve(tmp_path / "curve_b.csv")
    print("criterion 11: PASS (model bytes, streams, curves byte-identical on rerun)")
