import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synth
from omen import (
    Alphabet,
    BoostProfile,
    Corpus,
    HintRecord,
    OmenError,
    ScoringError,
    boost_conditionals,
    boosted_probability,
    derive_sets,
    derive_sets_multi,
    estimate_alpha,
    fit_guess_curve,
    guess_stream,
    objective_S,
    password_probability,
    plus_stream,
    train,
)
from omen.boost import (
    ALPHA_CAP,
    EXCLUDED_ATTRIBUTES,
    _grams_by_context,
    _objective_values,
    boost_level_for,
    default_alpha_grid,
)
from omen.model import NgramModel


def two_letter_model():
    return train(Corpus(["aab", "abb"]), alphabet=Alphabet("ab"), n=3, delta=0.01)


# --- boost level ------------------------------------------------------------


@pytest.mark.parametrize("alpha,expected", [
    (1.0, 0), (1.5, 0), (2.0, 1), (3.0, 1), (4.0, 1), (4.5, 2), (5.0, 2),
])
def test_boost_level_reference_values(alpha, expected):
    assert boost_level_for(alpha, 10) == expected


def test_boost_level_clamps_to_model_range():
    assert boost_level_for(5.0, 2) == 1


# --- S/T derivation ---------------------------------------------------------


def test_derive_sets_by_hand():
    sets = derive_sets("abcd", "abcz")
    assert sets.S == {"abc"}
    assert sets.T == {"bcd"}  # context bc appears in the hint via bcz
    assert sets.hint_grams == {"abc", "bcz"}

    sets = derive_sets("abcd", "abx")
    assert sets.S == set()
    assert sets.T == {"abc"}

    sets = derive_sets("abcd", "zzz")
    assert sets.S == set() and sets.T == set()


def test_derive_sets_multi_unions_hints():
    sets = derive_sets_multi("abcd", ["abq", "bcd"])
    assert sets.S == {"bcd"}
    assert sets.T == {"abc"}
    assert sets.hint_grams == {"abq", "bcd"}


def test_derive_sets_case_folds():
    sets = derive_sets("ABCD", "abcd")
    assert sets.S == {"abc", "bcd"}


def test_derive_sets_disjoint_and_bounded():
    rng = np.random.default_rng(5)
    chars = "abcde"
    for _ in range(100):
        pwd = "".join(rng.choice(list(chars), size=rng.integers(3, 9)))
        hint = "".join(rng.choice(list(chars), size=rng.integers(3, 9)))
        sets = derive_sets(pwd, hint)
        assert not (sets.S & sets.T)
        from omen.similarity import ngram_set

        pg = ngram_set(pwd)
        assert sets.S <= pg and sets.T <= pg
        ctxs = {g[:2] for g in sets.hint_grams}
        assert all(g[:2] in ctxs for g in sets.T)


def test_grams_by_context_skips_foreign_chars():
    model = two_letter_model()
    by_ctx = _grams_by_context(model, {"aab", "a9b"})
    assert by_ctx == {0: [1]}  # only aab survives; context aa, char b
    with pytest.raises(ValueError):
        _grams_by_context(model, {"toolong"})


# --- boosted conditional view -------------------------------------------------


def test_boost_conditionals_by_hand():
    model = two_letter_model()
    alpha = 2.0
    # boost the rare gram aaa: p_hat = p(a|aa) = 0.01/1.02, far from the cap
    view = boost_conditionals(model, {"aaa"}, alpha)
    p_a = 0.01 / 1.02
    assert view.cond_prob[0, 0] == pytest.approx(alpha * p_a)
    assert view.cond_prob[0, 1] == pytest.approx(
        (1.01 / 1.02) * (1 - alpha * p_a))
    # an untouched context keeps the base row
    assert view.cond_prob[1, 1] == model.cond_prob[1, 1]
    # boosted level rises by round(ln 2) = 1, clamped at 0
    base_lvl = model.cond_level[0, 0]
    assert view.cond_level[0, 0] == min(0, base_lvl + 1)
    assert view.cond_level[0, 1] == model.cond_level[0, 1]


def test_boost_alpha_one_is_identity():
    model = synth.random_model(7, sigma=4)
    view = boost_conditionals(model, {"abc"}, 1.0)
    ctx = model.alphabet.rank("ab")
    for z in range(4):
        assert view.cond_row(ctx)[z] == model.cond_row(ctx)[z]
        assert view.cond_level[ctx, z] == model.cond_level[ctx, z]


def test_boost_cap_regime_zeroes_the_rest():
    # force alpha*p_hat >= 1: boost the dominant character of a context
    model = two_letter_model()
    view = boost_conditionals(model, {"aab"}, 5.0)  # p_hat = 1.01/1.02
    assert view.cond_prob[0, 1] == pytest.approx(1.0)
    assert view.cond_prob[0, 0] == 0.0


_HASH_SEED_PROBE = """
import synth
from omen import boost_conditionals, boosted_probability, derive_sets_multi
model = synth.random_model(3, sigma=8, L=10)
chars = model.alphabet.chars
pwd = "ab" + chars[1] + "aa"
sets = derive_sets_multi(pwd, ["ab" + c for c in chars[2:8]], model.n)
row = boost_conditionals(model, sets.hint_grams, 1.7).cond_prob[model.alphabet.rank("ab")]
print(boosted_probability(model, sets, 1.7, pwd).hex(), row.tobytes().hex())
"""


def test_boost_sums_do_not_depend_on_hash_seed():
    # six hint grams share context "ab"; their p_hat is summed in one fixed
    # order whatever order the hint-gram set iterates in
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


def test_boost_rejects_alpha_below_one():
    with pytest.raises(ValueError):
        boost_conditionals(two_letter_model(), {"aab"}, 0.5)
    with pytest.raises(ValueError):
        boosted_probability(two_letter_model(), derive_sets("aab", "aab"), 0.9, "aab")


# --- closed-form boosted probability -----------------------------------------


def test_boosted_probability_pure_s_case():
    model = two_letter_model()
    sets = derive_sets("aab", "aab")
    assert sets.S == {"aab"} and not sets.T
    p_old = password_probability(model, "aab")
    assert boosted_probability(model, sets, 3.0, "aab") == pytest.approx(3.0 * p_old)


def test_boosted_probability_alpha_one_is_exactly_baseline():
    model = two_letter_model()
    sets = derive_sets("aab", "aaa")  # non-empty T would otherwise penalize
    assert sets.T == {"aab"}
    p_old = password_probability(model, "aab")
    assert boosted_probability(model, sets, 1.0, "aab") == p_old


def test_boosted_probability_pure_t_case():
    model = two_letter_model()
    sets = derive_sets("aab", "aaa")
    assert sets.S == set() and sets.T == {"aab"}
    p_hat = 0.01 / 1.02  # base mass of hint gram aaa in context aa
    p_old = password_probability(model, "aab")
    expected = p_old * (1 - 2.0 * p_hat)
    assert boosted_probability(model, sets, 2.0, "aab") == pytest.approx(expected)


def test_boosted_probability_unrepresentable_hint_gram_is_neutral():
    model = two_letter_model()
    sets = derive_sets_multi("aab", ["aa9"])  # 9 outside the alphabet
    assert sets.T == {"aab"}
    p_old = password_probability(model, "aab")
    assert boosted_probability(model, sets, 2.0, "aab") == pytest.approx(p_old)


def test_boosted_probability_counts_repeated_occurrences():
    model = train(Corpus(["aaaaa", "aabab"]), alphabet=Alphabet("ab"), n=3)
    sets = derive_sets("aaaa", "aaa")
    assert sets.S == {"aaa"}
    p_old = password_probability(model, "aaaa")
    # aaaa contains the gram aaa twice, so the factor is alpha squared
    assert boosted_probability(model, sets, 2.0, "aaaa") == pytest.approx(4.0 * p_old)


def max_alpha_phat(model, sets, alpha):
    worst = 0.0
    for ctx, chars in _grams_by_context(model, sets.hint_grams).items():
        p_hat = sum(model.cond_row(ctx)[z] for z in chars)
        worst = max(worst, alpha * p_hat)
    return worst


def test_closed_form_matches_boosted_view():
    # in the moderate-boost regime the closed form and a full boosted view
    # must price passwords identically
    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    for seed in range(300):
        model = synth.random_model(seed, sigma=int(rng.integers(6, 9)))
        chars = list(model.alphabet.chars)
        pwd = "".join(rng.choice(chars, size=int(rng.integers(4, 8))))
        # build the hint around a password substring so S/T are usually busy
        cut = int(rng.integers(0, max(1, len(pwd) - 3)))
        hint = pwd[cut : cut + 4] + "".join(rng.choice(chars, size=2))
        alpha = float(rng.uniform(1.0, 2.0))
        sets = derive_sets(pwd, hint, model.n)
        if not (sets.S or sets.T):
            continue
        if max_alpha_phat(model, sets, alpha) > 0.3:
            continue
        direct = boosted_probability(model, sets, alpha, pwd)
        view = boost_conditionals(model, sets.hint_grams, alpha)
        via_view = password_probability(view, pwd)
        assert direct == pytest.approx(via_view, rel=1e-9)
        worst = max(worst, abs(direct - via_view) / via_view)
        checked += 1
    assert checked >= 30, f"only {checked} triples landed in the test regime"
    assert worst < 1e-9


# --- guess-curve exponent ------------------------------------------------------


def test_fit_guess_curve_on_zipf_model():
    alphabet = synth.make_alphabet(10)
    words, _ = synth.zipf_corpus(31, alphabet, 2000, 15000, 10)
    model = train(Corpus(words), alphabet=alphabet)
    b = fit_guess_curve(model, sample_count=4000)
    assert -6.0 < b < -0.1


def test_fit_guess_curve_rejects_tiny_samples():
    with pytest.raises(ValueError):
        fit_guess_curve(two_letter_model(), sample_count=10)


def test_fit_guess_curve_degenerate_falls_back(caplog, monkeypatch):
    # force every sampled guess to the same probability
    import omen.boost as boost_module

    monkeypatch.setattr(boost_module, "password_probability", lambda m, t: 0.5)
    alphabet = Alphabet("ab")
    init = np.full(4, 0.25)
    cond = np.full((4, 2), 0.5)
    zeros = np.zeros(4, dtype=np.int8)
    model = NgramModel(alphabet, 3, 10, init, cond, zeros, zeros.reshape(4, 1).repeat(2, 1))
    with caplog.at_level("WARNING", logger="omen.boost"):
        b = fit_guess_curve(model, sample_count=1000)
    assert b == -1.5
    assert any("degenerate" in r.message for r in caplog.records)


# --- objective and alpha estimation --------------------------------------------


def embed_fixture(seed=17):
    alphabet = synth.make_alphabet(8)
    words, _ = synth.zipf_corpus(seed, alphabet, 1500, 12000, 10)
    model = train(Corpus(words), alphabet=alphabet)
    records = synth.hint_records(seed + 1, alphabet, 120, "firstName", 0.3,
                                 words[:500])
    return model, records


def test_objective_rejects_bad_inputs():
    model, records = embed_fixture()
    with pytest.raises(ValueError):
        objective_S([], "firstName", 1.0, model)
    with pytest.raises(ValueError):
        objective_S(records, "petName", 1.0, model)
    with pytest.raises(ScoringError):
        objective_S([HintRecord("##", {})], "firstName", 1.0, model)


def test_objective_improves_with_boost_on_embedded_hints():
    model, records = embed_fixture()
    s1 = objective_S(records, "firstName", 1.0, model)
    s2 = objective_S(records, "firstName", 2.0, model)
    assert s2 < s1


def test_objective_flat_when_hints_are_irrelevant():
    model, _ = embed_fixture()
    records = [HintRecord("abcdefg", {"location": ["55555"]}),
               HintRecord("bcdefga", {"location": ["66666"]})]
    # hint grams fall outside the alphabet: S = T = {} for every record
    s1 = objective_S(records, "location", 1.0, model)
    s5 = objective_S(records, "location", 5.0, model)
    assert s1 == pytest.approx(s5)


def test_default_alpha_grid_shape():
    grid = default_alpha_grid()
    assert grid[0] == 1.0 and grid[-1] == 5.0
    assert len(grid) == 41
    steps = {round(b - a, 10) for a, b in zip(grid, grid[1:])}
    assert steps == {0.1}


def test_default_alpha_grid_never_passes_hi():
    assert default_alpha_grid(1, 1.35, 0.1) == [1.0, 1.1, 1.2, 1.3]
    # an end point reached only up to rounding is still included
    assert default_alpha_grid(1, 1.3, 0.1) == [1.0, 1.1, 1.2, 1.3]
    assert default_alpha_grid(2, 2, 0.5) == [2.0]


def test_estimate_alpha_grid_validation():
    model, records = embed_fixture()
    with pytest.raises(ValueError):
        estimate_alpha(records, "firstName", model, grid=[2.0, 3.0])  # no 1
    with pytest.raises(ValueError):
        estimate_alpha(records, "firstName", model, grid=[1.0, 6.0])  # above cap
    with pytest.raises(ValueError):
        estimate_alpha(records, "firstName", model, grid=[])


def test_estimate_alpha_prefers_boost_when_hints_embed():
    model, records = embed_fixture()
    alpha, blevel = estimate_alpha(records, "firstName", model,
                                   grid=[1.0, 1.5, 2.0, 3.0, 5.0])
    assert alpha >= 1.5
    assert blevel == boost_level_for(alpha, model.L)


def test_estimate_alpha_ties_pick_smallest():
    model, _ = embed_fixture()
    records = [HintRecord("abcdefg", {"location": ["55555"]})]
    alpha, blevel = estimate_alpha(records, "location", model,
                                   grid=[1.0, 2.0, 4.0])
    assert alpha == 1.0 and blevel == 0


def clamp_fixture(seed=5):
    """Records whose hint holds the likeliest other character after one of
    the password's contexts, so alpha*p_hat passes 1 inside the grid."""
    model = synth.random_model(seed, sigma=4)
    chars = model.alphabet.chars
    g = np.random.default_rng(seed)
    records = []
    for i in range(60):
        pwd = synth.random_string(g, model.alphabet, 5, 8)
        j = int(g.integers(0, len(pwd) - 2))
        ctx, last = pwd[j : j + 2], pwd[j + 2]
        row = model.cond_row(model.alphabet.rank(ctx))
        near = max((z for z in range(len(chars)) if chars[z] != last), key=lambda z: row[z])
        values = [ctx + chars[near]] + ([pwd[:4]] if i % 3 == 0 else [])
        records.append(HintRecord(pwd, {"lastName": values}))
    return model, records


def mixed_fixture():
    """embed_fixture's records interleaved with unscoreable passwords and
    with records that lack the attribute."""
    model, records = embed_fixture()
    mixed = []
    for i, rec in enumerate(records[:60]):
        mixed.append(rec)
        if i % 4 == 0:
            mixed.append(HintRecord("a#" + rec.password, rec.attributes))
        elif i % 4 == 1:
            mixed.append(HintRecord(rec.password, {}))
        elif i % 4 == 2:
            mixed.append(HintRecord(rec.password.upper(), rec.attributes))
        else:
            mixed.append(HintRecord(rec.password, {"lastName": ["abcd"]}))
    mixed.append(HintRecord("a", {"firstName": ["abc"]}))
    return model, mixed


# sha256 of the float.hex of every default-grid objective value, recorded
# when objective_S still rebuilt every record's terms for each alpha
OBJECTIVE_PINS = {
    "embed": (embed_fixture, "firstName",
              "3886f1254fe5df559717af67d03402480a2514e45a172b3d15dc7099892dce8b"),
    "clamp": (clamp_fixture, "lastName",
              "e79182dbedd33088bc8791544a3ee506fe6c9a12b5982717401b810bc685a8d8"),
    "mixed": (mixed_fixture, "firstName",
              "4d769ec12545dd198adb9e8de2d92778dbb18b71b560d18455f3684305faacd2"),
}


def objective_digest(values) -> str:
    return hashlib.sha256("\n".join(float.hex(v) for v in values).encode()).hexdigest()


def brute_force_objective(records, attribute, model, alpha, b=-1.5):
    """objective_S written out as a per-alpha loop over boosted_probability."""
    total, scored = 0.0, 0
    for rec in records:
        try:
            sets = derive_sets_multi(rec.password, rec.attributes.get(attribute) or [], model.n)
            p = boosted_probability(model, sets, alpha, rec.password)
        except ScoringError:
            continue
        if p > 0.0:
            total += p**b
            scored += 1
    return total / scored


@pytest.mark.parametrize("name", sorted(OBJECTIVE_PINS))
def test_objective_pinned_on_default_grid(name):
    make, attribute, pin = OBJECTIVE_PINS[name]
    model, records = make()
    grid = default_alpha_grid()
    values = [objective_S(records, attribute, a, model) for a in grid]
    assert objective_digest(values) == pin
    # the one-pass grid evaluation behind estimate_alpha gives the same bits
    assert objective_digest(_objective_values(records, attribute, model, grid, -1.5)) == pin


@pytest.mark.parametrize("name", sorted(OBJECTIVE_PINS))
def test_estimate_alpha_is_brute_force_argmin(name):
    make, attribute, pin = OBJECTIVE_PINS[name]
    model, records = make()
    grid = default_alpha_grid()
    values = [brute_force_objective(records, attribute, model, a) for a in grid]
    assert objective_digest(values) == pin
    best = min(range(len(grid)), key=lambda i: (values[i], grid[i]))
    assert estimate_alpha(records, attribute, model) == (
        grid[best], boost_level_for(grid[best], model.L))



def test_estimate_alpha_rejects_non_finite_grid_and_exponent():
    model, records = embed_fixture()
    for grid in ([1.0, math.nan, 2.0], [1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="finite"):
            estimate_alpha(records, "firstName", model, grid=grid)
    for b in (math.nan, math.inf, -math.inf, 1.5, 0.0):
        with pytest.raises(ValueError, match="exponent b must be finite and negative"):
            estimate_alpha(records, "firstName", model, b=b)
        with pytest.raises(ValueError, match="exponent b must be finite and negative"):
            objective_S(records, "firstName", 1.0, model, b=b)
    for alpha in (math.nan, math.inf, 0.5):
        with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
            objective_S(records, "firstName", alpha, model)


def test_boost_rejects_non_finite_alpha():
    model = two_letter_model()
    sets = derive_sets("aab", "aab")
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
            boost_conditionals(model, {"aab"}, alpha)
        with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
            boosted_probability(model, sets, alpha, "aab")


def test_clamp_logged_once_per_context_of_a_password(caplog):
    model = two_letter_model()
    sets = derive_sets("aaaaa", "aab")  # T gram aaa occurs three times
    assert sets.T == {"aaa"} and not sets.S
    with caplog.at_level("WARNING", logger="omen.boost"):
        p = boosted_probability(model, sets, 5.0, "aaaaa")
    assert p == password_probability(model, "aaaaa") * (1e-12 * 1e-12 * 1e-12)
    assert ["clamped" in r.getMessage() for r in caplog.records] == [True]


def test_estimate_alpha_logs_each_clamp_and_skip_once(caplog):
    model, records = clamp_fixture()
    grid = default_alpha_grid()
    expected = 0
    for rec in records:
        sets = derive_sets_multi(rec.password, rec.attributes["lastName"], model.n)
        caplog.clear()
        with caplog.at_level("WARNING", logger="omen.boost"):
            for a in grid:
                boosted_probability(model, sets, a, rec.password)
        expected += len({r.args[0] for r in caplog.records})
    assert expected > 0
    caplog.clear()
    with caplog.at_level("INFO", logger="omen.boost"):
        estimate_alpha(records, "lastName", model)
    assert sum("clamped" in r.getMessage() for r in caplog.records) == expected

    model, records = mixed_fixture()
    unscoreable = 0
    for rec in records:
        try:
            password_probability(model, rec.password)
        except ScoringError:
            unscoreable += 1
    caplog.clear()
    with caplog.at_level("INFO", logger="omen.boost"):
        estimate_alpha(records, "firstName", model)
    skips = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert skips == [f"objective skipped {unscoreable} unscoreable record(s)"]

# --- boost profiles ---------------------------------------------------------


def test_profile_set_and_read_back():
    p = BoostProfile(L=10)
    p.set("firstName", 2.0)
    assert p.alpha("firstName") == 2.0
    assert p.boost_level("firstName") == 1
    with pytest.raises(ValueError):
        p.set("petName", 2.0)
    with pytest.raises(ValueError):
        p.set("firstName", 0.5)
    with pytest.raises(ValueError):
        p.set("firstName", 9.0)


def test_profile_round_trip(tmp_path):
    p = BoostProfile(L=10)
    p.set("firstName", 2.0)
    p.set("location", 4.5)
    path = tmp_path / "profile.csv"
    p.save(path)
    q = BoostProfile.load(path, L=10)
    assert dict(q.items()) == dict(p.items())
    header = path.read_text().splitlines()[0]
    assert header == "attribute,alpha,boostLevel"


def test_profile_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("attribute,alpha,boostLevel\nfirstName,2.0,7\n")
    with pytest.raises(OmenError):
        BoostProfile.load(path, L=10)  # boost level inconsistent with alpha
    path.write_text("wrong,header\n")
    with pytest.raises(OmenError):
        BoostProfile.load(path, L=10)
    path.write_text("attribute,alpha,boostLevel\nfirstName,abc,1\n")
    with pytest.raises(OmenError):
        BoostProfile.load(path, L=10)
    # keeping the last line would turn firstName's boost off without a word
    path.write_text("attribute,alpha,boostLevel\nfirstName,3,1\nfirstName,1,0\n")
    with pytest.raises(OmenError, match="line 3: attribute 'firstName' repeated"):
        BoostProfile.load(path, L=10)


# --- boosted guessing --------------------------------------------------------


def plus_fixture():
    alphabet = synth.make_alphabet(6)
    words = synth.markov_words(23, alphabet, 4000, min_len=4, max_len=7)
    model = train(Corpus(words), alphabet=alphabet)
    profile = BoostProfile(L=model.L)
    profile.set("firstName", 3.0)
    return model, profile


def test_plus_stream_without_usable_hints_is_plain():
    model, profile = plus_fixture()
    plain = [g.text for g in guess_stream(model, 2000, lengths=(4, 5))]
    for hints in ({}, {"location": ["zzz"]}, HintRecord("x", {})):
        boosted = [g.text for g in plus_stream(model, profile, hints, 2000,
                                               lengths=(4, 5))]
        assert boosted == plain


def test_plus_stream_email_never_boosts():
    model, profile = plus_fixture()
    profile.set("email", 5.0)
    assert "email" in EXCLUDED_ATTRIBUTES
    plain = [g.text for g in guess_stream(model, 2000, lengths=(4, 5))]
    boosted = [g.text for g in plus_stream(
        model, profile, {"email": ["abcdef"]}, 2000, lengths=(4, 5))]
    assert boosted == plain


def test_plus_stream_moves_hinted_password_forward():
    model, profile = plus_fixture()
    budget = 6**4 + 6**5  # every length-4 and length-5 string
    plain = [g.text for g in guess_stream(model, budget, lengths=(4, 5))]
    # pick a mid-pack probe so there is room to move
    probe = plain[len(plain) // 2]
    boosted = [g.text for g in plus_stream(
        model, profile, {"firstName": [probe]}, budget, lengths=(4, 5))]
    assert sorted(plain) == sorted(boosted)
    assert boosted.index(probe) < plain.index(probe)


def test_plus_stream_takes_largest_bonus_per_gram():
    model, profile = plus_fixture()
    profile.set("location", 5.0)  # boost level 2 beats firstName's 1
    value = "abcab"
    one = [g.text for g in plus_stream(
        model, profile, {"location": [value]}, 500, lengths=(4,))]
    both = [g.text for g in plus_stream(
        model, profile, {"location": [value], "firstName": [value]}, 500,
        lengths=(4,))]
    assert one == both


def test_plus_stream_accepts_hint_records():
    model, profile = plus_fixture()
    rec = HintRecord("irrelevant", {"firstName": ["abcd"]})
    a = [g.text for g in plus_stream(model, profile, rec, 300, lengths=(4,))]
    b = [g.text for g in plus_stream(model, profile, rec.attributes, 300,
                                     lengths=(4,))]
    assert a == b
