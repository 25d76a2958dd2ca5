import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omen import (
    HintRecord,
    attribute_stats,
    cdf_similarity,
    jaccard3,
    lcss,
    levenshtein,
    policy_check,
)
from omen.similarity import ngram_set

short_text = st.text(alphabet="abcx", max_size=8)


# --- lcss ---------------------------------------------------------------


def test_lcss_reference_cases():
    assert lcss("password", "word") == (4, "word")
    assert lcss("abcdef", "zabcq") == (3, "abc")
    assert lcss("abc", "xyz") == (0, "")
    assert lcss("", "abc") == (0, "")
    assert lcss("same", "same") == (4, "same")


def test_lcss_tie_takes_earliest_in_first_argument():
    # both "ab" and "cd" are common; "ab" starts earlier in a
    assert lcss("xxabyycd", "cdzzab") == (2, "ab")


def test_lcss_is_case_sensitive():
    assert lcss("ABC", "abc")[0] == 0


def brute_lcss_len(a: str, b: str) -> int:
    best = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            if a[i:j] in b:
                best = max(best, j - i)
    return best


@given(short_text, short_text)
@settings(max_examples=200, deadline=None)
def test_lcss_matches_brute_force(a, b):
    length, sub = lcss(a, b)
    assert length == brute_lcss_len(a, b)
    assert len(sub) == length
    assert sub in a and (sub in b or length == 0)
    assert lcss(b, a)[0] == length


# --- 3-gram similarity ----------------------------------------------------


def test_ngram_set_basics():
    assert ngram_set("Password") == {"pas", "ass", "ssw", "swo", "wor", "ord"}
    assert ngram_set("ab") == set()
    assert ngram_set("aaa") == {"aaa"}


def test_jaccard3_reference_cases():
    assert jaccard3("password", "word") == pytest.approx(2 / 6)
    assert jaccard3("password", "PASSWORD") == 1.0
    assert jaccard3("ab", "abcdef") == 0.0
    assert jaccard3("abcdef", "zzzzzz") == 0.0


def test_jaccard3_divides_by_password_grams_only():
    # padding the hint side cannot dilute the score
    base = jaccard3("abcd", "abcd")
    assert jaccard3("abcd", "abcd" + "xyq" * 50) == base == 1.0


@given(short_text, short_text, short_text)
@settings(max_examples=200, deadline=None)
def test_jaccard3_never_drops_when_hint_grows(p, h, extra):
    assert jaccard3(p, h + extra) >= jaccard3(p, h)
    assert 0.0 <= jaccard3(p, h) <= 1.0


# --- levenshtein ------------------------------------------------------------


def test_levenshtein_reference_cases():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "ab") == 1
    assert levenshtein("", "xyz") == 3


@given(short_text, short_text)
@settings(max_examples=150, deadline=None)
def test_levenshtein_metric_properties(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert (d == 0) == (a == b)
    assert d <= max(len(a), len(b))
    assert d >= abs(len(a) - len(b))


# --- attribute statistics ---------------------------------------------------


def make_records():
    return [
        HintRecord("annmarie99", {"firstName": ["Annmarie"], "location": ["Oslo"]}),
        HintRecord("qwerty", {"firstName": ["Bob"]}),
        HintRecord("zzzzzz", {"firstName": ["Cara"], "location": ["Lima"]}),
        HintRecord("nohints", {}),
    ]


def test_attribute_stats_by_hand():
    rows = {r.attribute: r for r in attribute_stats(make_records())}
    assert set(rows) == {"firstName", "location"}
    fn = rows["firstName"]
    # jaccard3(annmarie99, annmarie) = 6/8; the other two score 0
    assert fn.mean_js == pytest.approx((6 / 8) / 3)
    assert fn.js5 == pytest.approx(6 / 8)  # top 5% of 3 records = 1 record
    # lcss: annmarie (8), 0, 0
    assert fn.mean_lcss == pytest.approx(8 / 3)
    assert fn.lcss5 == pytest.approx(8.0)
    assert fn.mean_len == pytest.approx((8 + 3 + 4) / 3)
    assert rows["location"].mean_len == pytest.approx(4.0)


def test_attribute_stats_takes_best_value_per_record():
    rec = HintRecord("abcdef", {"friends": ["zzz", "abcdef", "abq"]})
    row = attribute_stats([rec])[0]
    assert row.mean_js == 1.0
    assert row.mean_lcss == 6.0
    assert row.mean_len == 12.0  # total characters across values


def test_attribute_stats_empty_input():
    with pytest.raises(ValueError):
        attribute_stats([])


def test_attribute_order_is_stable():
    rows = attribute_stats(make_records())
    assert [r.attribute for r in rows] == ["firstName", "location"]


# --- similarity CDF ----------------------------------------------------------


def test_cdf_similarity_by_hand():
    records = [
        HintRecord("abcd", {"firstName": ["abcd"]}),     # 1.0
        HintRecord("wxyz", {"firstName": ["wxy"]}),      # 1/2
        HintRecord("wxyz", {"firstName": ["wxy0"]}),     # 1/2
        HintRecord("mnop", {"firstName": ["qqqq"]}),     # 0.0
    ]
    points = cdf_similarity(records, "firstName")
    assert points == [(0.0, 0.25), (0.5, 0.75), (1.0, 1.0)]


def test_cdf_scores_every_record():
    records = [
        HintRecord("abcd", {"firstName": ["abcd"]}),
        HintRecord("wxyz", {}),  # no attribute -> scores 0
    ]
    points = cdf_similarity(records, "firstName")
    assert points == [(0.0, 0.5), (1.0, 1.0)]


def test_cdf_max_mode_dominates_single_attributes():
    records = [
        HintRecord("abcdef", {"firstName": ["abc"], "location": ["abcdef"]}),
        HintRecord("uvwxyz", {"firstName": ["uvwxyz"], "location": ["no"]}),
        HintRecord("pppppp", {"firstName": ["x"], "location": ["pppp"]}),
    ]

    def cdf_at(points, x):
        out = 0.0
        for v, frac in points:
            if v <= x:
                out = frac
        return out

    best = cdf_similarity(records, "max")
    for attr in ("firstName", "location"):
        single = cdf_similarity(records, attr)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert cdf_at(best, x) <= cdf_at(single, x) + 1e-12


def test_cdf_rejects_unknown_attribute():
    with pytest.raises(ValueError):
        cdf_similarity([HintRecord("x", {})], "petName")
    with pytest.raises(ValueError):
        cdf_similarity([], "max")


def test_cdf_is_a_valid_cdf():
    records = make_records()
    points = cdf_similarity(records, "max")
    values = [v for v, _ in points]
    fracs = [f for _, f in points]
    assert values == sorted(values)
    assert fracs == sorted(fracs)
    assert fracs[-1] == pytest.approx(1.0)


# --- password policy ----------------------------------------------------------


@pytest.mark.parametrize("username,password,verdict", [
    ("ann", "ann", "identical"),
    ("Ann", "ann", "identical"),
    ("bob", "bob1", "too-similar"),        # edit distance 1 < 2
    ("bob", "b0b", "too-similar"),         # substitution, distance 1
    ("annmarie", "annmariexy", "too-similar"),  # shared grams >= 0.5
    ("xavier", "kwq92mzp", "ok"),
    ("jo", "dragonfly", "ok"),
])
def test_policy_check_verdicts(username, password, verdict):
    assert policy_check(username, password) == verdict


def test_policy_check_thresholds_are_tunable():
    assert policy_check("bob", "bob12", min_edit_distance=3) == "too-similar"
    assert policy_check("bob", "bob12", min_edit_distance=2) == "ok"
    assert policy_check("annmarie", "annmariexy", js_threshold=0.9) == "ok"


@pytest.mark.parametrize("kwargs", [
    dict(js_threshold=math.nan), dict(js_threshold=math.inf), dict(js_threshold=-0.1),
    dict(js_threshold=1.5), dict(min_edit_distance=-1),
])
def test_policy_check_refuses_meaningless_thresholds(kwargs):
    with pytest.raises(ValueError):
        policy_check("annmarie", "annmarie99", **kwargs)
