"""Similarity between passwords and personal attributes.

jaccard3 is deliberately asymmetric: it divides the 3-gram overlap by the
password's gram count only, so padding the hint with unrelated text cannot
wash out a real match. All gram extraction lowercases first and uses no
boundary padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import ATTRIBUTE_NAMES, HintRecord

MAX_ATTRIBUTE = "max"


def lcss(a: str, b: str) -> tuple[int, str]:
    """Longest common contiguous substring; ties pick the earliest start in a."""
    best_len = 0
    best_end = 0
    prev = [0] * (len(b) + 1)
    for i, ca in enumerate(a, start=1):
        cur = [0] * (len(b) + 1)
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                run = prev[j - 1] + 1
                cur[j] = run
                if run > best_len:
                    best_len = run
                    best_end = i
        prev = cur
    return best_len, a[best_end - best_len : best_end]


def ngram_set(text: str, n: int = 3) -> set[str]:
    """Distinct n-grams of the lowercased text; empty when shorter than n."""
    low = text.lower()
    return {low[i : i + n] for i in range(len(low) - n + 1)}


def jaccard3(p: str, h: str) -> float:
    """|P3g ∩ H3g| / |P3g| over lowercased 3-gram sets; 0 when |p| < 3."""
    pg = ngram_set(p)
    if not pg:
        return 0.0
    return len(pg & ngram_set(h)) / len(pg)


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


@dataclass(frozen=True)
class SimilarityRow:
    attribute: str
    mean_js: float
    js5: float
    mean_lcss: float
    lcss5: float
    mean_len: float


def _top_mean(values: list[float], fraction: float = 0.05) -> float:
    """Mean of the ceil(fraction*n) largest values; ties keep earlier records."""
    k = math.ceil(fraction * len(values))
    top = sorted(range(len(values)), key=lambda i: (-values[i], i))[:k]
    return sum(values[i] for i in top) / k


def attribute_stats(records: list[HintRecord]) -> list[SimilarityRow]:
    """Per-attribute similarity summary over the records that carry it.

    A record scores an attribute as the maximum over that attribute's values
    (jaccard3 and LCSS length separately); mean_len is the mean total
    character count of the attribute's values. Attributes no record carries
    get no row.
    """
    if not records:
        raise ValueError("no records")
    rows = []
    for attr in ATTRIBUTE_NAMES:
        js_scores: list[float] = []
        lcss_scores: list[float] = []
        lens: list[int] = []
        for rec in records:
            values = rec.attributes.get(attr)
            if not values:
                continue
            pw = rec.password.lower()
            js_scores.append(max(jaccard3(rec.password, v) for v in values))
            lcss_scores.append(float(max(lcss(pw, v.lower())[0] for v in values)))
            lens.append(sum(len(v) for v in values))
        if not js_scores:
            continue
        count = len(js_scores)
        rows.append(
            SimilarityRow(
                attribute=attr,
                mean_js=sum(js_scores) / count,
                js5=_top_mean(js_scores),
                mean_lcss=sum(lcss_scores) / count,
                lcss5=_top_mean(lcss_scores),
                mean_len=sum(lens) / count,
            )
        )
    return rows


def cdf_similarity(records: list[HintRecord], attribute: str = MAX_ATTRIBUTE) -> list[tuple[float, float]]:
    """Empirical CDF of per-record jaccard3 scores as (value, fraction <= value).

    attribute selects one attribute's values; "max" scores each record by its
    best value across every attribute. Records without usable values score 0.
    """
    if not records:
        raise ValueError("no records")
    if attribute != MAX_ATTRIBUTE and attribute not in ATTRIBUTE_NAMES:
        raise ValueError(f"unknown attribute {attribute!r}")
    scores = []
    for rec in records:
        if attribute == MAX_ATTRIBUTE:
            values = [v for vs in rec.attributes.values() for v in vs]
        else:
            values = rec.attributes.get(attribute) or []
        scores.append(max((jaccard3(rec.password, v) for v in values), default=0.0))
    scores.sort()
    n = len(scores)
    points = []
    for i, v in enumerate(scores, start=1):
        if i == n or scores[i] != v:
            points.append((v, i / n))
    return points


def policy_check(username: str, password: str, min_edit_distance: int = 2,
                 js_threshold: float = 0.5) -> str:
    """Verdict on a username/password pair: identical, too-similar, or ok.

    min_edit_distance must be >= 0 and js_threshold in [0, 1]; anything
    else (a NaN among them) would switch a rule off or make it always fire,
    so it is refused."""
    if min_edit_distance < 0:
        raise ValueError(f"min_edit_distance must be >= 0, got {min_edit_distance}")
    if not 0 <= js_threshold <= 1:  # a NaN fails every comparison
        raise ValueError(f"js_threshold must be in [0, 1], got {js_threshold}")
    u = username.lower()
    p = password.lower()
    if u == p:
        return "identical"
    if levenshtein(u, p) < min_edit_distance or jaccard3(password, username) >= js_threshold:
        return "too-similar"
    return "ok"
