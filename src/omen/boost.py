"""Per-target boosting: raise hint-gram probabilities (and levels) by alpha.

Two domains, used at different times. Estimation works in the probability
domain, on the closed form p_old * alpha^s * prod(1 - alpha*p_hat) over the
password's gram occurrences. Its alpha-free terms (p_old and, in gram order,
an S mark or the context's p_hat for each S or T occurrence) are built once
per record; one sweep over a grid then prices the record at every alpha,
so objective_S and estimate_alpha never touch the model per alpha.
Guessing works in the level domain: plus_stream adds round(ln alpha) to
hint-gram levels (clamped to 0) and runs the ordinary scheduler, since at
attack time the password, and with it the S/T split, is unknown. A boosted
model is an ordinary NgramModel whose conditional tables differ from the
base's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ATTRIBUTE_NAMES, HintRecord, read_text
from .errors import OmenError, ScoringError
from .model import NgramModel, password_probability
from .scheduler import guess_stream
from .similarity import ngram_set

logger = logging.getLogger(__name__)

ALPHA_CAP = 5.0
DEFAULT_GUESS_EXPONENT = -1.5
# attribute never boosted: usernames duplicate its useful part
EXCLUDED_ATTRIBUTES = frozenset({"email"})
_FACTOR_FLOOR = 1e-12


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")


def check_exponent(b: float) -> None:
    """The guess-curve exponent rule: b is finite and negative."""
    if not (math.isfinite(b) and b < 0.0):
        raise ValueError(f"exponent b must be finite and negative, got {b}")


def check_alpha_grid(grid) -> list[float]:
    """The alpha grid rule: every entry finite and within [1, cap], and 1
    among them, so the unboosted baseline is always a candidate. Returns
    the grid sorted, without repeats."""
    grid = [float(a) for a in grid]
    if not all(map(math.isfinite, grid)):
        raise ValueError("alpha grid entries must be finite")
    grid = sorted(set(grid))
    if not grid or grid[0] < 1.0 or grid[-1] > ALPHA_CAP:
        raise ValueError(f"alpha grid must lie within [1, {ALPHA_CAP}]")
    if not any(abs(a - 1.0) < 1e-12 for a in grid):
        raise ValueError("alpha grid must include 1")
    return grid


def boost_level_for(alpha: float, L: int) -> int:
    """Integer level bonus for a multiplier: round(ln alpha) clamped to [0, L-1]."""
    return max(0, min(L - 1, round(math.log(alpha))))


class BoostProfile:
    """Per-attribute multipliers with their level-domain equivalents."""

    def __init__(self, L: int = 10):
        self.L = L
        self._entries: dict[str, tuple[float, int]] = {}

    def set(self, attribute: str, alpha: float) -> None:
        if attribute not in ATTRIBUTE_NAMES:
            raise ValueError(f"unknown attribute {attribute!r}")
        if not 1.0 <= alpha <= ALPHA_CAP:
            raise ValueError(f"alpha must be in [1, {ALPHA_CAP}], got {alpha}")
        self._entries[attribute] = (alpha, boost_level_for(alpha, self.L))

    def alpha(self, attribute: str) -> float:
        return self._entries.get(attribute, (1.0, 0))[0]

    def boost_level(self, attribute: str) -> int:
        return self._entries.get(attribute, (1.0, 0))[1]

    def items(self):
        return self._entries.items()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("attribute,alpha,boostLevel\n")
            for attr, (alpha, blevel) in sorted(self._entries.items()):
                fh.write(f"{attr},{alpha!r},{blevel}\n")

    @classmethod
    def load(cls, path, L: int = 10) -> "BoostProfile":
        profile = cls(L)
        with read_text(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line == "attribute,alpha,boostLevel":
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise OmenError(f"profile line {line_no}: expected attribute,alpha,boostLevel")
                attr, alpha_s, blevel_s = parts
                if attr in profile._entries:
                    raise OmenError(f"profile line {line_no}: attribute {attr!r} repeated")
                try:
                    alpha = float(alpha_s)
                    blevel = int(blevel_s)
                except ValueError:
                    raise OmenError(f"profile line {line_no}: bad numbers") from None
                try:
                    profile.set(attr, alpha)
                except ValueError as exc:
                    raise OmenError(f"profile line {line_no}: {exc}") from None
                if profile.boost_level(attr) != blevel:
                    raise OmenError(
                        f"profile line {line_no}: boostLevel {blevel} does not match "
                        f"round(ln {alpha}) = {profile.boost_level(attr)}"
                    )
        return profile


@dataclass(frozen=True)
class BoostSets:
    """Password grams shared with the hint (S), near-missed by it (T), and
    the hint's full gram set (needed to compute boosted context mass)."""

    S: frozenset[str]
    T: frozenset[str]
    hint_grams: frozenset[str]


def derive_sets(pwd: str, hint: str, n: int = 3) -> BoostSets:
    """S/T split of the password's n-grams against one hint string."""
    return derive_sets_multi(pwd, [hint], n)


def derive_sets_multi(pwd: str, hints, n: int = 3) -> BoostSets:
    """S/T split against the union of several hint strings, case-folded.

    S: password grams that appear in some hint. T: remaining password grams
    whose (n-1)-character context appears in a hint with a different last
    character. S and T are disjoint by construction.
    """
    hint_grams: set[str] = set()
    for h in hints:
        hint_grams |= ngram_set(h, n)
    pwd_grams = ngram_set(pwd, n)
    contexts = {g[: n - 1] for g in hint_grams}
    s = pwd_grams & hint_grams
    t = {g for g in pwd_grams - s if g[: n - 1] in contexts}
    return BoostSets(frozenset(s), frozenset(t), frozenset(hint_grams))


def _gram_rank(model, gram: str) -> int | None:
    """Rank of an n-gram over the model's alphabet, None when not representable."""
    if len(gram) != model.n:
        raise ValueError(f"gram {gram!r} does not have {model.n} characters")
    if not model.alphabet.accepts(gram):
        return None
    return model.alphabet.rank(gram)


def _grams_by_context(model, grams) -> dict[int, list[int]]:
    """Map alphabet-representable grams to (context rank, char ranks) groups.

    Char ranks ascend within a group, so sums over a group do not depend on
    the iteration order of a set of grams (that is, on the hash seed).
    """
    sigma = model.alphabet.size
    by_ctx: dict[int, list[int]] = {}
    ranks = (_gram_rank(model, g) for g in grams)
    for rank in sorted(r for r in ranks if r is not None):
        by_ctx.setdefault(rank // sigma, []).append(rank % sigma)
    return by_ctx


def _raised_levels(model, bonus: dict[str, int]) -> np.ndarray:
    """A copy of the model's conditional levels in which each representable
    gram in bonus is raised by its own bonus, clamped to 0."""
    levels = model.cond_level.copy()
    flat = levels.reshape(-1)
    for g, b in bonus.items():
        rank = _gram_rank(model, g)
        if rank is not None:
            flat[rank] = min(0, int(flat[rank]) + b)
    return levels


def _with_conditionals(model, cond_prob: np.ndarray, cond_level: np.ndarray) -> NgramModel:
    """The model with its conditional tables replaced, unvalidated: a boosted
    row sums to 1 - p_hat*(1 - alpha*p_hat), not 1, so load_model refuses
    the file that save_model writes of it."""
    return NgramModel(model.alphabet, model.n, model.L, model.init_prob, cond_prob,
                      model.init_level, cond_level, validate=False)


def boost_conditionals(model, hint_grams, alpha: float) -> NgramModel:
    """Boosted model: hint grams get alpha times their probability.

    Other characters in a touched context are scaled by (1 - alpha*p_hat)
    where p_hat is the context's total boosted mass, leaving the row summing
    to 1 - p_hat*(1 - alpha*p_hat), the paper's formula. If alpha*p_hat
    reaches 1, boosted grams share the whole row proportionally and the rest
    drop to 0. Levels of boosted grams rise by round(ln alpha), clamped to
    0. Untouched rows keep the base model's values.
    """
    _check_alpha(alpha)
    hint_grams = list(hint_grams)
    bonus = boost_level_for(alpha, model.L)
    cond_prob = model.cond_prob.copy()
    for ctx, chars in _grams_by_context(model, hint_grams).items():
        base_prob = model.cond_prob[ctx]
        p_hat = float(base_prob[chars].sum())
        prob = cond_prob[ctx]
        if alpha == 1.0:
            pass  # multiplying by 1 moves no mass; the row stays as it is
        elif alpha * p_hat >= 1.0:
            prob[:] = 0.0
            if p_hat > 0:
                prob[chars] = base_prob[chars] / p_hat
        else:
            prob *= 1.0 - alpha * p_hat
            prob[chars] = alpha * base_prob[chars]
    return _with_conditionals(model, cond_prob,
                              _raised_levels(model, dict.fromkeys(hint_grams, bonus)))


def _record_terms(model, sets: BoostSets, pwd: str) -> tuple[float, list]:
    """The alpha-free terms of one password's closed form.

    Returns p_old and, in gram order, None for each occurrence of a gram in
    S and (context, p_hat) for each occurrence of a gram in T, p_hat being
    the base mass of the hint grams that share the context.
    """
    p_old = password_probability(model, pwd)
    n = model.n
    folded = pwd.lower()
    hint_by_ctx = None
    phat_cache: dict[str, float] = {}
    terms: list = []
    for i in range(len(folded) - n + 1):
        g = folded[i : i + n]
        if g in sets.S:
            terms.append(None)
        elif g in sets.T:
            ctx_str = g[: n - 1]
            p_hat = phat_cache.get(ctx_str)
            if p_hat is None:
                p_hat = 0.0
                if model.alphabet.accepts(ctx_str):
                    if hint_by_ctx is None:
                        hint_by_ctx = _grams_by_context(model, sets.hint_grams)
                    ctx = model.alphabet.rank(ctx_str)
                    p_hat = sum(float(model.cond_prob[ctx, z])
                                for z in hint_by_ctx.get(ctx, ()))
                phat_cache[ctx_str] = p_hat
            terms.append((ctx_str, p_hat))
    return p_old, terms


def _boosted_over_grid(p_old: float, terms: list, alphas: list[float]) -> list[float]:
    """The boosted probability at every alpha of the grid.

    Each grid point sees the same float operations, in the same order, as a
    scalar walk: factor starts at 1 and is multiplied by alpha for S and by
    1 - alpha*p_hat for T, a non-positive T factor being clamped to a tiny
    floor (logged once per context). The alpha = 1 slot is p_old itself.
    Plain float lists rather than NumPy arrays: at grid sizes of tens they
    are as fast, and they fault in none of NumPy's code pages, which count
    in peak RSS.
    """
    factor = [1.0] * len(alphas)
    clamped: set[str] = set()
    for term in terms:
        if term is None:
            factor = [f * a for f, a in zip(factor, alphas)]
            continue
        ctx_str, p_hat = term
        t_factors = [1.0 - a * p_hat for a in alphas]
        low = [a for a, t in zip(alphas, t_factors) if t < _FACTOR_FLOOR and a != 1.0]
        if low and ctx_str not in clamped:
            clamped.add(ctx_str)
            logger.warning("boost factor for context %r clamped for alpha >= %g "
                           "(alpha*p_hat up to %.4f)", ctx_str, min(low), max(low) * p_hat)
        factor = [f * (_FACTOR_FLOOR if t < _FACTOR_FLOOR else t)
                  for f, t in zip(factor, t_factors)]
    return [p_old if a == 1.0 else p_old * f for a, f in zip(alphas, factor)]


def boosted_probability(model, sets: BoostSets, alpha: float, pwd: str) -> float:
    """Closed-form boosted probability of one password against the base model.

    Walks the password's gram occurrences: a gram in S contributes a factor
    alpha, a gram in T contributes (1 - alpha*p_hat) with p_hat the boosted
    mass of its context, anything else contributes 1. A non-positive T factor
    is clamped to a tiny floor and logged once per context. alpha=1 means no
    boost at all, so the unboosted probability comes back unchanged whatever
    the sets hold.
    """
    _check_alpha(alpha)
    p_old, terms = _record_terms(model, sets, pwd)
    return _boosted_over_grid(p_old, terms, [float(alpha)])[0]


def fit_guess_curve(model, sample_count: int = 10_000) -> float:
    """Exponent b in guess_index ~ probability**b, fitted on a real stream.

    Enumerates sample_count guesses, then least-squares fits log(index)
    against log(probability). The stream runs without feedback, so it
    drains the shortest length before the next: over 72 characters all
    10,000 sampled guesses have length 3, and over 20 characters 8,000 do
    (ROADMAP.md's OMEN+ item gives the no-feedback stream a level prior).
    Falls back to the default -1.5 (with a warning) when the sample is
    degenerate.
    """
    if sample_count < 1000:
        raise ValueError(f"sample_count must be >= 1000, got {sample_count}")
    probs = []
    for guess in guess_stream(model, budget=sample_count):
        probs.append(password_probability(model, guess.text))
    x = np.array(probs)
    keep = x > 0
    if keep.sum() < 2 or float(np.ptp(np.log(x[keep]))) < 1e-9:
        logger.warning("degenerate probability sample; falling back to exponent %.1f",
                       DEFAULT_GUESS_EXPONENT)
        return DEFAULT_GUESS_EXPONENT
    y = np.arange(1, len(probs) + 1, dtype=np.float64)[keep]
    slope, _ = np.polyfit(np.log(x[keep]), np.log(y), 1)
    return float(slope)


def _objective_values(records: list[HintRecord], attribute: str, model, alphas,
                      b: float) -> list[float]:
    """objective_S at every alpha of a grid, from one pass over the records.

    Each record's terms are built once; its boosted probability at every
    alpha is raised to b and summed into one accumulator per alpha, in
    record order, so memory stays O(grid) whatever the record count. A
    record unscoreable at some alpha is skipped there and counted once in
    the log line.
    """
    if not records:
        raise ValueError("no records")
    if attribute not in ATTRIBUTE_NAMES:
        raise ValueError(f"unknown attribute {attribute!r}")
    alphas = [float(a) for a in alphas]
    for a in alphas:
        _check_alpha(a)
    check_exponent(b)
    totals = [0.0] * len(alphas)
    scored = [0] * len(alphas)
    skipped = 0
    for rec in records:
        values = rec.attributes.get(attribute) or []
        try:
            sets = derive_sets_multi(rec.password, values, model.n)
            p_old, terms = _record_terms(model, sets, rec.password)
        except ScoringError:
            skipped += 1
            continue
        unscoreable = False
        for i, p in enumerate(_boosted_over_grid(p_old, terms, alphas)):
            if p <= 0.0:
                unscoreable = True
                continue
            totals[i] += p**b
            scored[i] += 1
        skipped += unscoreable
    if skipped:
        logger.info("objective skipped %d unscoreable record(s)", skipped)
    if not all(scored):
        raise ScoringError("no scoreable records")
    return [t / n for t, n in zip(totals, scored)]


def objective_S(records: list[HintRecord], attribute: str, alpha: float, model,
                b: float = DEFAULT_GUESS_EXPONENT) -> float:
    """Mean of boosted_probability**b over the records; smaller is better.

    Each record's S/T sets come from its own attribute values (records
    without the attribute contribute their baseline). Unscoreable passwords
    are skipped and counted. b must be finite and negative.
    """
    return _objective_values(records, attribute, model, [alpha], b)[0]


def default_alpha_grid(lo: float = 1.0, hi: float = ALPHA_CAP, step: float = 0.1) -> list[float]:
    """lo, lo + step, ... up to hi, never past it (1e-9 absorbs rounding)."""
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return [round(lo + i * step, 10) for i in range(count)]


def estimate_alpha(records: list[HintRecord], attribute: str, model, grid=None,
                   b: float = DEFAULT_GUESS_EXPONENT) -> tuple[float, int]:
    """Grid-search the multiplier that minimizes objective_S.

    Returns (alpha_star, boost_level); ties pick the smaller alpha. The grid
    must pass check_alpha_grid. The records are read once: each one's terms
    are built once and then priced at every grid point together, so the
    cost is one pass over the records whatever the grid size.
    """
    grid = check_alpha_grid(default_alpha_grid() if grid is None else grid)
    scores = _objective_values(records, attribute, model, grid, b)
    best = min(range(len(grid)), key=lambda i: (scores[i], grid[i]))
    alpha_star = grid[best]
    return alpha_star, boost_level_for(alpha_star, model.L)


def plus_stream(model, profile: BoostProfile, hints, budget: int,
                feedback=None, lengths=None):
    """Guess stream over per-target boosted levels.

    hints is one target's attribute map (or a HintRecord). Every n-gram of
    every value of an attribute with a positive boost level is raised by
    that level (the largest wins when attributes overlap); excluded and
    zero-level attributes change nothing. With nothing to boost the stream
    is exactly the plain one.
    """
    if isinstance(hints, HintRecord):
        hints = hints.attributes
    bonus: dict[str, int] = {}
    for attr, (_, blevel) in profile.items():
        if attr in EXCLUDED_ATTRIBUTES or blevel < 1:
            continue
        for value in hints.get(attr, []) or []:
            for g in ngram_set(value, model.n):
                if bonus.get(g, 0) < blevel:
                    bonus[g] = blevel
    if bonus:
        model = _with_conditionals(model, model.cond_prob, _raised_levels(model, bonus))
    return guess_stream(model, budget, feedback, lengths)
