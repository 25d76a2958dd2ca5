"""Per-target boosting: raise hint-gram probabilities (and levels) by alpha.

Two domains, used at different times. Estimation works in the probability
domain: boosted_probability applies the closed form p_old * alpha^s * (1-alpha*p_hat)^t
so objective_S can scan an alpha grid without touching the model. Guessing
works in the level domain: plus_stream adds round(ln alpha) to hint-gram
levels (clamped to 0) and runs the ordinary scheduler, since at attack time
the password, and with it the S/T split, is unknown. A boosted model is an
ordinary NgramModel whose conditional tables differ from the base's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ATTRIBUTE_NAMES, HintRecord
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


def boost_level_for(alpha: float, L: int) -> int:
    """Integer level bonus for a multiplier: round(ln alpha) clamped to [0, L-1]."""
    return max(0, min(L - 1, round(math.log(alpha))))


class BoostProfile:
    """Per-attribute multipliers with their level-domain equivalents."""

    def __init__(self, L: int = 10, alpha_cap: float = ALPHA_CAP):
        self.L = L
        self.alpha_cap = alpha_cap
        self._entries: dict[str, tuple[float, int]] = {}

    def set(self, attribute: str, alpha: float) -> None:
        if attribute not in ATTRIBUTE_NAMES:
            raise ValueError(f"unknown attribute {attribute!r}")
        if not 1.0 <= alpha <= self.alpha_cap:
            raise ValueError(f"alpha must be in [1, {self.alpha_cap}], got {alpha}")
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
    def load(cls, path, L: int = 10, alpha_cap: float = ALPHA_CAP) -> "BoostProfile":
        profile = cls(L, alpha_cap)
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line == "attribute,alpha,boostLevel":
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise OmenError(f"profile line {line_no}: expected attribute,alpha,boostLevel")
                attr, alpha_s, blevel_s = parts
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
    """The model with its conditional tables replaced; boosted rows are only
    approximately normalised, so they are not validated."""
    return NgramModel(model.alphabet, model.n, model.L, model.init_prob, cond_prob,
                      model.init_level, cond_level, delta=model.delta, validate=False)


def boost_conditionals(model, hint_grams, alpha: float, exact_renorm: bool = False) -> NgramModel:
    """Boosted model: hint grams get alpha times their probability.

    Other characters in a touched context are scaled by (1 - alpha*p_hat)
    where p_hat is the context's total boosted mass, leaving the row summing
    to approximately 1; exact_renorm divides by (1 - p_hat) instead so it
    sums to exactly 1. If alpha*p_hat reaches 1, boosted grams share the
    whole row proportionally and the rest drop to 0. Levels of boosted grams
    rise by round(ln alpha), clamped to 0. Untouched rows keep the base
    model's values.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
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
            if exact_renorm and p_hat < 1.0:
                prob *= (1.0 - alpha * p_hat) / (1.0 - p_hat)
            else:
                prob *= 1.0 - alpha * p_hat
            prob[chars] = alpha * base_prob[chars]
    return _with_conditionals(model, cond_prob,
                              _raised_levels(model, dict.fromkeys(hint_grams, bonus)))


def boosted_probability(model, sets: BoostSets, alpha: float, pwd: str) -> float:
    """Closed-form boosted probability of one password against the base model.

    Walks the password's gram occurrences: a gram in S contributes a factor
    alpha, a gram in T contributes (1 - alpha*p_hat) with p_hat the boosted
    mass of its context, anything else contributes 1. A non-positive T factor
    is clamped to a tiny floor and logged. alpha=1 means no boost at all, so
    the unboosted probability comes back unchanged whatever the sets hold.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    p_old = password_probability(model, pwd)
    if alpha == 1.0:
        return p_old
    n = model.n
    folded = pwd.lower()
    hint_by_ctx = _grams_by_context(model, sets.hint_grams)
    phat_cache: dict[str, float] = {}
    factor = 1.0
    for i in range(len(folded) - n + 1):
        g = folded[i : i + n]
        if g in sets.S:
            factor *= alpha
        elif g in sets.T:
            ctx_str = g[: n - 1]
            p_hat = phat_cache.get(ctx_str)
            if p_hat is None:
                p_hat = 0.0
                if model.alphabet.accepts(ctx_str):
                    ctx = model.context_rank(ctx_str)
                    p_hat = sum(float(model.cond_prob[ctx, z])
                                for z in hint_by_ctx.get(ctx, ()))
                phat_cache[ctx_str] = p_hat
            t_factor = 1.0 - alpha * p_hat
            if t_factor < _FACTOR_FLOOR:
                logger.warning("boost factor for context %r clamped (alpha*p_hat = %.4f)",
                               ctx_str, alpha * p_hat)
                t_factor = _FACTOR_FLOOR
            factor *= t_factor
    return p_old * factor


def fit_guess_curve(model, sample_count: int = 10_000) -> float:
    """Exponent b in guess_index ~ probability**b, fitted on a real stream.

    Enumerates sample_count guesses, then least-squares fits log(index)
    against log(probability). Falls back to the default -1.5 (with a
    warning) when the sample is degenerate.
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


def objective_S(records: list[HintRecord], attribute: str, alpha: float, model,
                b: float = DEFAULT_GUESS_EXPONENT) -> float:
    """Mean of boosted_probability**b over the records; smaller is better.

    Each record's S/T sets come from its own attribute values (records
    without the attribute contribute their baseline). Unscoreable passwords
    are skipped and counted.
    """
    if not records:
        raise ValueError("no records")
    if attribute not in ATTRIBUTE_NAMES:
        raise ValueError(f"unknown attribute {attribute!r}")
    total = 0.0
    scored = 0
    skipped = 0
    for rec in records:
        values = rec.attributes.get(attribute) or []
        try:
            sets = derive_sets_multi(rec.password, values, model.n)
            p = boosted_probability(model, sets, alpha, rec.password)
        except ScoringError:
            skipped += 1
            continue
        if p <= 0.0:
            skipped += 1
            continue
        total += p**b
        scored += 1
    if skipped:
        logger.info("objective skipped %d unscoreable record(s)", skipped)
    if not scored:
        raise ScoringError("no scoreable records")
    return total / scored


def default_alpha_grid(lo: float = 1.0, hi: float = ALPHA_CAP, step: float = 0.1) -> list[float]:
    """lo, lo + step, ... up to hi, never past it (1e-9 absorbs rounding)."""
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return [round(lo + i * step, 10) for i in range(count)]


def estimate_alpha(records: list[HintRecord], attribute: str, model, grid=None,
                   b: float = DEFAULT_GUESS_EXPONENT) -> tuple[float, int]:
    """Grid-search the multiplier that minimizes objective_S.

    Returns (alpha_star, boost_level); ties pick the smaller alpha. The grid
    must live in [1, cap] and contain 1 so the unboosted baseline is always a
    candidate.
    """
    grid = sorted(set(default_alpha_grid() if grid is None else (float(a) for a in grid)))
    if not grid or grid[0] < 1.0 or grid[-1] > ALPHA_CAP:
        raise ValueError(f"alpha grid must lie within [1, {ALPHA_CAP}]")
    if not any(abs(a - 1.0) < 1e-12 for a in grid):
        raise ValueError("alpha grid must include 1")
    scores = [objective_S(records, attribute, a, model, b) for a in grid]
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
