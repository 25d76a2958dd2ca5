"""Replay guess streams against test sets; record, export and load crack curves."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

from .errors import OmenError


def check_checkpoints(checkpoints) -> tuple[int, ...]:
    """checkpoints as ints; ValueError unless they are non-empty, each >= 1
    and strictly ascending."""
    cps = tuple(int(c) for c in checkpoints)
    if not cps or cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be non-empty, >= 1 and strictly ascending")
    return cps


@dataclass(frozen=True)
class CrackCurve:
    checkpoints: tuple[int, ...]
    fractions: tuple[float, ...]

    def __post_init__(self):
        if len(self.checkpoints) != len(self.fractions):
            raise ValueError("checkpoints and fractions must be equally sized")
        check_checkpoints(self.checkpoints)
        if any(not 0.0 <= f <= 1.0 for f in self.fractions):
            raise ValueError("fractions must lie in [0, 1]")
        if any(b < a for a, b in zip(self.fractions, self.fractions[1:])):
            raise ValueError("fractions must be non-decreasing")


class TestSetOracle:
    """Feedback callable over a plaintext test multiset.

    Each call reports how many remaining occurrences the guess cracked and
    removes them, so a repeated guess cannot double-count.
    """

    __test__ = False  # not a test class despite the name

    def __init__(self, passwords, unique: bool = False):
        items = list(passwords)
        self.remaining = Counter(set(items) if unique else items)
        self.total = sum(self.remaining.values())
        self.cracked = 0

    def __call__(self, guess: str) -> int:
        hit = self.remaining.pop(guess, 0)
        self.cracked += hit
        return hit

    @property
    def fraction(self) -> float:
        return self.cracked / self.total if self.total else 0.0


def _guess_text(item) -> str:
    return item.text if hasattr(item, "text") else item


def crack_curve(stream, test_set, checkpoints, unique: bool = False) -> CrackCurve:
    """Cracked fraction of the test set after the first c guesses, per checkpoint.

    The test set is a multiset: a matching guess cracks every remaining
    occurrence at once (pass unique=True to collapse duplicates first). A
    stream that ends early carries its final fraction through the remaining
    checkpoints.
    """
    cps = check_checkpoints(checkpoints)
    oracle = TestSetOracle(test_set, unique)
    if oracle.total == 0:
        raise ValueError("empty test set")

    fractions: list[float] = []
    seen = 0
    nxt = 0
    for item in stream:
        oracle(_guess_text(item))
        seen += 1
        if seen == cps[nxt]:
            fractions.append(oracle.fraction)
            nxt += 1
            if nxt == len(cps):
                break
    while len(fractions) < len(cps):
        fractions.append(oracle.fraction)
    return CrackCurve(cps, tuple(fractions))


def format_curve(curve: CrackCurve) -> str:
    """The curve as "guesses,fraction" CSV text with LF line ends; repr keeps
    fractions exact on reload."""
    rows = [f"{cp},{frac!r}\n" for cp, frac in zip(curve.checkpoints, curve.fractions)]
    return "guesses,fraction\n" + "".join(rows)


def export_curve(curve: CrackCurve, path) -> None:
    """Write the curve to path as format_curve's CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_curve(curve))


def load_curve(path) -> CrackCurve:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows or rows[0] != ["guesses", "fraction"]:
        raise OmenError(f"{path}: not a curve file (expected guesses,fraction header)")
    cps = []
    fracs = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            cps.append(int(row[0]))
            fracs.append(float(row[1]))
        except (IndexError, ValueError):
            raise OmenError(f"{path}: bad curve row at line {i}") from None
    try:
        return CrackCurve(tuple(cps), tuple(fracs))
    except ValueError as exc:
        raise OmenError(f"{path}: {exc}") from None
