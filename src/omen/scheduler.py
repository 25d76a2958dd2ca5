"""Adaptive length scheduling for guess generation.

One schedule entry per password length carries the success probability sp of
its most recent batch. The loop always pops the entry with the highest sp,
runs that length's next (one lower) level, measures the new sp, and puts the
entry back until the length bottoms out. Success is reported by a feedback
callable: it receives each guess before the stream yields it and returns how
many targets it cracked (evaluation mode passes a test-set oracle, attack mode
a hash checker; pass None for a constant 0, which degrades to a fixed
deterministic order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .enumerator import enum_pwd

DEFAULT_LENGTHS = range(3, 21)

Feedback = Callable[[str], int]


class Guess(NamedTuple):
    text: str
    level: int
    length: int


@dataclass
class ScheduleEntry:
    sp: float
    level: int
    length: int


@dataclass
class ScheduleState:
    entries: list[ScheduleEntry] = field(default_factory=list)
    guesses_made: int = 0
    cracked: int = 0


def _zero_feedback(_guess: str) -> int:
    return 0


def _sort_entries(entries: list[ScheduleEntry]) -> None:
    # highest sp first; ties go to the smaller length
    entries.sort(key=lambda e: (-e.sp, e.length))


def _min_total_level(model, length: int) -> int:
    return -(model.L - 1) * (length - (model.n - 2))


def _usable_lengths(model, lengths) -> list[int]:
    if lengths is None:
        lengths = DEFAULT_LENGTHS
    floor = max(3, model.n - 1)
    out = sorted({int(x) for x in lengths})
    if not out:
        raise ValueError("no lengths given")
    if out[0] < floor:
        raise ValueError(f"lengths must be >= {floor}, got {out[0]}")
    return out


def _run_cell(state: ScheduleState, model, level: int, length: int,
              feedback: Feedback) -> Iterator[Guess]:
    """Enumerate one (length, level) cell, scoring each guess before yielding it.

    Once the cell is exhausted its entry goes into the schedule with sp =
    cracked/generated for the cell (0 when it was empty), and the state's
    totals grow by the cell's.
    """
    generated = 0
    hit = 0
    for generated, text in enumerate(enum_pwd(model, level, length), 1):
        hit += feedback(text)
        yield Guess(text, level, length)
    sp = hit / generated if generated else 0.0
    state.entries.append(ScheduleEntry(sp, level, length))
    state.guesses_made += generated
    state.cracked += hit
    _sort_entries(state.entries)


def _next_cell(state: ScheduleState, model, feedback: Feedback) -> Iterator[Guess]:
    """Pop the best entry and run its next level; an entry already at its
    length's minimum level is dropped instead."""
    head = state.entries.pop(0)
    nxt = head.level - 1
    if nxt >= _min_total_level(model, head.length):
        yield from _run_cell(state, model, nxt, head.length, feedback)


def schedule_init(model, lengths=None, feedback: Feedback | None = None) -> ScheduleState:
    """Run level 0 for every length and build the initial schedule."""
    feedback = feedback or _zero_feedback
    state = ScheduleState()
    for ell in _usable_lengths(model, lengths):
        deque(_run_cell(state, model, 0, ell, feedback), maxlen=0)
    return state


def next_step(state: ScheduleState, model, feedback: Feedback | None = None) -> ScheduleState:
    """Pop the best entry, run its next level, reinsert with the measured sp.

    An entry already at its length's minimum level is dropped instead; the
    state is mutated in place and returned.
    """
    if not state.entries:
        raise ValueError("schedule is empty")
    deque(_next_cell(state, model, feedback or _zero_feedback), maxlen=0)
    return state


def guess_stream(model, budget: int, feedback: Feedback | None = None,
                 lengths=None) -> Iterator[Guess]:
    """Lazy stream of at most ``budget`` guesses in schedule order.

    Yields (text, level, length) triples. The per-length level sequence is
    0, -1, -2, ... with no repeats; the interleaving of lengths follows the
    measured success probabilities.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    use = _usable_lengths(model, lengths)
    return islice(_stream(model, feedback or _zero_feedback, use), int(budget))


def _stream(model, feedback, lengths):
    state = ScheduleState()
    for ell in lengths:
        yield from _run_cell(state, model, 0, ell, feedback)
    while state.entries:
        yield from _next_cell(state, model, feedback)
