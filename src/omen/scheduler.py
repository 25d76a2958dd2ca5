"""Adaptive length scheduling for guess generation, as in OMEN (Dürmuth et
al., ESSoS 2015).

Level 0 runs first for every length, shortest first. After that, the length
whose most recent (length, level) cell had the highest success probability
sp = cracked / generated runs its next lower level; ties go to the shorter
length, and a length drops out once its lowest level has run. Success is
reported by a feedback callable: it receives each guess before the stream
yields it and returns how many targets it cracked (evaluation mode passes a
test-set oracle, attack mode a hash checker). With no feedback every sp is
0, so each length runs down to its lowest level before the next one starts.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .corpus import DEFAULT_MAX_LENGTH, DEFAULT_MIN_LENGTH
from .enumerator import enum_pwd, lowest_level, shortest_length

Feedback = Callable[[str], int]


class Guess(NamedTuple):
    text: str
    level: int
    length: int


def guess_stream(model, budget: int, feedback: Feedback | None = None,
                 lengths=None) -> Iterator[Guess]:
    """Lazy stream of at most ``budget`` guesses in schedule order.

    Yields (text, level, length) triples. The per-length level sequence is
    0, -1, -2, ... with no repeats; the interleaving of lengths follows the
    measured success probabilities. The default lengths are the corpus
    length range from the model's shortest length on.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    use = sorted({int(x) for x in (stream_lengths(model) if lengths is None else lengths)})
    if not use:
        raise ValueError(f"no length to guess; the model's shortest is {shortest_length(model)}")
    lowest = {ell: lowest_level(model, ell) for ell in use}
    return islice(_stream(model, feedback, lowest), int(budget))


def stream_lengths(model, min_len: int = DEFAULT_MIN_LENGTH,
                   max_len: int = DEFAULT_MAX_LENGTH) -> range:
    """The lengths in [min_len, max_len] that the model can enumerate."""
    return range(max(min_len, shortest_length(model)), max_len + 1)


def _stream(model, feedback: Feedback | None, lowest: dict[int, int]) -> Iterator[Guess]:
    # One entry (-sp, length, level of the last cell) per length still in
    # play. A length that has not run yet enters at sp = inf and level 1, so
    # level 0 runs for every length, shortest first, before any level -1;
    # lengths are unique, so the heap breaks sp ties by the shorter length.
    heap = [(float("-inf"), ell, 1) for ell in lowest]
    while heap:
        _, ell, level = heap[0]
        level -= 1
        generated = hits = 0
        for generated, text in enumerate(enum_pwd(model, level, ell), 1):
            if feedback is not None:
                hits += feedback(text)
            yield Guess(text, level, ell)
        if level > lowest[ell]:
            sp = hits / generated if generated else 0.0
            heapq.heapreplace(heap, (-sp, ell, level))
        else:
            heapq.heappop(heap)
