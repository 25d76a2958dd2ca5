"""Seeded input generation for the benchmark workloads.

The generators live here, not in the test suite, so that editing tests can
never shift a workload. Everything is a function of the seed: a Markov
vocabulary (a random first-order character chain), Zipf-weighted sampling
from it, and hint records. Files are written as bytes so the 2M-line
training corpus takes about a second to produce.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# omen's built-in 72-character alphabet, repeated here so that inputs do not
# depend on the program under test.
DEFAULT_CHARS = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "!@#$%^&*.-"
)
SMALL_CHARS = "abcdefghijklmnopqrst"  # the sigma=20 alphabet of the crack workload
LANGUAGE_SEED = 1304


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _chain(sigma: int, concentration: float):
    """Cumulative initial and transition distributions of a fixed random chain.

    The chain plays the part of the language users draw passwords from, so it
    does not depend on the workload seed: the seed picks the sample, not the
    language. A seeded language would change how deep each (length, level)
    cell is, and with it the work a workload does, from seed to seed.
    Transition rows are offset by their row index so one searchsorted over
    the flattened table samples every row at once.
    """
    g = np.random.default_rng([LANGUAGE_SEED, sigma])
    init = np.cumsum(g.dirichlet(np.full(sigma, 0.6)))
    trans = np.cumsum(g.dirichlet(np.full(sigma, concentration), size=sigma), axis=1)
    trans += np.arange(sigma)[:, None]
    return init, trans.ravel()


def markov_lines(g: np.random.Generator, chars: str, count: int, min_len: int,
                 max_len: int, concentration: float) -> bytes:
    """count newline-terminated words from a random first-order chain."""
    sigma = len(chars)
    init, trans = _chain(sigma, concentration)
    lengths = g.integers(min_len, max_len + 1, size=count)
    codes = np.empty((count, max_len), dtype=np.int64)
    state = np.minimum(np.searchsorted(init, g.random(count)), sigma - 1)
    codes[:, 0] = state
    for t in range(1, max_len):
        u = g.random(count)
        state = np.searchsorted(trans, state + u) - state * sigma
        state = np.clip(state, 0, sigma - 1)
        codes[:, t] = state
    table = np.frombuffer(chars.encode("ascii"), dtype=np.uint8)
    text = np.empty((count, max_len + 1), dtype=np.uint8)
    text[:, :max_len] = table[codes]
    text[np.arange(count), lengths] = ord("\n")
    keep = np.arange(max_len + 1)[None, :] <= lengths[:, None]
    return text[keep].tobytes()


def zipf_pick(g: np.random.Generator, vocabulary: list[str], count: int,
              exponent: float = 1.1) -> list[str]:
    ranks = np.arange(1, len(vocabulary) + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    return [vocabulary[i] for i in g.choice(len(vocabulary), size=count, p=weights)]


def crack_inputs(seed: int, train_path, test_path, alphabet_path) -> None:
    """sigma=20 Zipf corpus: 100k training and 10k test passwords, lengths 4-9,
    drawn from a 15k-word Markov vocabulary, characters renamed per seed.

    Which cells the adaptive scheduler runs first depends on the test set's
    hits and on level boundaries that move with sampling noise, and early
    cells differ several-fold in cost per guess. So the sample is fixed like
    the language, and the seed renames characters (see _rename), which
    changes every string and hash but not the work.
    """
    language = np.random.default_rng([LANGUAGE_SEED, 1])
    raw = markov_lines(language, SMALL_CHARS, 45_000, 4, 9, 0.08).decode("ascii").split("\n")[:-1]
    vocab = list(dict.fromkeys(raw))[:15_000]
    samples = zipf_pick(language, vocab, 110_000)
    rename = _rename(seed, SMALL_CHARS)
    with open(train_path, "wb") as fh:
        fh.write(rename("\n".join(samples[:100_000]) + "\n"))
    with open(test_path, "wb") as fh:
        fh.write(rename("\n".join(samples[100_000:]) + "\n"))
    with open(alphabet_path, "w", encoding="ascii") as fh:
        fh.write(SMALL_CHARS + "\n")


def _rename(seed: int, chars: str):
    """Seeded permutation of an alphabet's characters, as a text-to-bytes map.

    A renamed corpus trains a model with the same level structure over a
    permuted alphabet: enumeration visits the same level vectors and emits
    the same number of guesses per cell, only other strings in another order.
    """
    names = "".join(np.random.default_rng([seed, 3]).permutation(list(chars)))
    table = bytes.maketrans(chars.encode(), names.encode())
    return lambda text: (text.encode("ascii") if isinstance(text, str) else text).translate(table)


def corpus72(seed: int, stream: int, lines: int, path) -> int:
    """Default-alphabet corpus, lengths 5-14; returns its character count."""
    g = np.random.default_rng([seed, stream])
    data = markov_lines(g, DEFAULT_CHARS, lines, 5, 14, 0.03)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data) - lines


def renamed_corpus72(seed: int, lines: int, path) -> None:
    """One fixed default-alphabet corpus, characters renamed per seed.

    Deep cells are sensitive to sampling noise: two 300k-line samples of the
    same language give models whose levels differ in about 7% of the
    conditional table, which moves a deep cell's guesses by a quarter and its
    walk time by a sixth.
    """
    data = markov_lines(np.random.default_rng([LANGUAGE_SEED, 3]), DEFAULT_CHARS, lines,
                        5, 14, 0.03)
    with open(path, "wb") as fh:
        fh.write(_rename(seed, DEFAULT_CHARS)(data))


def _random_string(g: np.random.Generator, chars: str, lo: int, hi: int) -> str:
    length = int(g.integers(lo, hi + 1))
    return "".join(chars[int(i)] for i in g.integers(0, len(chars), size=length))


def hint_records(seed: int, count: int, attribute: str, embed_fraction: float,
                 vocabulary: list[str], path) -> None:
    """JSON-lines hint records; the first embed_fraction of them use a
    password made of the attribute value plus a short suffix, the rest pair a
    vocabulary password with an unrelated value."""
    g = np.random.default_rng([seed, 4])
    embed = round(embed_fraction * count)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            if i < embed:
                value = _random_string(g, DEFAULT_CHARS, 4, 6)
                password = value + _random_string(g, DEFAULT_CHARS, 2, 3)
            else:
                password = vocabulary[int(g.integers(0, len(vocabulary)))]
                value = _random_string(g, DEFAULT_CHARS, 4, 6)
            fh.write(json.dumps({"password": password, "attributes": {attribute: [value]}}) + "\n")
