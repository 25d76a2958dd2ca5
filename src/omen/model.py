"""n-gram model: counting, smoothing, level discretization, scoring, file I/O.

A trained model holds four dense arrays indexed by gram rank (the base-|Σ|
value of the gram's character ranks, so rank order == lexicographic order):

  init_prob[c]      probability of the password starting with (n-1)-gram c
  cond_prob[c, z]   probability of character z given (n-1)-gram context c
  init_level[c]     discretized level of init_prob[c], in [-(L-1), 0]
  cond_level[c, z]  discretized level of cond_prob[c, z], same range

Levels come from lvl = round(log(c1*p + c2)) with (c1, c2) calibrated per
table so the table's maximum probability maps to 0 and probability 0 maps
to -(L-1). Natural log throughout.
"""

from __future__ import annotations

import math
import struct
from itertools import islice

import numpy as np

from .corpus import Alphabet, PasswordFile
from .errors import ModelFormatError, ScoringError, TrainingError

DEFAULT_ORDER = 3
DEFAULT_LEVEL_COUNT = 10
DEFAULT_DELTA = 0.01

_MAGIC = b"OMEN"
_FORMAT_VERSION = 1

# dense tables: keep C*sigma from exploding for large n
_MAX_TABLE_CELLS = 200_000_000

# passwords per gram-counting chunk; training's temporaries scale with this
_CHUNK = 1 << 12

# table entries per step of the in-place float conversion and discretization;
# a step's float temporary (128 KB) also lands on load_model's peak, through
# its level check
_BLOCK = 1 << 14


def calibrate(p_max: float, L: int) -> tuple[float, float]:
    """Choose (c1, c2) so that discretize(p_max) = 0 and discretize(0) = -(L-1)."""
    if L < 2:
        raise ValueError(f"level count must be >= 2, got {L}")
    if not 0.0 < p_max <= 1.0:
        raise ValueError(f"calibration requires 0 < p_max <= 1, got {p_max}")
    c2 = math.exp(-(L - 1))
    c1 = (1.0 - c2) / p_max
    return c1, c2


def discretize(prob: float, c1: float, c2: float) -> int:
    """Map a probability to an integer level in [round(log(c2)), 0].

    round(log(c2)) is -(L-1) for calibrated c2. Monotone non-decreasing in
    prob; round() ties follow round-half-to-even, same as the vectorized path.
    """
    lvl = round(math.log(c1 * prob + c2))
    return max(round(math.log(c2)), min(0, lvl))


def _discretize_array(prob: np.ndarray, c1: float, c2: float, min_level: int) -> np.ndarray:
    # every step writes one float buffer the size of prob
    lvl = np.multiply(prob, c1)
    lvl += c2
    np.log(lvl, out=lvl)
    np.rint(lvl, out=lvl)
    np.clip(lvl, min_level, 0, out=lvl)
    return lvl.astype(np.int8)


def _contexts(sigma: int, n: int, L: int) -> int:
    """Rows of the dense tables, sigma**(n-1); ValueError unless n >= 2 and
    2 <= L <= 128, or when the tables' sigma**n cells exceed
    _MAX_TABLE_CELLS. sigma >= 2, so an order of at least the cap's bit
    length is over it, and is refused before any power of sigma is formed."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if not 2 <= L <= 128:
        raise ValueError(f"level count must be in [2, 128], got {L}")
    if n >= _MAX_TABLE_CELLS.bit_length() or sigma**n > _MAX_TABLE_CELLS:
        raise ValueError(f"dense tables over {sigma} characters at n={n} would exceed "
                         f"{_MAX_TABLE_CELLS} cells; lower n or shrink the alphabet")
    return sigma ** (n - 1)


def _encode_concat(alphabet: Alphabet, passwords) -> tuple[np.ndarray, np.ndarray]:
    """Encode a batch of strings into one flat rank array plus lengths."""
    lengths = np.fromiter(map(len, passwords), dtype=np.int64, count=len(passwords))
    return alphabet.encode("".join(passwords)), lengths


class NgramModel:
    """Immutable trained model: the probability and level tables."""

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        L: int,
        init_prob: np.ndarray,
        cond_prob: np.ndarray,
        init_level: np.ndarray,
        cond_level: np.ndarray,
        validate: bool = True,
    ):
        sigma = alphabet.size
        C = _contexts(sigma, n, L)
        self.alphabet = alphabet
        self.n = n
        self.L = L
        self.init_prob = np.ascontiguousarray(init_prob, dtype=np.float64).reshape(C)
        self.cond_prob = np.ascontiguousarray(cond_prob, dtype=np.float64).reshape(C, sigma)
        self.init_level = np.ascontiguousarray(init_level, dtype=np.int8).reshape(C)
        self.cond_level = np.ascontiguousarray(cond_level, dtype=np.int8).reshape(C, sigma)
        for arr in (self.init_prob, self.cond_prob, self.init_level, self.cond_level):
            arr.setflags(write=False)
        if validate:
            self._check()

    def _check(self) -> None:
        L = self.L
        for prob in (self.init_prob, self.cond_prob):
            if not 0 <= prob.min() <= prob.max() <= 1:  # a NaN fails every comparison
                raise ValueError("probabilities outside [0, 1]")
        # min and max, not allclose: its temporaries would each be C floats
        row_sums = self.cond_prob.sum(axis=1)
        if not 1 - 1e-9 <= row_sums.min() <= row_sums.max() <= 1 + 1e-9:
            raise ValueError("conditional rows do not sum to 1")
        if abs(self.init_prob.sum() - 1.0) > 1e-9:
            raise ValueError("initial probabilities do not sum to 1")
        for levels in (self.init_level, self.cond_level):
            if levels.min() < -(L - 1) or levels.max() > 0:
                raise ValueError("levels outside [-(L-1), 0]")
            if levels.max() != 0:
                raise ValueError("no gram at level 0")


def train(corpus, alphabet: Alphabet | None = None, n: int = DEFAULT_ORDER,
          L: int = DEFAULT_LEVEL_COUNT, delta: float = DEFAULT_DELTA) -> NgramModel:
    """Count grams, smooth additively, discretize, return an immutable model.

    Probabilities are (count + delta) / (total + delta * cells) where cells
    is the row width: |Σ| for conditional rows, |Σ|^(n-1) for the initial
    table. Entries shorter than n-1 characters contribute nothing; if every
    entry is that short there is nothing to anchor a guess on and training
    fails.

    The corpus is iterated once and its grams are added to exact integer
    counts a batch at a time. A PasswordFile over the same alphabet hands
    over its blocks already encoded (PasswordFile.encoded), so no string is
    made per password; any other iterable of strings, such as a list, is
    read in chunks of _CHUNK passwords and encoded here. The counts then
    turn into the probabilities in place and the levels are filled a block
    at a time, so beyond the tables themselves memory does not grow with
    the corpus.
    """
    if alphabet is None:
        alphabet = Alphabet.default()
    sigma = alphabet.size
    n1 = n - 1
    C = _contexts(sigma, n, L)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"smoothing delta must be finite and > 0, got {delta}")

    init_counts = np.zeros(C, dtype=np.int64)
    cond_counts = np.zeros(C * sigma, dtype=np.int64)
    if not _count_corpus(corpus, alphabet, n, init_counts, cond_counts):
        raise TrainingError("empty corpus")
    if not init_counts.any():
        raise TrainingError(f"no entry has the {n1} characters needed for an initial gram")

    # totals are taken before delta is added
    init_prob = _as_float(init_counts)
    total = init_prob.sum() + delta * C
    init_prob += delta
    init_prob /= total
    cond_prob = _as_float(cond_counts).reshape(C, sigma)
    totals = cond_prob.sum(axis=1, keepdims=True) + delta * sigma
    cond_prob += delta
    cond_prob /= totals

    init_level = np.empty(C, dtype=np.int8)
    cond_level = np.empty(C * sigma, dtype=np.int8)
    for prob, levels in ((init_prob, init_level), (cond_prob, cond_level)):
        for lo, block in _level_blocks(prob, L):
            levels[lo:lo + block.size] = block
    return NgramModel(alphabet, n, L, init_prob, cond_prob, init_level, cond_level)


def _level_blocks(prob: np.ndarray, L: int):
    """(offset, levels) for each _BLOCK of prob's entries in C order, the
    levels calibrated on prob's maximum; a temporary per block, not per table."""
    c1, c2 = calibrate(float(prob.max()), L)
    flat = prob.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        yield lo, _discretize_array(flat[lo:lo + _BLOCK], c1, c2, -(L - 1))


def _as_float(counts: np.ndarray) -> np.ndarray:
    """The int64 counts as float64 in the same buffer, converted a block at a
    time so that no full-size copy exists."""
    values = counts.view(np.float64)
    for lo in range(0, counts.size, _BLOCK):
        values[lo:lo + _BLOCK] = counts[lo:lo + _BLOCK]
    return values


def _count_corpus(corpus, alphabet: Alphabet, n: int,
                  init_counts: np.ndarray, cond_counts: np.ndarray) -> int:
    """Add the grams of every entry of corpus to the counts in place and
    return the number of entries, one batch at a time; no batch outlives
    the call."""
    if isinstance(corpus, PasswordFile) and corpus.alphabet == alphabet:
        batches = corpus.encoded()
    else:
        passwords = iter(corpus)
        batches = (_encode_concat(alphabet, chunk)
                   for chunk in iter(lambda: list(islice(passwords, _CHUNK)), []))
    entries = 0
    for flat, lengths in batches:
        entries += lengths.size
        _count_grams(alphabet.size, n, flat, lengths, init_counts, cond_counts)
    return entries


def _count_grams(sigma: int, n: int, flat: np.ndarray, lengths: np.ndarray,
                 init_counts: np.ndarray, cond_counts: np.ndarray) -> None:
    """Add the grams of a batch of passwords to the counts in place. flat
    holds the passwords' character ranks end to end and lengths their
    lengths; a password shorter than n-1 characters has no gram. int32
    ranks are as good as int64: every gram rank formed from them is below
    sigma**n <= _MAX_TABLE_CELLS < 2**31."""
    n1 = n - 1
    usable = lengths >= n1
    if not usable.any():
        return
    # ctx[i]: rank of the (n-1)-gram starting at flat[i]
    ctx = flat[: flat.size - n1 + 1].copy()
    for j in range(1, n1):
        ctx *= sigma
        ctx += flat[j : flat.size - n1 + 1 + j]
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    # add.at costs O(batch); a bincount would build a whole table per batch
    np.add.at(init_counts, ctx[starts[usable]], 1)

    # the n-gram at i is ctx[i] followed by flat[i + n-1]; keep those inside one password
    pid = np.repeat(np.arange(lengths.size, dtype=np.int32), lengths)
    grams = ctx[:-1] * sigma
    grams += flat[n1:]
    np.add.at(cond_counts, np.compress(pid[:-n1] == pid[n1:], grams), 1)


def _chain(model, pwd: str) -> tuple[int, list[tuple[int, int]]]:
    """The initial gram's rank, then the (context, character) rank of each step."""
    n1 = model.n - 1
    if len(pwd) < n1:
        raise ScoringError(f"password shorter than {n1} characters")
    alphabet = model.alphabet
    try:
        first = alphabet.rank(pwd[:n1])
        chars = [alphabet.index(ch) for ch in pwd[n1:]]
    except KeyError as exc:
        raise ScoringError(str(exc)) from None
    sigma = alphabet.size
    C = sigma**n1
    ctx = first
    steps = []
    for z in chars:
        steps.append((ctx, z))
        ctx = (ctx * sigma + z) % C
    return first, steps


def password_probability(model, pwd: str) -> float:
    """Chain probability: initial gram times each conditional step."""
    first, steps = _chain(model, pwd)
    cond_prob = model.cond_prob
    p = float(model.init_prob[first])
    for step in steps:
        p *= float(cond_prob[step])
    return p


def password_level(model, pwd: str) -> int:
    """Chain level: initial gram level plus each conditional step's level."""
    first, steps = _chain(model, pwd)
    cond_level = model.cond_level
    total = int(model.init_level[first])
    for step in steps:
        total += int(cond_level[step])
    return total


def save_model(model: NgramModel, path) -> None:
    """Write the binary model file (see load_model for the layout)."""
    abytes = model.alphabet.chars.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _FORMAT_VERSION, model.n, model.L, len(abytes)))
        fh.write(abytes)
        # the tables' own buffers, with no copy when they are already in
        # the file's dtype (a copy of a table can be most of training's peak)
        for arr, dtype in ((model.init_prob, "<f8"), (model.cond_prob, "<f8"),
                           (model.init_level, "i1"), (model.cond_level, "i1")):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).data)


def load_model(path) -> NgramModel:
    """Read a model file written by save_model.

    Layout, all integers little-endian: magic "OMEN", format version u32,
    n u32, L u32, alphabet byte length u32, alphabet UTF-8 bytes, then
    init_prob f64[C], cond_prob f64[C*sigma], init_level i8[C],
    cond_level i8[C*sigma], each C-ordered in gram rank order.

    The file is only parsed here; the model it holds must pass the same
    checks as a trained one: n >= 2, L in [2, 128], probabilities in
    [0, 1], every conditional row and the initial table summing to 1, and
    levels in [-(L-1), 0] with a gram at level 0 in each table. Beyond
    that, each table's levels must be the ones train derives from its
    probabilities; they are recomputed a block at a time and compared. A
    failed check raises ModelFormatError. The smoothing delta is not stored.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if len(blob) < 20:
        raise ModelFormatError("truncated header")
    version, n, L, alen = struct.unpack_from("<IIII", blob, 4)
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    off = 20
    if len(blob) < off + alen:
        raise ModelFormatError("truncated alphabet")
    try:
        alphabet = Alphabet(blob[off : off + alen].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ModelFormatError(f"bad alphabet: {exc}") from None
    off += alen
    sigma = alphabet.size
    try:
        C = _contexts(sigma, n, L)
    except ValueError as exc:
        raise ModelFormatError(f"implausible header: {exc}") from None
    # f64 then i8 for the initial table and for the conditional table
    expect = off + 9 * C * (1 + sigma)
    if len(blob) != expect:
        raise ModelFormatError(f"file is {len(blob)} bytes, layout requires {expect}")
    tables = []
    for dtype, count in (("<f8", C), ("<f8", C * sigma), ("i1", C), ("i1", C * sigma)):
        tables.append(np.frombuffer(blob, dtype=dtype, count=count, offset=off))
        off += tables[-1].nbytes
    try:
        model = NgramModel(alphabet, n, L, *tables)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    # the check a hand-built NgramModel is spared: its levels may be set by hand
    for prob, levels in ((model.init_prob, model.init_level),
                         (model.cond_prob, model.cond_level.reshape(-1))):
        for lo, block in _level_blocks(prob, L):
            if not np.array_equal(block, levels[lo:lo + block.size]):
                raise ModelFormatError("levels do not match the probabilities")
    return model
