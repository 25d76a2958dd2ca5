"""n-gram model: counting, smoothing, level discretization, scoring, file I/O.

A trained model's tables are indexed by gram rank (the base-|Σ| value of
the gram's character ranks, so rank order == lexicographic order):

  init_prob[c]      probability of the password starting with (n-1)-gram c
  cond_row(c)[z]    probability of character z given (n-1)-gram context c
  init_level[c]     discretized level of init_prob[c], in [-(L-1), 0]
  cond_level[c, z]  discretized level of cond_row(c)[z], same range

The level tables and init_prob are dense arrays. The conditional
probabilities are not: smoothing gives every context that training never
saw the same row, delta/(delta*|Σ|) in each cell, so the model keeps that
background row once, plus the sorted ids and the rows of the contexts whose
row differs from it (the explicit ones). A row is implicit exactly when it
is bitwise equal to the background row, so nothing is lost; cond_prob
rebuilds the dense table on demand.

Levels come from lvl = round(log(c1*p + c2)) with (c1, c2) calibrated per
table so the table's maximum probability maps to 0 and probability 0 maps
to -(L-1). Natural log throughout.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from itertools import islice, repeat

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

# table entries per step of the in-place float conversion, the
# discretization and load_model's streamed pass; a step's float temporary
# (128 KB) also lands on load_model's peak
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
    """Immutable trained model: the probability and level tables.

    cond_prob is either the dense (C, sigma) table or the compact pair
    (ids, rows) that cond_table returns: the sorted ids of the explicit
    contexts, and their rows in that order followed by the background row,
    which every other context shares. Either way the rows bitwise equal to
    the background become implicit (_compact); a dense table's background
    is the value that most of its constant rows share. cond_row reads rows;
    cond_prob is a dense copy built on each access, for tests and
    inspection.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        L: int,
        init_prob: np.ndarray,
        cond_prob,
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
        if isinstance(cond_prob, tuple):
            ids, rows = cond_prob
        else:
            dense = np.asarray(cond_prob, dtype=np.float64).reshape(C, sigma)
            background = _background(_row_constants(dense), sigma)
            ids, rows = np.arange(C), np.concatenate((dense, background[None]))
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if rows.shape != (ids.size + 1, sigma):
            raise ValueError(f"{ids.size} explicit contexts need {ids.size + 1} rows "
                             f"of {sigma}, got shape {rows.shape}")
        self._ids, self._rows = _compact(ids, rows)
        self._slot = _slots(self._ids, C)
        self.init_level = np.ascontiguousarray(init_level, dtype=np.int8).reshape(C)
        self.cond_level = np.ascontiguousarray(cond_level, dtype=np.int8).reshape(C, sigma)
        for arr in (self.init_prob, self._ids, self._rows, self._slot,
                    self.init_level, self.cond_level):
            arr.setflags(write=False)
        if validate:
            self._check()

    def cond_row(self, ctx):
        """Context ctx's conditional row, explicit or background; given an
        array of contexts, a copy of their rows."""
        return self._rows[self._slot[ctx]]

    @property
    def cond_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The compact pair (ids, rows) that the constructor takes."""
        return self._ids, self._rows

    @property
    def cond_prob(self) -> np.ndarray:
        """The dense (C, sigma) conditional table, read-only and built anew
        on each access."""
        dense = self._rows[self._slot]
        dense.setflags(write=False)
        return dense

    def table_bytes(self) -> dict[str, int]:
        """Bytes held per table; cond_prob's are the compact rows, their ids
        and the index from contexts to rows."""
        return {"init_prob": self.init_prob.nbytes,
                "cond_prob": self._ids.nbytes + self._rows.nbytes + self._slot.nbytes,
                "init_level": self.init_level.nbytes,
                "cond_level": self.cond_level.nbytes}

    def _check(self) -> None:
        L = self.L
        rows = _distinct(self._ids, self._rows, self.init_prob.size)
        for prob in (self.init_prob, rows):
            if _outside_unit(prob):
                raise ValueError("probabilities outside [0, 1]")
        if _unnormalised(rows):
            raise ValueError("conditional rows do not sum to 1")
        if abs(self.init_prob.sum() - 1.0) > 1e-9:
            raise ValueError("initial probabilities do not sum to 1")
        for levels in (self.init_level, self.cond_level):
            if levels.min() < -(L - 1) or levels.max() > 0:
                raise ValueError("levels outside [-(L-1), 0]")
            if levels.max() != 0:
                raise ValueError("no gram at level 0")


def _compact(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The compact pair (ids, rows) without the explicit rows that are
    bitwise equal to the background (rows' last row). The one compaction:
    train, load_model and a dense table all come through it. Nothing is
    copied when no row drops."""
    bits = rows.view(np.int64)
    explicit = (bits[:-1] != bits[-1]).any(axis=1)
    if explicit.all():
        return ids, rows
    return ids[explicit], np.concatenate((rows[:-1][explicit], rows[-1:]))


def _slots(ids: np.ndarray, C: int) -> np.ndarray:
    """Each context's row in the compact rows: its place in ids, or the
    background's (the last). int32: C is below _MAX_TABLE_CELLS < 2**31."""
    slot = np.full(C, ids.size, dtype=np.int32)
    slot[ids] = np.arange(ids.size, dtype=np.int32)
    return slot


def _distinct(ids: np.ndarray, rows: np.ndarray, C: int) -> np.ndarray:
    """The rows that occur in the dense table: the background only when
    some context is implicit."""
    return rows if ids.size < C else rows[:-1]


def _row_constants(rows: np.ndarray) -> np.ndarray:
    """Each row's value where all its cells are equal, NaN elsewhere (a row
    holding a NaN never equals itself)."""
    return np.where((rows == rows[:, :1]).all(axis=1), rows[:, 0], np.nan)


def _background(constants: np.ndarray, sigma: int) -> np.ndarray:
    """The background row: the value that the most constant rows share
    (ties go to the smallest), from _row_constants; 1/sigma when no row is
    constant, which leaves every row explicit. Counted over runs of equal
    values in row order (one run in a trained model) rather than through
    np.unique, whose sort faults in half a megabyte of code on first use."""
    values = constants[~np.isnan(constants)]
    if not values.size:
        return np.full(sigma, 1.0 / sigma)
    starts = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()]
    counts = Counter()
    for lo, hi in zip(starts, starts[1:] + [values.size]):
        counts[float(values[lo])] += hi - lo
    return np.full(sigma, max(counts, key=lambda value: (counts[value], -value)))


def _outside_unit(prob: np.ndarray) -> bool:
    return not 0 <= prob.min() <= prob.max() <= 1  # a NaN fails every comparison


def _unnormalised(rows: np.ndarray) -> bool:
    # min and max, not allclose: its temporaries would each be a row per context
    sums = rows.sum(axis=1)
    return not 1 - 1e-9 <= sums.min() <= sums.max() <= 1 + 1e-9


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
    read in chunks of _CHUNK passwords and encoded here. The rows of the
    contexts seen in training then move to the front of the count buffer,
    which shrinks to them and the background row before they turn into
    probabilities in place; the levels are made after that, a block at a
    time. So beyond one dense count table memory does not grow with the
    corpus.
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

    ids = np.flatnonzero(cond_counts.reshape(C, sigma).any(axis=1))
    _squeeze(cond_counts, ids, sigma)
    # no view of the buffer is alive, so it may shrink in place
    cond_counts.resize((ids.size + 1) * sigma, refcheck=False)
    rows = _as_float(cond_counts).reshape(-1, sigma)
    seen = rows[:-1]
    totals = seen.sum(axis=1, keepdims=True) + delta * sigma
    seen += delta
    seen /= totals
    # an unseen row: (0 + delta) / (0 + delta * sigma) in every cell
    rows[-1] = delta / (delta * sigma)

    init_level = _levels(init_prob, float(init_prob.max()), L)
    peak = float(_distinct(ids, rows, C).max())
    cond_level = _levels(rows, peak, L)[_slots(ids, C)]
    return NgramModel(alphabet, n, L, init_prob, (ids, rows), init_level, cond_level)


def _squeeze(counts: np.ndarray, ids: np.ndarray, sigma: int) -> None:
    """Move the rows ids (sorted) of the flat buffer counts to its front, in
    order, a block of rows at a time. Row ids[i] >= i, so no block reads a
    row that an earlier block wrote, and a block is gathered before it is
    written."""
    rows = counts.reshape(-1, sigma)
    step = max(1, _BLOCK // sigma)
    for lo in range(0, ids.size, step):
        part = ids[lo:lo + step]
        rows[lo:lo + part.size] = rows[part]


def _levels(prob: np.ndarray, p_max: float, L: int) -> np.ndarray:
    """prob's levels, calibrated on p_max, as int8 of prob's shape; made a
    _BLOCK of entries at a time, so a temporary per block, not per table."""
    c1, c2 = calibrate(p_max, L)
    flat = prob.reshape(-1)
    levels = np.empty(flat.size, dtype=np.int8)
    for lo in range(0, flat.size, _BLOCK):
        levels[lo:lo + _BLOCK] = _discretize_array(flat[lo:lo + _BLOCK], c1, c2, -(L - 1))
    return levels.reshape(prob.shape)


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
    # cond_row's lookup, one cell at a time: a row view per step would cost
    # more than the step
    rows, slot = model._rows, model._slot
    p = float(model.init_prob[first])
    for ctx, z in steps:
        p *= rows.item(slot.item(ctx), z)
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
    """Write the binary model file (see load_model for the layout).

    The conditional table goes out dense, a row at a time: each explicit
    row from the model's own buffer, and the background's bytes for every
    implicit one. The other tables are written from their own buffers, with
    no copy when they are already in the file's dtype, so nothing the size
    of a table is copied (a copy can be most of training's peak).
    """
    abytes = model.alphabet.chars.encode("utf-8")
    ids, rows = model.cond_table
    rows = rows.astype("<f8", copy=False)
    background = rows[-1].tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _FORMAT_VERSION, model.n, model.L, len(abytes)))
        fh.write(abytes)
        fh.write(np.ascontiguousarray(model.init_prob, dtype="<f8").data)
        end = 0
        for ctx, row in zip(ids.tolist(), rows):
            fh.writelines(repeat(background, ctx - end))
            fh.write(row.data)
            end = ctx + 1
        fh.writelines(repeat(background, model.init_prob.size - end))
        for levels in (model.init_level, model.cond_level):
            fh.write(np.ascontiguousarray(levels, dtype="i1").data)


def load_model(path) -> NgramModel:
    """Read a model file written by save_model.

    Layout, all integers little-endian: magic "OMEN", format version u32,
    n u32, L u32, alphabet byte length u32, alphabet UTF-8 bytes, then
    init_prob f64[C], cond_prob f64[C*sigma], init_level i8[C],
    cond_level i8[C*sigma], each C-ordered in gram rank order.

    The file's size is checked against its header before any table is
    read. The dense conditional table is then read once, a block of rows
    at a time, and only its explicit rows are kept (_read_rows), so memory
    holds no copy of it. The model must pass the same checks as a trained
    one: n >= 2, L in [2, 128], probabilities in [0, 1], every conditional
    row and the initial table summing to 1, and levels in [-(L-1), 0] with
    a gram at level 0 in each table. Beyond that, each table's levels must
    be the ones train derives from its probabilities: they are recomputed
    from the initial table, the kept rows and the background row, and every
    implicit row's stored levels must equal the background's. A failed
    check raises ModelFormatError. The smoothing delta is not stored.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(20)
        if len(head) < 4 or head[:4] != _MAGIC:
            raise ModelFormatError("not a model file (bad magic)")
        if len(head) < 20:
            raise ModelFormatError("truncated header")
        version, n, L, alen = struct.unpack_from("<IIII", head, 4)
        if version != _FORMAT_VERSION:
            raise ModelFormatError(f"unsupported format version {version}")
        if size < 20 + alen:
            raise ModelFormatError("truncated alphabet")
        try:
            alphabet = Alphabet(fh.read(alen).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ModelFormatError(f"bad alphabet: {exc}") from None
        sigma = alphabet.size
        try:
            C = _contexts(sigma, n, L)
        except ValueError as exc:
            raise ModelFormatError(f"implausible header: {exc}") from None
        # f64 then i8 for the initial table and for the conditional table
        expect = 20 + alen + 9 * C * (1 + sigma)
        if size != expect:
            raise ModelFormatError(f"file is {size} bytes, layout requires {expect}")
        try:
            init_prob = np.frombuffer(fh.read(8 * C), dtype="<f8")
            if _outside_unit(init_prob):
                raise ValueError("probabilities outside [0, 1]")
            cond_table = _read_rows(fh, C, sigma)
            init_level = np.frombuffer(fh.read(C), dtype="i1")
            cond_level = np.frombuffer(fh.read(C * sigma), dtype="i1")
            model = NgramModel(alphabet, n, L, init_prob, cond_table, init_level, cond_level)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
    # the check a hand-built NgramModel is spared: its levels may be set by hand
    init_levels = _levels(init_prob, float(init_prob.max()), L)
    levels = _levels(model._rows, float(_distinct(model._ids, model._rows, C).max()), L)
    step = max(1, _BLOCK // sigma)
    if not (np.array_equal(init_levels, model.init_level)
            and all(np.array_equal(levels[model._slot[lo:lo + step]],
                                   model.cond_level[lo:lo + step])
                    for lo in range(0, C, step))):
        raise ModelFormatError("levels do not match the probabilities")
    return model


def _read_rows(fh, C: int, sigma: int) -> tuple[np.ndarray, np.ndarray]:
    """The compact pair (ids, rows) of the dense conditional table at fh's
    position, read in one pass of blocks of rows. The pass checks the range
    and the row sums and keeps the rows that are not constant; constant rows
    are only noted by value. The value most of them share is the background,
    and the constant rows of any other value become explicit too."""
    step = max(1, _BLOCK // sigma)
    block = np.empty((step, sigma), dtype="<f8")
    constants = np.empty(C)
    kept = np.empty((0, sigma))
    unnormalised = False
    for lo in range(0, C, step):
        rows = block[:min(step, C - lo)]
        fh.readinto(rows)
        if _outside_unit(rows):
            raise ValueError("probabilities outside [0, 1]")
        # reported after the pass: a range fault further on takes precedence
        unnormalised = unnormalised or _unnormalised(rows)
        values = constants[lo:lo + rows.shape[0]]
        values[:] = _row_constants(rows)
        varied = rows[np.isnan(values)]
        if varied.size:
            end = kept.shape[0]
            kept.resize((end + varied.shape[0], sigma), refcheck=False)
            kept[end:] = varied
    if unnormalised:
        raise ValueError("conditional rows do not sum to 1")
    background = _background(constants, sigma)
    ids = np.flatnonzero(constants != background[0])
    if ids.size > kept.shape[0]:
        rows = np.empty((ids.size, sigma))
        rows[:] = constants[ids, None]
        rows[np.isnan(constants[ids])] = kept
        kept = rows
    kept.resize((ids.size + 1, sigma), refcheck=False)
    kept[-1] = background
    return ids, kept
