"""Password corpora, hint records, and the alphabet they live over.

Loading filters and counts rather than transliterates: a password with a
character outside the alphabet is dropped and tallied in rejected_count.
Duplicates are kept on purpose, frequencies carry the signal the model
trains on.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import EmptyCorpusError, HintParseError, OmenError

DEFAULT_MIN_LENGTH = 3
DEFAULT_MAX_LENGTH = 20

# characters per read of a password file. A pass holds one block's lines
# and a few arrays of up to 8 bytes per character, training's only
# temporaries; at 1 << 16 they alone would raise its peak RSS by about 5%
_BLOCK = 1 << 15

# Attribute vocabulary for hint records, in canonical report order.
ATTRIBUTE_NAMES = (
    "email",
    "userName",
    "firstName",
    "lastName",
    "birthday",
    "location",
    "contact",
    "eduWork",
    "friends",
    "siblings",
)

_DEFAULT_CHARS = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "!@#$%^&*.-"
)


@contextmanager
def read_text(path):
    """path opened for reading as UTF-8 text; bytes that are not UTF-8 are a
    data error (OmenError) naming the file, not a ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise OmenError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _code_points(text: str) -> np.ndarray:
    """The code point of each character of text, one uint32 per character."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


class Alphabet:
    """Ordered character set; rank order of n-grams follows this order.

    Characters map to ranks through a table indexed by code point, so a
    whole block of text is ranked in one NumPy step (encode, and the line
    filter of PasswordFile). accepts(text) tests a short string, such as one
    gram, without building an array.
    """

    def __init__(self, chars: str):
        if len(chars) < 2:
            raise ValueError("alphabet needs at least 2 characters")
        if len(set(chars)) != len(chars):
            raise ValueError("alphabet contains duplicate characters")
        for ch in chars:
            if len(ch) != 1 or not ch.isprintable():
                raise ValueError(f"alphabet character {ch!r} is not a printable code point")
        self.chars = chars
        self.size = len(chars)
        self._index = {ch: i for i, ch in enumerate(chars)}
        # accepts(text): every character of text is in the alphabet, in C
        self.accepts = frozenset(chars).issuperset
        # <U1 array used for bulk decoding of guess batches.
        self._char_array = np.array(list(chars), dtype="<U1")
        # code point -> rank, -1 outside the alphabet; the last entry covers
        # all above. int32 holds every gram rank that training forms from
        # these, since |alphabet|**n <= _MAX_TABLE_CELLS < 2**31
        codes = _code_points(chars)
        self._rank_of = np.full(int(codes.max()) + 2, -1, dtype=np.int32)
        self._rank_of[codes] = np.arange(self.size)

    @classmethod
    def default(cls) -> "Alphabet":
        return cls(_DEFAULT_CHARS)

    @classmethod
    def from_file(cls, path) -> "Alphabet":
        with read_text(path) as fh:
            line = fh.readline().rstrip("\n")
        return cls(line)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.chars + "\n")

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and other.chars == self.chars

    def index(self, ch: str) -> int:
        try:
            return self._index[ch]
        except KeyError:
            raise KeyError(f"character {ch!r} not in alphabet") from None

    def rank(self, text: str) -> int:
        """Base-|alphabet| value of text's character ranks: a gram's rank."""
        r = 0
        for ch in text:
            r = r * self.size + self.index(ch)
        return r

    def encode(self, text: str) -> np.ndarray:
        """The int64 rank of each character; ValueError names one outside the alphabet."""
        ranks = self._ranks(_code_points(text))
        if ranks.size and ranks.min() < 0:
            ch = text[int(np.argmax(ranks < 0))]
            raise ValueError(f"character {ch!r} not in alphabet")
        return ranks.astype(np.int64)

    def _ranks(self, codes: np.ndarray) -> np.ndarray:
        """The int32 rank of each code point, -1 for one outside the alphabet."""
        return self._rank_of.take(codes, mode="clip")

    def decode_batch(self, codes: np.ndarray) -> list[str]:
        """Turn an (m, ell) array of character ranks into m strings."""
        if codes.size == 0:
            return []
        chars = self._char_array[codes]
        return np.ascontiguousarray(chars).view(f"<U{codes.shape[1]}").ravel().tolist()


@dataclass
class Corpus:
    """Filtered password list plus bookkeeping from the load."""

    passwords: list[str]
    rejected_count: int = 0

    def __len__(self) -> int:
        return len(self.passwords)

    def __iter__(self):
        return iter(self.passwords)


@dataclass
class HintRecord:
    """One account: its password and named personal attributes."""

    password: str
    attributes: dict[str, list[str]] = field(default_factory=dict)


class PasswordFile:
    """The passwords of a newline-delimited UTF-8 file, streamed.

    A pass keeps, in file order, exactly the lines whose characters all
    belong to the alphabet and whose length lies in [min_len, max_len].
    Each pass reopens the file and reads it in blocks of _BLOCK characters,
    so it holds one block's lines whatever the file's size, and the object
    can be iterated any number of times. Lines end at LF, CRLF or a lone CR.
    A pass that keeps nothing raises EmptyCorpusError at its end; kept and
    rejected_count tally the last pass that finished.

    Iterating yields the kept lines as strings; encoded() yields them as
    the flat int32 ranks and lengths that train counts, with no string made
    per line. Both come from the one filter, _filter_lines, which ranks a
    block's text in one step and finds its line breaks and foreign
    characters with NumPy.
    """

    def __init__(self, path, alphabet: Alphabet | None = None,
                 min_len: int = DEFAULT_MIN_LENGTH, max_len: int = DEFAULT_MAX_LENGTH):
        if min_len < 1 or max_len < min_len:
            raise ValueError(f"bad length bounds [{min_len}, {max_len}]")
        self.path = path
        self.alphabet = alphabet if alphabet is not None else Alphabet.default()
        self.min_len = min_len
        self.max_len = max_len
        self.kept = 0
        self.rejected_count = 0

    def __iter__(self):
        for text, keep, _flat, _lengths in self._scan():
            # text ends with "\n", so its last piece is empty; keep is one shorter
            yield from compress(text.split("\n"), keep.tolist())

    def encoded(self):
        """Per block, the kept lines as (flat, lengths): their characters'
        int32 ranks end to end, and each line's length."""
        for _text, _keep, flat, lengths in self._scan():
            yield flat, lengths

    def _scan(self):
        """One pass: per block, (text, keep, flat, lengths) for the block's
        complete lines. text is those lines, each ended by "\n"; keep marks
        the lines kept; flat and lengths are the kept lines encoded."""
        lo, hi, alphabet = self.min_len, self.max_len, self.alphabet
        kept = rejected = 0
        tail = ""
        with read_text(self.path) as fh:
            while True:
                block = fh.read(_BLOCK)
                if not block:
                    if not tail:
                        break
                    block = "\n"  # ends a last line that has no newline
                # text mode has already turned "\r\n" and "\r" into "\n"
                text = tail + block
                cut = text.rfind("\n") + 1
                # the last line goes on in the next block; past max_len
                # characters only its length matters, so that much is kept
                tail = text[cut:][: hi + 1]
                if not cut:
                    continue
                text = text[:cut]
                keep, flat, lengths = _filter_lines(alphabet, text, lo, hi)
                kept += lengths.size
                rejected += keep.size - lengths.size
                yield text, keep, flat, lengths
        self.kept, self.rejected_count = kept, rejected
        if not kept:
            raise EmptyCorpusError(f"no usable passwords in {self.path} (rejected {rejected})")


def _filter_lines(alphabet: Alphabet, text: str, lo: int, hi: int):
    """(keep, flat, lengths) for text, whole lines each ended by "\n": keep
    marks the lines of length in [lo, hi] with every character in the
    alphabet, flat is the kept lines' int32 ranks end to end and lengths
    their lengths. Its temporaries, a few of one entry per character, end
    when it returns."""
    codes = _code_points(text)
    ends = np.flatnonzero(codes == 10)  # "\n"
    lengths = np.diff(ends, prepend=-1) - 1
    keep = (lengths >= lo) & (lengths <= hi)
    # a foreign character rejects the line it falls in; the newlines are
    # outside the alphabet too, so they are unmarked first
    ranks = alphabet._ranks(codes)
    foreign = ranks < 0
    foreign[ends] = False
    keep[np.searchsorted(ends, np.flatnonzero(foreign))] = False
    inside = np.repeat(keep, lengths + 1)
    inside[ends] = False
    return keep, np.compress(inside, ranks), lengths[keep]


def load_passwords(
    path,
    alphabet: Alphabet | None = None,
    min_len: int = DEFAULT_MIN_LENGTH,
    max_len: int = DEFAULT_MAX_LENGTH,
) -> Corpus:
    """Read a password file into a Corpus: one pass of PasswordFile, collected.

    Order is preserved and rejected lines are counted in rejected_count.
    Raises EmptyCorpusError if nothing survives.
    """
    passwords = PasswordFile(path, alphabet, min_len, max_len)
    return Corpus(list(passwords), passwords.rejected_count)


def split(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministically partition a corpus into (train, test).

    |train| = round(train_fraction * |corpus|); relative order inside each
    part follows the original corpus.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if len(corpus) == 0:
        raise ValueError("cannot split an empty corpus")

    n = len(corpus)
    k = int(round(train_fraction * n))
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    train_idx = sorted(indices[:k])
    test_idx = sorted(indices[k:])
    train = Corpus([corpus.passwords[i] for i in train_idx])
    test = Corpus([corpus.passwords[i] for i in test_idx])
    return train, test


def load_hints(path) -> list[HintRecord]:
    """Parse a JSON-lines hint file into HintRecords, strictly.

    Each line must be an object with a non-empty "password" string and an
    "attributes" object mapping known attribute names to lists of strings.
    Any violation raises HintParseError naming the 1-based line number.
    """
    records: list[HintRecord] = []
    with read_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HintParseError(line_no, f"invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise HintParseError(line_no, "record is not an object")
            pwd = obj.get("password")
            if not isinstance(pwd, str) or not pwd:
                raise HintParseError(line_no, 'missing or empty "password"')
            attrs = obj.get("attributes")
            if not isinstance(attrs, dict):
                raise HintParseError(line_no, 'missing "attributes" object')
            clean: dict[str, list[str]] = {}
            for name, values in attrs.items():
                if name not in ATTRIBUTE_NAMES:
                    raise HintParseError(line_no, f"unknown attribute {name!r}")
                if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                    raise HintParseError(line_no, f"attribute {name!r} is not a list of strings")
                clean[name] = list(values)
            records.append(HintRecord(pwd, clean))
    return records


def save_hints(records: list[HintRecord], path) -> None:
    """Inverse of load_hints; load(save(records)) == records."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"password": rec.password, "attributes": rec.attributes}) + "\n")
