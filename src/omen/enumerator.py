"""Ordered enumeration: every password of length ell whose level sum is eta.

The enumeration walks level vectors (one level for the initial gram, one per
conditional transition) in lexicographically descending order; within one
vector, characters advance in alphabet order. Both choices are arbitrary but
fixed, so two runs over the same model emit byte-identical sequences.

The strings of a vector come from NumPy frontiers, one per vector prefix:
the frontier at depth d holds, in character order, every prefix whose first
d levels match the vector and that can still reach eta. Reachability comes
from the same backward dynamic program that counts a cell (_count_dp), so a
vector whose prefix has no live string makes no strings, and live prefixes
are extended a whole frontier at a time. The last level of a vector is
fixed by the others, so the vectors that share their first k - 2 levels
(a run, consecutive in the odometer and ordered by level k - 2) run as one
pass: the run's depth k - 2 frontier is expanded at every level of the run
at once, level by level, which emits the run's strings in its order. A
cell where no initial gram can reach eta stops at the root, before its
first vector. A non-empty cell still forms every vector of its odometer,
live or not, so its cost grows with its vectors (ROADMAP.md's
output-sensitive level vectors item drives the vectors from the frontier
instead).

That program runs over classes of contexts, not over all |alphabet|**(n-1)
contexts. A transition leads to a context that depends only on the last n-2
characters of the one it leaves, so contexts whose transitions all sit at
one level (every context training never saw) and that share that level and
those characters have equal reach and count columns at every depth; each
such group is one class, and every other context a class of its own. The
members of a class also lead to the same contexts, so one index over
classes (_tables, cached on the model) serves everything: the program and
its reach table are indexed by class, and the walk carries each prefix as a
row of its character ranks next to its class, reading the characters a step
adds and its class from the same CSR positions; the initial grams are the
one row of a root CSR of the same type. Nothing is built per transition of
every context, and no table is indexed by context.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .corpus import DEFAULT_MIN_LENGTH

_BATCH = 1024


class _Csr(NamedTuple):
    """Level-major CSR over the rows of a transition table: block b =
    level * rows + row lists the row's transitions at that negated level in
    ascending character order, as start[b]:start[b + 1] of ctx (the
    contexts they lead to; the character is the context mod |alphabet|)
    and of cls (the classes of those contexts)."""

    start: np.ndarray
    ctx: np.ndarray
    cls: np.ndarray
    rows: int


class _Tables(NamedTuple):
    """The enumerator's per-model index, over classes of contexts that share
    every column of the level-sum dynamic program.

    of[c] is the class of context c. step is the CSR over classes, one row
    per class: its transitions are the same for every member of the class.
    root is the same CSR over a table of one row, whose sigma**(n-1)
    transitions are the initial grams: block v (= level v) lists the
    initial-gram ranks at level v in ascending order.
    """

    of: np.ndarray
    step: _Csr
    root: _Csr

    @property
    def size(self) -> int:  # the number of classes
        return self.step.rows


def _level_csr(neg: np.ndarray, L: int, base: np.ndarray, of: np.ndarray) -> _Csr:
    """The _Csr of the rows of neg, the negated levels of each row's
    transitions, where transition z of row r leads to context base[r] + z."""
    R, width = neg.shape
    index = np.int32 if max(L, width) * R < 2**31 else np.int64
    # a stable sort by level keeps (row, character) order inside a level
    pos = np.argsort(neg.reshape(-1), kind="stable").astype(index)
    block = neg.astype(index) * R + np.arange(R, dtype=index)[:, None]
    start = np.zeros(L * R + 1, dtype=index)
    np.cumsum(np.bincount(block.reshape(-1), minlength=L * R), out=start[1:])
    del block  # R * width; freed before the next R * width temporaries
    ctx = base[pos // width] + pos % width
    return _Csr(start, ctx, of[ctx], R)


def _tables(model) -> _Tables:
    """Build (once per model, then cached) the class index of _Tables.

    Transition c*sigma+z leads to (c mod sigma**(n-2))*sigma + z, so a
    context reaches the same successors as every context that ends in the
    same n-2 characters. Two rows whose sigma transitions all sit at one
    level (as every row never seen in training does) thus have equal
    columns when they share that level and those characters, and they are
    one class; every other context is a class of its own. Either way the
    members of a class lead to the same contexts, so one CSR over classes
    serves the walk as well as the program.
    """
    cached = getattr(model, "_enum_tables", None)
    if cached is not None:
        return cached
    L = model.L
    sigma = model.alphabet.size
    C = sigma ** (model.n - 1)
    S = C // sigma  # suffixes: a context's last n-2 characters
    index = np.int32 if L * C < 2**31 else np.int64  # bounds L*S + C and level*size + class
    ctx = np.arange(C, dtype=index)
    low = model.cond_level.min(axis=1).astype(index)
    # keys: (negated level, suffix) for a constant row, L*S + c for context c
    # otherwise; ranking the keys that occur numbers the classes
    key = np.where(low == model.cond_level.max(axis=1), ctx % S - low * S, L * S + ctx)
    used = np.zeros(L * S + C, dtype=bool)
    used[key] = True
    rank = np.cumsum(used, dtype=index) - 1
    of = rank[key]
    rep = np.empty(int(rank[-1]) + 1, dtype=index)
    rep[of] = ctx  # any member stands for its class
    del ctx, low, key, used, rank  # C-sized; not kept through the CSR build
    step = _level_csr(-model.cond_level[rep], L, rep % S * sigma, of)
    root = _level_csr(-model.init_level[None, :], L, np.zeros(1, dtype=index), of)
    tabs = _Tables(of, step, root)
    model._enum_tables = tabs
    return tabs


def _root_rows(tabs: _Tables, layer: np.ndarray, budget: int) -> Iterator[np.ndarray]:
    """Per level v of the initial grams, row budget - v of layer at their
    classes: what the rest of the string adds to each gram's count or reach."""
    start, cls = tabs.root.start, tabs.root.cls
    for v in range(min(len(start) - 1, budget + 1)):
        yield layer[budget - v, cls[start[v]:start[v + 1]]]


def _count_dp(tabs: _Tables, layer: np.ndarray) -> np.ndarray:
    """One backward step of the level-sum dynamic program, over the class
    CSR tabs.step.

    layer[s, c] is the number of ways r transitions from class c add up
    to s negated levels (for a bool layer: whether there is one). Returns
    the same for r + 1 transitions: the sum, over the transitions c -> c2 at
    each level a <= s, of layer[s - a, c2]. Integer layers are exact as long
    as no sum overflows; an object layer holds Python ints.
    """
    width, C = layer.shape
    start, succ_cls = tabs.step.start, tabs.step.cls
    merge = np.logical_or if layer.dtype == bool else np.add
    out = np.zeros_like(layer)
    for level in range(min(width, (len(start) - 1) // C)):
        bounds = start[level * C:(level + 1) * C + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        if lo == hi:
            continue
        rows = np.flatnonzero(bounds[1:] != bounds[:-1])
        first = bounds[rows]
        # gather a slice of whole blocks at a time, so that no gather holds
        # more than the width * C cells of one layer: a slice takes the
        # blocks that start within one stretch of cap - a entries, a the
        # longest block, so it spans under cap entries (a block longer than
        # cap is a slice of its own)
        cap = C * width // (width - level)
        cuts = []
        if hi - lo > cap:
            piece = max(cap - int(np.diff(bounds).max()), 1)
            cuts = (np.flatnonzero(np.diff((first - lo) // piece)) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(rows)]):
            s_lo, s_hi = int(first[a]), int(first[b]) if b < len(rows) else hi
            gathered = layer[:width - level, succ_cls[s_lo:s_hi]]
            sums = merge.reduceat(gathered, first[a:b] - s_lo, axis=1)
            out[level:, rows[a:b]] = merge(out[level:, rows[a:b]], sums)
    return out


def _reach(model, transitions: int, width: int) -> list[np.ndarray]:
    """can[r][s, c]: some r transitions from class c add up to exactly s.

    Indexed by the classes of _tables(model), whose members share every
    column. Cached on the model. A cell that needs more transitions extends
    the cached layers; one that needs more columns rebuilds them at least
    twice as wide, so a scheduler that walks levels down rebuilds O(log)
    times.
    """
    tabs = _tables(model)
    can = getattr(model, "_enum_reach", None)
    if can is None or can[0].shape[0] < width:
        if can is not None:
            width = max(width, 2 * can[0].shape[0])
        can = [np.zeros((width, tabs.size), dtype=bool)]
        can[0][0] = True
        model._enum_reach = can
    while len(can) <= transitions:
        can.append(_count_dp(tabs, can[-1]))
    return can


def enum_level_vectors(eta: int, k: int, min_level: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors of length k, entries in [min_level, 0], summing to eta.

    Emitted in lexicographically descending order, each exactly once. An eta
    outside [min_level*k, 0] is infeasible and yields nothing.
    """
    if k < 1:
        raise ValueError(f"vector length must be >= 1, got {k}")
    if min_level > 0:
        raise ValueError(f"min_level must be <= 0, got {min_level}")
    if not min_level * k <= eta <= 0:
        return
    # odometer: the first vector packs the sum into the last entries; each
    # step lowers the rightmost entry that can still go down while something
    # to its right can go up, and packs what is left to the right again
    vec = [0] * k
    _pack(vec, 0, eta, min_level)
    while True:
        yield tuple(vec)
        j = k - 2
        tail = vec[k - 1]
        while j >= 0 and (vec[j] == min_level or tail == 0):
            tail += vec[j]
            j -= 1
        if j < 0:
            return
        vec[j] -= 1
        _pack(vec, j + 1, tail + 1, min_level)


def _pack(vec: list[int], first: int, total: int, min_level: int) -> None:
    """Spread total over vec[first:], as low as possible from the right."""
    full, part = divmod(total, min_level) if min_level else (0, 0)
    head = [0] * (len(vec) - first - full)
    if part:
        head[-1] = part
    vec[first:] = head + [min_level] * full


def shortest_length(model) -> int:
    """Shortest enumerable length: room for the initial gram, never below the corpus minimum."""
    return max(DEFAULT_MIN_LENGTH, model.n - 1)


def lowest_level(model, ell: int) -> int:
    """The lowest level sum of a length-ell password: every gram at level
    -(L-1). Raises ValueError for a length the model cannot enumerate."""
    if ell < shortest_length(model):
        raise ValueError(f"length must be >= {shortest_length(model)}, got {ell}")
    return -(model.L - 1) * (ell - (model.n - 2))


def _check_args(model, eta: int, ell: int) -> int:
    """Validate (eta, ell) against the model; returns the vector length k."""
    min_total = lowest_level(model, ell)
    if not min_total <= eta <= 0:
        raise ValueError(f"level must be in [{min_total}, 0] for length {ell}, got {eta}")
    return ell - (model.n - 2)


def enum_pwd(model, eta: int, ell: int) -> Iterator[str]:
    """Stream every length-ell password whose level sum equals eta, once each."""
    k = _check_args(model, eta, ell)
    return _generate(model, eta, ell, k)


def _generate(model, eta, ell, k):
    batch_size = _BATCH
    tabs = _tables(model)
    alphabet = model.alphabet
    walk = _Walk(model, tabs, -eta, k, batch_size)
    out = np.empty((batch_size, ell), dtype=np.int32)
    m = 0
    dead = None
    # an empty cell stops at the root: no initial gram can still reach eta
    if not any(row.any() for row in _root_rows(tabs, walk.can[k - 1], -eta)):
        return
    for vec in enum_level_vectors(eta, k, -(model.L - 1)):
        if dead is not None and vec[:len(dead)] == dead:
            continue
        walk.start(vec)
        while True:
            m += _enum_fill(walk, out, m)
            if m < batch_size:
                break
            yield from alphabet.decode_batch(out)
            m = 0
        # the vectors that share these levels were emitted with vec's run
        # or are empty
        dead = vec[:walk.dead]
    if m:
        yield from alphabet.decode_batch(out[:m])


class _Walk:
    """Frontiers of one cell, one chunk of at most batch_size per depth.

    Depth 0 holds one entry, the root, depth 1 initial grams, depth d > 1
    the prefixes after d - 1 transitions, depth k full strings. An entry is
    a row of ranks (its characters so far; the root has none), a class and
    the level budget it has left. A chunk is generated from the chunk
    above, as a range of its candidate children (the parents' CSR blocks at
    the levels of that depth, level-major and concatenated), and keeps only
    children from whose class the rest of their budget is still reachable.
    A depth below k - 1 takes the vector's level (at k - 2, see below); at
    depth k - 1 each entry's last transition takes its whole budget. Depth 0 reads the root _Csr of _Tables and every
    other depth the class _Csr, so every depth takes the same path:
    candidate q of a depth is at CSR position q + offset[b] of block b with
    cum[b - 1] <= q < cum[b], a child of parent b % parents that keeps
    after[b] of the budget. A child's row is its parent's row followed by
    the last digits of the context it leads to: n - 1 at the root, one at
    every later depth. A chunk of full strings is cut to the room left in
    the output batch and copied there whole.

    Depth k - 2 takes every level of the vector's run, ascending, when its
    frontier is whole; a frontier split over chunks takes only the vector's
    level, since the next chunk's children at the run's first level come
    before this chunk's at its second.

    Chunks that hold a whole frontier (depths 1..full) stay valid for the
    next vector as far as it shares the current vector's prefix. Every
    vector that shares the current vector's first `dead` levels is done:
    its run was emitted with it, or a whole frontier of depth `dead - 1`
    had no children at the vector's next level.
    """

    def __init__(self, model, tabs: _Tables, budget: int, k: int, batch_size: int):
        self.sigma = model.alphabet.size
        self.k = k
        self.top_level = model.L - 1
        self.batch = batch_size
        self.can = _reach(model, k - 1, budget + 1)
        self.csr = [tabs.root] + [tabs.step] * (k - 1)  # the CSR depth d's children come from
        # a child of depth d adds the digits of its context at these powers
        # of sigma: all n - 1 of an initial gram, then only the last one
        index = tabs.root.ctx.dtype
        self.powers = [self.sigma ** np.arange(model.n - 2, -1, -1, dtype=index)]
        self.powers += [np.ones(1, dtype=index)] * (k - 1)
        self.levels: list[int] = []
        self.ranks: list[np.ndarray | None] = [None] * (k + 1)
        self.ranks[0] = np.zeros((1, 0), dtype=np.int32)  # the root: one entry, no characters
        self.cls: list[np.ndarray | None] = [None] * (k + 1)
        self.cls[0] = np.zeros(1, dtype=np.intp)  # the root is the one row of its table
        self.rem: list[np.ndarray | None] = [None] * (k + 1)  # level budget left per entry
        self.rem[0] = np.full(1, budget, dtype=np.intp)
        # children of depth d's chunk: per CSR block the cumulative count,
        # the block end - cum and the budget its children keep; the total,
        # next candidate and number kept
        self.cum: list[np.ndarray | None] = [None] * k
        self.offset: list[np.ndarray | None] = [None] * k
        self.after: list[np.ndarray | None] = [None] * k
        self.total = [0] * k
        self.pos = [0] * k
        self.kept = [0] * k
        self.full = 0
        self.top = -1
        self.dead = k

    def start(self, vec: tuple[int, ...]) -> None:
        """Make vec (levels, not negated) the current vector."""
        levels = [-v for v in vec]
        prev = self.levels
        depth = 0
        limit = min(self.full, self.k - 1)
        while depth < limit and levels[depth] == prev[depth]:
            depth += 1
        self.levels = levels
        self.full = depth
        self.top = depth
        self.dead = self.k
        self._children(depth)

    def _children(self, depth: int) -> None:
        """Set up the candidate children of depth's chunk, level-major."""
        csr = self.csr[depth]
        cls, rem = self.cls[depth], self.rem[depth]
        self.pos[depth] = 0
        self.kept[depth] = 0
        if depth == self.k - 1:
            block = cls + rem * csr.rows  # the last transition spends the rest
        elif depth == self.k - 2 and self.full >= depth:
            # the whole frontier of the run: every split of the rest over
            # the last two transitions, in the run's order
            rest = int(rem[0])  # the same for every entry of the run's prefix
            lv = np.arange(max(0, rest - self.top_level), min(rest, self.top_level) + 1)[:, None]
            block = (cls + lv * csr.rows).reshape(-1)
            self.after[depth] = (rem - lv).reshape(-1)
            self.dead = depth
        else:
            block = cls + self.levels[depth] * csr.rows
            self.after[depth] = rem - self.levels[depth]
        end = csr.start[block + 1]
        cum = np.cumsum(end - csr.start[block])
        self.cum[depth] = cum
        self.offset[depth] = end - cum
        self.total[depth] = int(cum[-1])

    def chunk(self, depth: int, size: int) -> bool:
        """Generate depth + 1's next chunk of at most size candidates; False
        when it kept nothing."""
        q0 = self.pos[depth]
        q1 = min(q0 + size, self.total[depth])
        self.pos[depth] = q1
        whole = q0 == 0 and q1 == self.total[depth]
        csr = self.csr[depth]
        q = np.arange(q0, q1)
        b = np.searchsorted(self.cum[depth], q, side="right")
        at = q + self.offset[depth][b]
        cls = csr.cls[at]
        par = b % self.cls[depth].shape[0]
        left = self.k - 1 - depth
        if left:
            rem = self.after[depth][b]
            keep = self.can[left][rem, cls]
            at = at[keep]
            cls = cls[keep]
            par = par[keep]
            self.rem[depth + 1] = rem[keep]
        self.full = min(self.full, depth)
        if not at.shape[0]:
            return False
        self.kept[depth] += at.shape[0]
        width = self.ranks[depth].shape[1]  # the parents' characters
        ranks = np.empty((at.shape[0], width + self.powers[depth].shape[0]), dtype=np.int32)
        ranks[:, :width] = self.ranks[depth][par]
        ranks[:, width:] = csr.ctx[at][:, None] // self.powers[depth] % self.sigma
        self.ranks[depth + 1] = ranks
        self.cls[depth + 1] = cls
        if whole and self.full == depth:
            self.full = depth + 1
        if depth + 1 < self.k:
            self._children(depth + 1)
        return True

    def write(self, out: np.ndarray, m: int) -> int:
        """Copy the chunk of full strings, as character ranks, into out[m:];
        returns its size."""
        rows = self.ranks[self.k]
        out[m:m + rows.shape[0]] = rows
        return rows.shape[0]


def _enum_fill(walk: _Walk, out: np.ndarray, m: int) -> int:
    """Advance the walk of the current level vector (and of the vectors of
    its run that share its first k - 2 levels, when they run as one pass),
    filling out[m:].

    Depth-first over chunks: a chunk's subtree is finished before the next
    chunk of the same depth is made, so rows come out in the vectors' order
    and in character order within a vector. The last depth keeps every
    candidate, so its chunk is cut to the room left in out and written
    there whole. Stops when out is full or the walk is exhausted, and
    returns the number of rows written; the walk resumes where it stopped.
    """
    k = walk.k
    cap = out.shape[0]
    first = m
    depth = walk.top
    while depth >= 0 and m < cap:
        if walk.pos[depth] < walk.total[depth]:
            if depth + 1 < k:
                if walk.chunk(depth, walk.batch):
                    depth += 1
            else:
                walk.chunk(depth, cap - m)
                m += walk.write(out, m)
        else:
            if not walk.kept[depth] and depth <= walk.full:
                walk.dead = min(walk.dead, depth + 1)
            depth -= 1
    walk.top = depth
    return m - first


def count_guesses(model, eta: int, ell: int) -> int:
    """Size of enum_pwd(model, eta, ell) without materializing guesses.

    The dynamic program runs over the classes of _tables(model), whose
    member contexts share every column, and the root's row reads it at the
    initial grams' classes. Exact at any size: it runs in int64 while its
    entries provably fit and in Python ints beyond that.
    """
    _check_args(model, eta, ell)
    tabs = _tables(model)
    sigma = model.alphabet.size
    budget = -eta
    layer = np.zeros((budget + 1, tabs.size), dtype=np.int64)
    layer[0] = 1
    for _ in range(ell - (model.n - 1)):
        # each entry of the next layer sums at most sigma entries of this one
        if layer.dtype != object and int(layer.max()) * sigma >= 2**63:
            layer = layer.astype(object)
        layer = _count_dp(tabs, layer)
    # reading the initial grams one level at a time keeps the temporaries
    # below one gather over all C; the sum runs in Python ints, since C
    # entries that each fit in int64 can add up past it
    return sum(int(row.sum(dtype=object)) for row in _root_rows(tabs, layer, budget))
