"""Ordered enumeration: every password of length ell whose level sum is eta.

The enumeration walks level vectors (one level for the initial gram, one per
conditional transition) in lexicographically descending order; within one
vector, characters advance in alphabet order. Both choices are arbitrary but
fixed, so two runs over the same model emit byte-identical sequences.

The strings of a vector come from NumPy frontiers, one per vector prefix:
the frontier at depth d holds, in character order, every prefix whose first
d levels match the vector and that can still reach eta. Reachability comes
from the same backward dynamic program that counts a cell (_count_dp), so a
vector whose prefix has no live string costs O(1), and live prefixes are
extended a whole frontier at a time.

That program runs over classes of contexts, not over all |alphabet|**(n-1)
contexts (_classes). A transition leads to a context that depends only on
the last n-2 characters of the one it leaves, so contexts whose transitions
all sit at one level (every context training never saw) and that share
that level and those characters have equal reach and count columns at
every depth; each such group is one class, and every other context a class
of its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, NamedTuple

import numpy as np

from .corpus import DEFAULT_MIN_LENGTH

_BATCH = 1024


class _Tables(NamedTuple):
    """Per-model lookup tables for the walk.

    init_grams: initial-gram ranks grouped by negated level, rank-ascending
    within a group; init_start[v] slices the group for level v.
    succ_next/succ_start: CSR over (negated level, context) blocks, block
    b = level * C + context; each block lists the contexts reached by the
    context's transitions at that level, in ascending character order (the
    character is the new context modulo |alphabet|). The blocks of one
    level are contiguous, in context order.
    """

    init_grams: np.ndarray
    init_start: np.ndarray
    succ_next: np.ndarray
    succ_start: np.ndarray


def _level_csr(neg: np.ndarray, L: int, successor) -> tuple[np.ndarray, np.ndarray]:
    """Level-major CSR over the rows of neg, the negated levels of each row's
    sigma transitions.

    Block b = level * R + row lists the successors of the row's transitions
    at that level, in ascending character order. successor maps an int64
    array of flat positions row * sigma + character to the successors, and
    may overwrite it. Returns (succ_next, succ_start).
    """
    R, sigma = neg.shape
    index = np.int32 if max(L, sigma) * R < 2**31 else np.int64
    # a stable sort by level keeps (row, character) order inside a level
    order = np.argsort(neg.reshape(-1), kind="stable")
    succ_next = successor(order).astype(index)
    del order  # free the int64 sort order before the next R*sigma temporaries
    block = neg.astype(index) * R + np.arange(R, dtype=index)[:, None]
    succ_start = np.zeros(L * R + 1, dtype=index)
    np.cumsum(np.bincount(block.reshape(-1), minlength=L * R), out=succ_start[1:])
    return succ_next, succ_start


def _tables(model) -> _Tables:
    cached = getattr(model, "_enum_tables", None)
    if cached is not None:
        return cached
    L = model.L
    C = model.alphabet.size ** (model.n - 1)
    # transition c*sigma+z leads to context (c*sigma+z) % C
    succ_next, succ_start = _level_csr(-model.cond_level, L,
                                       lambda pos: np.remainder(pos, C, out=pos))
    init_neg = -model.init_level
    init_grams = np.argsort(init_neg, kind="stable").astype(succ_next.dtype)
    init_start = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(np.bincount(init_neg, minlength=L), out=init_start[1:])

    tabs = _Tables(init_grams, init_start, succ_next, succ_start)
    model._enum_tables = tabs
    return tabs


class _Classes(NamedTuple):
    """Contexts merged into classes that share every column of the level-sum
    dynamic program.

    size is the number of classes and of[c] the class of context c.
    succ_next/succ_start: CSR over (negated level, class) blocks, laid out
    as _Tables' context CSR, whose entries are successor classes.
    """

    size: int
    of: np.ndarray
    succ_next: np.ndarray
    succ_start: np.ndarray


def _classes(model) -> _Classes:
    """Group contexts whose DP columns are equal at every depth.

    Transition c*sigma+z leads to (c mod sigma**(n-2))*sigma + z, so a
    context reaches the same successors as every context that ends in the
    same n-2 characters. Two rows whose sigma transitions all sit at one
    level (as every row never seen in training does) thus have equal
    columns when they share that level and those characters, and they are
    one class; every other context is a class of its own.
    """
    cached = getattr(model, "_enum_classes", None)
    if cached is not None:
        return cached
    L = model.L
    sigma = model.alphabet.size
    C = sigma ** (model.n - 1)
    S = C // sigma  # suffixes: a context's last n-2 characters
    index = np.int32 if L * S + C < 2**31 else np.int64
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
    succ = of[(rep % S * sigma)[:, None] + np.arange(sigma, dtype=index)]
    succ_next, succ_start = _level_csr(-model.cond_level[rep], L,
                                       lambda pos: succ.reshape(-1)[pos])
    classes = _Classes(len(rep), of, succ_next, succ_start)
    model._enum_classes = classes
    return classes


def _count_dp(tabs: _Classes, layer: np.ndarray) -> np.ndarray:
    """One backward step of the level-sum dynamic program.

    layer[s, c] is the number of ways r transitions from class c add up
    to s negated levels (for a bool layer: whether there is one). Returns
    the same for r + 1 transitions: the sum, over the transitions c -> c2 at
    each level a <= s, of layer[s - a, c2]. Integer layers are exact as long
    as no sum overflows; an object layer holds Python ints.
    """
    width, C = layer.shape
    start, succ_next = tabs.succ_start, tabs.succ_next
    merge = np.logical_or if layer.dtype == bool else np.add
    out = np.zeros_like(layer)
    for level in range(min(width, (len(start) - 1) // C)):
        bounds = start[level * C:(level + 1) * C + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        if lo == hi:
            continue
        rows = np.flatnonzero(bounds[1:] != bounds[:-1])
        gathered = layer[:width - level, succ_next[lo:hi]]
        sums = merge.reduceat(gathered, bounds[rows] - lo, axis=1)
        out[level:, rows] = merge(out[level:, rows], sums)
    return out


def _reach(model, transitions: int, width: int) -> list[np.ndarray]:
    """can[r][s, c]: some r transitions from context c add up to exactly s.

    The dynamic program runs over _classes(model): the members of a class
    share every column, so each layer is computed once per class and then
    gathered to contexts. Cached on the model. A cell that needs more
    transitions extends the cached layers; one that needs more columns
    rebuilds them at least twice as wide, so a scheduler that walks levels
    down rebuilds O(log) times.
    """
    classes = _classes(model)
    cached = getattr(model, "_enum_reach", None)
    if cached is None or cached[0][0].shape[0] < width:
        if cached is not None:
            width = max(width, 2 * cached[0][0].shape[0])
        first = np.zeros((width, classes.size), dtype=bool)
        first[0] = True
        cached = ([first], [first[:, classes.of]])
    layers, can = cached
    while len(layers) <= transitions:
        layers.append(_count_dp(classes, layers[-1]))
        can.append(layers[-1][:, classes.of])
    model._enum_reach = cached
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
        dead = vec[:walk.dead] if walk.dead else None
    if m:
        yield from alphabet.decode_batch(out[:m])


class _Walk:
    """Frontiers of one cell, one chunk of at most batch_size per depth.

    Depth 1 holds initial grams, depth d > 1 the prefixes after d - 1
    transitions, depth k full strings. Each entry is a context plus the index
    of its parent in the chunk one depth up, so a string is read back by
    following parents. A chunk is generated from the chunk above, as a range
    of its candidate children (the parents' CSR blocks at the vector's level
    for that depth, concatenated), and keeps only children from which the
    rest of the level budget is still reachable.

    Chunks that hold a whole frontier (depths 1..full) stay valid for the
    next vector as far as it shares the current vector's prefix. When a whole
    frontier has no children at the vector's next level, depth `dead` of the
    vector is empty and so is every vector sharing its first `dead` entries.
    """

    def __init__(self, model, tabs: _Tables, budget: int, k: int, batch_size: int):
        self.tabs = tabs
        self.sigma = model.alphabet.size
        self.n1 = model.n - 1
        self.C = self.sigma**self.n1
        self.k = k
        self.batch = batch_size
        self.can = _reach(model, k - 1, budget + 1)
        self.levels: list[int] = []
        self.rem = [budget] * (k + 1)  # level budget left after depth d
        self.ctx: list[np.ndarray | None] = [None] * (k + 1)
        self.par: list[np.ndarray | None] = [None] * (k + 1)
        # children of depth d's chunk: per parent the CSR offset, count and
        # cumulative count; the total, the next candidate, and the children
        # kept so far
        self.offset: list[np.ndarray | None] = [None] * k
        self.counts: list[np.ndarray | None] = [None] * k
        self.cum: list[np.ndarray | None] = [None] * k
        self.total = [0] * k
        self.pos = [0] * k
        self.kept = [0] * k
        self.emitted = 0
        self.full = 0
        self.top = -1
        self.dead = 0

    def start(self, vec: tuple[int, ...]) -> None:
        """Make vec (levels, not negated) the current vector."""
        levels = [-v for v in vec]
        prev = self.levels
        depth = 0
        limit = min(self.full, self.k - 1)
        while depth < limit and levels[depth] == prev[depth]:
            depth += 1
        rem = self.rem
        for d in range(depth, self.k):
            rem[d + 1] = rem[d] - levels[d]
        self.levels = levels
        self.full = depth
        self.top = depth
        self.dead = 0
        self._children(depth)

    def _children(self, depth: int) -> None:
        """Set up the candidate children of depth's chunk at the vector's level."""
        level = self.levels[depth]
        self.pos[depth] = 0
        self.kept[depth] = 0
        if depth == 0:
            lo, hi = self.tabs.init_start[level], self.tabs.init_start[level + 1]
            self.offset[0] = lo
            self.total[0] = int(hi - lo)
            return
        start = self.tabs.succ_start
        block = self.ctx[depth] + level * self.C
        first = start[block]
        counts = start[block + 1] - first
        cum = np.cumsum(counts)
        self.counts[depth] = counts
        self.cum[depth] = cum
        self.offset[depth] = first - (cum - counts)
        self.total[depth] = int(cum[-1])

    def chunk(self, depth: int) -> bool:
        """Generate depth + 1's next chunk; False when it kept nothing."""
        q0 = self.pos[depth]
        q1 = min(q0 + self.batch, self.total[depth])
        self.pos[depth] = q1
        whole = q0 == 0 and q1 == self.total[depth]
        if depth == 0:
            lo = self.offset[0]
            nxt = self.tabs.init_grams[lo + q0:lo + q1]
            par = None
        else:
            # parents p0..p1 hold candidates q0..q1-1; clip the two ends
            cum, counts = self.cum[depth], self.counts[depth]
            p0 = bisect_right(cum, q0)
            p1 = bisect_left(cum, q1)
            take = counts[p0:p1 + 1].copy()
            take[0] -= q0 - (cum[p0] - counts[p0])
            take[-1] -= cum[p1] - q1
            par = np.repeat(np.arange(p0, p1 + 1), take)
            nxt = self.tabs.succ_next[np.arange(q0, q1) + self.offset[depth][par]]
        left = self.k - 1 - depth
        if left:
            keep = self.can[left][self.rem[depth + 1]][nxt]
            nxt = nxt[keep]
            if par is not None:
                par = par[keep]
        self.full = min(self.full, depth)
        if not nxt.shape[0]:
            return False
        self.kept[depth] += nxt.shape[0]
        self.ctx[depth + 1] = nxt
        self.par[depth + 1] = par
        if whole and self.full == depth:
            self.full = depth + 1
        if depth + 1 < self.k:
            self._children(depth + 1)
        else:
            self.emitted = 0
        return True

    def write(self, out: np.ndarray, m: int, count: int) -> None:
        """Write leaves emitted..emitted+count as character ranks into out[m:]."""
        rows = out[m:m + count]
        sigma = self.sigma
        idx = np.arange(self.emitted, self.emitted + count)
        col = self.n1 + self.k - 2
        for d in range(self.k, 1, -1):
            rows[:, col] = self.ctx[d][idx] % sigma
            idx = self.par[d][idx]
            col -= 1
        gram = self.ctx[1][idx]
        for col in range(self.n1 - 1, -1, -1):
            rows[:, col] = gram % sigma
            gram = gram // sigma
        self.emitted += count


def _enum_fill(walk: _Walk, out: np.ndarray, m: int) -> int:
    """Advance the walk of the current level vector, filling out[m:].

    Depth-first over chunks: a chunk's subtree is finished before the next
    chunk of the same depth is made, so rows come out in character order.
    Stops when out is full or the vector is exhausted, and returns the
    number of rows written; the walk resumes where it stopped.
    """
    k = walk.k
    cap = out.shape[0]
    first = m
    depth = walk.top
    while depth >= 0:
        if depth == k:
            count = min(walk.ctx[k].shape[0] - walk.emitted, cap - m)
            if count:
                walk.write(out, m, count)
                m += count
            if walk.emitted < walk.ctx[k].shape[0]:
                break
            depth -= 1
        elif walk.pos[depth] < walk.total[depth]:
            if walk.chunk(depth):
                depth += 1
        else:
            if not walk.kept[depth] and depth <= walk.full:
                walk.dead = depth + 1
            depth -= 1
    walk.top = depth
    return m - first


def count_guesses(model, eta: int, ell: int) -> int:
    """Size of enum_pwd(model, eta, ell) without materializing guesses.

    The dynamic program runs over _classes(model), whose member contexts
    share every column, and the initial grams read their context's class.
    Exact at any size: it runs in int64 while its entries provably fit and
    in Python ints beyond that.
    """
    _check_args(model, eta, ell)
    classes = _classes(model)
    sigma = model.alphabet.size
    budget = -eta
    layer = np.zeros((budget + 1, classes.size), dtype=np.int64)
    layer[0] = 1
    for _ in range(ell - (model.n - 1)):
        # each entry of the next layer sums at most sigma entries of this one
        if layer.dtype != object and int(layer.max()) * sigma >= 2**63:
            layer = layer.astype(object)
        layer = _count_dp(classes, layer)
    # reading the initial grams one level at a time keeps the temporaries
    # below one gather over all C; the sum runs in Python ints, since C
    # entries that each fit in int64 can add up past it
    init_neg = -model.init_level
    return sum(int(layer[budget - v, classes.of[init_neg == v]].sum(dtype=object))
               for v in range(min(model.L, budget + 1)))
