"""Per-layer tracing of omen, done from outside the program.

Run as a child process, one command per process:

    python perfbench/layers.py [--out RAW.json] cli ARG...
    python perfbench/layers.py [--out RAW.json] count MODEL LENGTH:LEVEL...

`cli` calls omen.cli.main(ARG...) in-process; `count` runs
omen.enumerator.count_guesses on each cell and prints the counts and the
seconds they took as JSON. With --out, timing and counting wrappers are
installed on the module-level functions each layer exposes before the
command runs, and the raw totals are written to RAW.json when it ends.

The layers are omen's modules. A hook is a module global that callers look
up at call time, so replacing it reaches every caller. A hook that no
longer exists is reported as missing and every metric that needs it comes
out as null; the run itself goes on.

Self time is kept by charging the clock to whichever span is innermost, so
a layer's self time excludes every hooked call made inside it. Per-guess
work is added into counters and into one record per (length, level) cell;
no span object is ever made per call.
"""

from __future__ import annotations

import importlib
import json
import logging
import resource
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "cli.main"

# (hook name, module, attribute). The hook name's prefix is its layer.
HOOKS = (
    ("corpus.load_passwords", "omen.cli", "load_passwords"),
    ("corpus.load_hints", "omen.cli", "load_hints"),
    ("corpus.decode_batch", "omen.corpus", "Alphabet.decode_batch"),
    ("model.load_model", "omen.cli", "load_model"),
    ("model.train", "omen.cli", "train"),
    ("model.encode_concat", "omen.model", "_encode_concat"),
    ("model.discretize_array", "omen.model", "_discretize_array"),
    ("model.save_model", "omen.cli", "save_model"),
    ("model.password_probability", "omen.boost", "password_probability"),
    ("enumerator.enum_pwd", "omen.cli", "enum_pwd"),
    ("enumerator.scheduler_enum_pwd", "omen.scheduler", "enum_pwd"),
    ("enumerator.tables", "omen.enumerator", "_tables"),
    ("enumerator.enum_level_vectors", "omen.enumerator", "enum_level_vectors"),
    ("enumerator.count_guesses", "omen.enumerator", "count_guesses"),
    ("kernels.enum_fill", "omen.enumerator", "_enum_fill"),
    ("kernels.count_dp", "omen.enumerator", "_count_dp"),
    ("scheduler.guess_stream", "omen.cli", "guess_stream"),
    ("evaluation.oracle_init", "omen.evaluation", "TestSetOracle.__init__"),
    ("evaluation.oracle_call", "omen.evaluation", "TestSetOracle.__call__"),
    ("evaluation.crack_curve", "omen.cli", "crack_curve"),
    ("evaluation.export_curve", "omen.cli", "export_curve"),
    ("boost.estimate_alpha", "omen.cli", "estimate_alpha"),
    ("boost.objective_S", "omen.boost", "objective_S"),
    ("boost.derive_sets_multi", "omen.boost", "derive_sets_multi"),
    ("boost.boosted_probability", "omen.boost", "boosted_probability"),
    ("similarity.ngram_set", "omen.boost", "ngram_set"),
)

_ENUM_HOOKS = ("enumerator.enum_pwd", "enumerator.scheduler_enum_pwd")


class Span:
    """Totals of one hook: seconds with and without hooked callees, calls,
    and items yielded when the hook returns an iterator."""

    __slots__ = ("name", "layer", "self_s", "incl", "calls", "items")

    def __init__(self, name: str):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.self_s = 0.0
        self.incl = 0.0
        self.calls = 0
        self.items = 0


class Cell:
    __slots__ = ("length", "level", "hits", "items0", "seconds0")

    def __init__(self, length, level, items0, seconds0):
        self.length = length
        self.level = level
        self.hits = Counter()
        self.items0 = items0
        self.seconds0 = seconds0


class Tracer:
    """Span totals for one process, named counters, and one record per
    enumerated (length, level) cell.

    The clock is charged to the innermost open span: each hooked call adds
    the time since the last switch to the span it interrupts.
    """

    def __init__(self):
        self.spans = {name: Span(name) for name, _, _ in HOOKS}
        self.root = self.spans[ROOT_SPAN] = Span(ROOT_SPAN)
        self.stack = [self.root]
        self.last = time.perf_counter()
        self.counters = Counter()
        self.missing: list[str] = []
        self.cells: list[dict] = []
        self.cell: Cell | None = None
        self.vector_rows: int | None = None
        self.oracle_roles: dict[int, str] = {}

    def restart(self) -> None:
        """Drop what was charged so far (imports, hook installation)."""
        self.root.self_s = 0.0
        self.last = time.perf_counter()

    def pause(self, fn, *args):
        """Run bookkeeping work without charging its time to any span."""
        started = time.perf_counter()
        result = fn(*args)
        self.last += time.perf_counter() - started
        return result

    def layer_seconds(self) -> dict[str, float]:
        now = time.perf_counter()
        self.stack[-1].self_s += now - self.last
        self.last = now
        out: dict[str, float] = defaultdict(float)
        for span in self.spans.values():
            out[span.layer] += span.self_s
        return out

    def _enum_items(self) -> int:
        return sum(self.spans[name].items for name in _ENUM_HOOKS)

    # -- cells and level vectors --------------------------------------
    def end_vector(self) -> None:
        if self.vector_rows == 0:
            self.counters["empty_vectors"] += 1
        self.vector_rows = None

    def start_vector(self, _vector=None) -> None:
        self.end_vector()
        self.vector_rows = 0

    def start_cell(self, length, level) -> None:
        self.end_cell()
        self.cell = Cell(length, level, self._enum_items(), self.layer_seconds())

    def end_cell(self) -> None:
        self.end_vector()
        cell = self.cell
        if cell is None:
            return
        now = self.layer_seconds()
        seconds = {k: v - cell.seconds0.get(k, 0.0) for k, v in sorted(now.items())}
        self.cells.append({"length": cell.length, "level": cell.level,
                           "generated": self._enum_items() - cell.items0,
                           "hits": dict(cell.hits),
                           "seconds": {k: v for k, v in seconds.items() if v > 0.0}})
        self.cell = None

    def finish(self) -> None:
        self.end_cell()
        self.layer_seconds()

    def raw(self) -> dict:
        # hits come from the oracle that defines the cracked count: the one
        # crack_curve builds when there is one, else the scheduler's feedback
        role = "curve" if "curve" in self.oracle_roles.values() else "feedback"
        cells = []
        for cell in self.cells:
            hits = cell["hits"].get(role, 0)
            generated = cell["generated"]
            cells.append({**cell, "hits": hits, "sp": hits / generated if generated else 0.0})
        spans = self.spans.values()
        return {"self": {s.name: s.self_s for s in spans}, "incl": {s.name: s.incl for s in spans},
                "calls": {s.name: s.calls for s in spans}, "items": {s.name: s.items for s in spans},
                "counters": dict(self.counters), "missing": list(self.missing), "cells": cells}


# -- wrappers ---------------------------------------------------------------
# The enter/exit bookkeeping is written out in each wrapper rather than
# called, because the per-guess hooks run once per guess.

def _timed(tr: Tracer, span: Span, fn, after=None):
    perf = time.perf_counter
    stack = tr.stack

    def wrapper(*args, **kwargs):
        span.calls += 1
        now = perf()
        stack[-1].self_s += now - tr.last
        stack.append(span)
        tr.last = started = now
        try:
            result = fn(*args, **kwargs)
        finally:
            now = perf()
            span.self_s += now - tr.last
            stack.pop()
            tr.last = now
            span.incl += now - started
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _timed_gen(tr: Tracer, span: Span, fn, on_call=None, on_item=None, on_end=None):
    """Wrap a function returning an iterator; each step is charged to span."""
    perf = time.perf_counter
    stack = tr.stack
    call = _timed(tr, span, fn)

    def iterate(it):
        while True:
            now = perf()
            stack[-1].self_s += now - tr.last
            stack.append(span)
            tr.last = started = now
            try:
                item = next(it)
            except StopIteration:
                if on_end is not None:
                    on_end()
                return
            finally:
                now = perf()
                span.self_s += now - tr.last
                stack.pop()
                tr.last = now
                span.incl += now - started
            span.items += 1
            if on_item is not None:
                on_item(item)
            yield item

    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        return iterate(iter(call(*args, **kwargs)))

    return wrapper


def _arg(args, kwargs, index, key):
    if len(args) > index:
        return args[index]
    return kwargs.get(key)


def _make_wrapper(tr: Tracer, name: str, fn):
    span = tr.spans[name]
    if name in _ENUM_HOOKS:
        def on_call(args, kwargs):
            tr.start_cell(_arg(args, kwargs, 2, "ell"), _arg(args, kwargs, 1, "eta"))
        return _timed_gen(tr, span, fn, on_call)

    if name == "enumerator.enum_level_vectors":
        return _timed_gen(tr, span, fn, on_item=tr.start_vector, on_end=tr.end_vector)

    if name == "scheduler.guess_stream":
        return _timed_gen(tr, span, fn)

    if name == "kernels.enum_fill":
        def after_fill(rows, _args):
            tr.counters["fill_rows"] += int(rows)
            if tr.vector_rows is not None:
                tr.vector_rows += int(rows)
        return _timed(tr, span, fn, after_fill)

    if name == "evaluation.oracle_init":
        def after_init(_none, args):
            inside_curve = tr.spans["evaluation.crack_curve"] in tr.stack
            tr.oracle_roles[id(args[0])] = "curve" if inside_curve else "feedback"
        return _timed(tr, span, fn, after_init)

    if name == "evaluation.oracle_call":
        roles = tr.oracle_roles

        def after_call(hit, args):
            cell = tr.cell
            if cell is not None:
                cell.hits[roles.get(id(args[0]), "feedback")] += hit
        return _timed(tr, span, fn, after_call)

    if name == "corpus.load_hints":
        def after_hints(records, _args):
            tr.counters["hint_records"] += len(records)
        return _timed(tr, span, fn, after_hints)

    if name == "model.train":
        inner = _timed(tr, span, fn)

        def train(*args, **kwargs):
            tr.counters["train_chars"] += tr.pause(lambda c: sum(map(len, c)), args[0])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                return inner(*args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                tr.counters["train_rss_growth_kb"] += after - before
        return train

    return _timed(tr, span, fn)


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    getattr(owner, parts[-1])  # raises AttributeError when the hook is gone
    return owner, parts[-1]


def install(tr: Tracer):
    """Wrap every hook that exists and record the names of those that do not.

    Returns a function that puts the original functions back.
    """
    originals = []
    for name, module_name, attr in HOOKS:
        try:
            owner, final = _resolve(module_name, attr)
        except (ImportError, AttributeError):
            tr.missing.append(name)
            continue
        fn = getattr(owner, final)
        originals.append((owner, final, fn))
        setattr(owner, final, _make_wrapper(tr, name, fn))

    class _ClampCounter(logging.Handler):
        def emit(self, record):
            if "clamped" in record.getMessage():
                tr.counters["clamp_warnings"] += 1

    handler = _ClampCounter(logging.WARNING)
    logging.getLogger("omen.boost").addHandler(handler)

    def uninstall():
        logging.getLogger("omen.boost").removeHandler(handler)
        for owner, final, fn in reversed(originals):
            setattr(owner, final, fn)

    return uninstall


# -- derived per-layer metrics ------------------------------------------------

class Raw:
    """Totals summed over every traced process of one workload run."""

    def __init__(self, parts: list[dict]):
        self.data = {k: Counter() for k in ("self", "incl", "calls", "items", "counters")}
        self.missing: set[str] = set()
        self.cells: list[dict] = []
        for part in parts:
            for key, total in self.data.items():
                total.update(part.get(key, {}))
            self.missing.update(part.get("missing", ()))
            self.cells.extend(part.get("cells", ()))

    def incl(self, *hooks):
        return sum(self.data["incl"][h] for h in hooks)

    def self_s(self, *hooks):
        return sum(self.data["self"][h] for h in hooks)

    def calls(self, *hooks):
        return sum(self.data["calls"][h] for h in hooks)

    def items(self, hook):
        return self.data["items"][hook]

    def count(self, key):
        return self.data["counters"][key]


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, better, hooks needed, value from Raw)
PER_LAYER = {
    "corpus.load_passwords_s": ("s", "lower", ["corpus.load_passwords"],
                                lambda r: r.incl("corpus.load_passwords")),
    "corpus.decode_s": ("s", "lower", ["corpus.decode_batch"],
                        lambda r: r.incl("corpus.decode_batch")),
    "corpus.decode_calls": ("count", "lower", ["corpus.decode_batch"],
                            lambda r: r.calls("corpus.decode_batch")),
    "corpus.load_hints_s": ("s", "lower", ["corpus.load_hints"],
                            lambda r: r.incl("corpus.load_hints")),
    "model.load_s": ("s", "lower", ["model.load_model"], lambda r: r.incl("model.load_model")),
    "model.encode_s": ("s", "lower", ["model.encode_concat"],
                       lambda r: r.incl("model.encode_concat")),
    "model.discretize_s": ("s", "lower", ["model.discretize_array"],
                           lambda r: r.incl("model.discretize_array")),
    "model.train_s": ("s", "lower", ["model.train"], lambda r: r.incl("model.train")),
    "model.count_self_s": ("s", "lower",
                           ["model.train", "model.encode_concat", "model.discretize_array"],
                           lambda r: r.self_s("model.train")),
    "model.save_s": ("s", "lower", ["model.save_model"], lambda r: r.incl("model.save_model")),
    "model.rss_growth_mb": ("MB", "lower", ["model.train"],
                            lambda r: r.count("train_rss_growth_kb") / 1024),
    "model.rss_bytes_per_char": ("B/char", "lower", ["model.train"],
                                 lambda r: _ratio(1024 * r.count("train_rss_growth_kb"),
                                                  r.count("train_chars"))),
    "model.password_probability_s": ("s", "lower", ["model.password_probability"],
                                     lambda r: r.incl("model.password_probability")),
    "model.password_probability_calls_per_record": (
        "calls/record", "lower", ["model.password_probability", "corpus.load_hints"],
        lambda r: _ratio(r.calls("model.password_probability"), r.count("hint_records"))),
    "enumerator.tables_s": ("s", "lower", ["enumerator.tables"],
                            lambda r: r.incl("enumerator.tables")),
    "enumerator.cells": ("count", "lower", list(_ENUM_HOOKS), lambda r: r.calls(*_ENUM_HOOKS)),
    "enumerator.level_vectors": ("count", "lower", ["enumerator.enum_level_vectors"],
                                 lambda r: r.items("enumerator.enum_level_vectors")),
    "enumerator.vectors_per_guess": (
        "ratio", "lower", ["enumerator.enum_level_vectors", "kernels.enum_fill"],
        lambda r: _ratio(r.items("enumerator.enum_level_vectors"), r.count("fill_rows"))),
    "enumerator.empty_vector_ratio": (
        "ratio", "lower", ["enumerator.enum_level_vectors", "kernels.enum_fill"],
        lambda r: _ratio(r.count("empty_vectors"), r.items("enumerator.enum_level_vectors"))),
    "enumerator.self_s": ("s", "lower",
                          [*_ENUM_HOOKS, "enumerator.enum_level_vectors"],
                          lambda r: r.self_s(*_ENUM_HOOKS, "enumerator.enum_level_vectors",
                                             "enumerator.count_guesses")),
    "kernels.enum_fill_s": ("s", "lower", ["kernels.enum_fill"],
                            lambda r: r.incl("kernels.enum_fill")),
    "kernels.enum_fill_calls": ("count", "lower", ["kernels.enum_fill"],
                                lambda r: r.calls("kernels.enum_fill")),
    "kernels.count_dp_s": ("s", "lower", ["kernels.count_dp"], lambda r: r.incl("kernels.count_dp")),
    "scheduler.steps": ("count", "lower", ["enumerator.scheduler_enum_pwd"],
                        lambda r: r.calls("enumerator.scheduler_enum_pwd")),
    "scheduler.self_s": ("s", "lower", ["scheduler.guess_stream"],
                         lambda r: r.self_s("scheduler.guess_stream")),
    "evaluation.oracle_s": ("s", "lower", ["evaluation.oracle_init", "evaluation.oracle_call"],
                            lambda r: r.incl("evaluation.oracle_init", "evaluation.oracle_call")),
    "evaluation.oracle_calls_per_guess": (
        "calls/guess", "lower", ["evaluation.oracle_call", "scheduler.guess_stream"],
        lambda r: _ratio(r.calls("evaluation.oracle_call"), r.items("scheduler.guess_stream"))),
    "evaluation.curve_s": ("s", "lower", ["evaluation.crack_curve", "evaluation.export_curve"],
                           lambda r: r.self_s("evaluation.crack_curve", "evaluation.export_curve")),
    "boost.objective_calls": ("count", "lower", ["boost.objective_S"],
                              lambda r: r.calls("boost.objective_S")),
    "boost.derive_sets_s": ("s", "lower", ["boost.derive_sets_multi"],
                            lambda r: r.self_s("boost.derive_sets_multi")),
    "boost.boosted_probability_self_s": ("s", "lower", ["boost.boosted_probability"],
                                         lambda r: r.self_s("boost.boosted_probability")),
    "boost.clamp_warnings": ("count", "lower", [], lambda r: r.count("clamp_warnings")),
    "similarity.ngram_set_s": ("s", "lower", ["similarity.ngram_set"],
                               lambda r: r.incl("similarity.ngram_set")),
    "similarity.ngram_set_calls": ("count", "lower", ["similarity.ngram_set"],
                                   lambda r: r.calls("similarity.ngram_set")),
    "cli.self_s": ("s", "lower", [], lambda r: r.self_s(ROOT_SPAN)),
}


def per_layer_metrics(raw: Raw) -> dict[str, float | None]:
    """Every PER_LAYER metric; null where a hook it needs is missing."""
    out = {}
    for name, (_unit, _better, needs, value) in PER_LAYER.items():
        out[name] = None if raw.missing.intersection(needs) else float(value(raw))
    return out


# -- child entry point ----------------------------------------------------------

def _count(model_path: str, cells: list[str]) -> int:
    import omen.enumerator
    from omen.cli import load_model

    model = load_model(model_path)
    counts = []
    started = time.perf_counter()
    for cell in cells:
        length, level = (int(x) for x in cell.split(":"))
        counts.append(omen.enumerator.count_guesses(model, level, length))
    seconds = time.perf_counter() - started
    sys.stdout.write(json.dumps({"counts": counts, "seconds": seconds}) + "\n")
    return 0


def main(argv: list[str]) -> int:
    out = None
    if argv[:1] == ["--out"]:
        out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("cli", "count"):
        sys.stderr.write("usage: layers.py [--out RAW.json] (cli ARG... | count MODEL L:E...)\n")
        return 1
    tracer = None
    if out is not None:
        tracer = Tracer()
        install(tracer)
    import omen.cli

    if tracer is not None:
        tracer.restart()
    if argv[0] == "cli":
        rc = omen.cli.main(argv[1:])
    else:
        rc = _count(argv[1], argv[2:])
    sys.stdout.flush()
    if tracer is not None:
        tracer.finish()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
