#!/usr/bin/env python3
"""Benchmark for omen: seeded workloads run through the real command line.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all --seed N      # every workload, both modes
    python3 perfbench/run.py --compare OLD.json NEW.json  # refuses mixed backends

Run it from the root of a source checkout; the program is taken from
`src/`. Inputs are generated from the seed and trained outside the clock,
then cached under perfbench/_work/ with a sha256 per file. Each command
runs in a fresh `python -m omen.cli` process with `src` on the path; its
wall time and peak RSS (from os.wait4) are taken from outside.

Each run repeats the workload for about --seconds. A repetition runs the
workload's set-up command (the same command on the smallest input), then
perfbench/calibrate.py, a fixed reference computation, then the workload.
It reports medians over repetitions: set-up time, peak RSS, and the
workload's wall time and rate in units of the reference computation's time
(wall_ref, items_per_ref), with the raw seconds beside them. Every output
is checked for internal consistency, against the other repetitions, and
against the reference recorded for the seed in perfbench/reference.json
when there is one. A failed check counts as a failed operation; the run
goes on.

With --trace 1 each repetition also runs the same commands under
perfbench/layers.py, which wraps each layer's functions from outside, and
the run reports per-layer metrics instead of end-to-end ones.

The result goes to perfbench/_work/BENCH_<workload>[_trace].json, and its
summary is the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

RUN_LIMIT_S = 170.0  # a run, input generation included, ends within this
MIN_SETUP_SAMPLES = 5

# wall_ref and items_per_ref are wall time and rate in units of the
# reference computation timed beside each repetition (see calibrate.py);
# the raw wall_s and rate are reported beside them.
END_TO_END = {
    "wall_ref": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "items_per_ref": ("1/ref", "higher"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or inputs cannot be made)."""


@dataclass
class Step:
    kind: str  # "cli": python -m omen.cli ARGS; "count": layers.py count ARGS;
    args: list  # "calibrate": calibrate.py
    stdout: Path | None = None


@dataclass
class StepResult:
    wall: float
    rss_mb: float
    ok: bool
    error: str = ""


@dataclass
class Outcome:
    items: int          # work items: guesses, corpus characters or evaluations
    digest: dict        # what is compared with other repetitions and the reference
    problems: list      # failed output checks
    extra: dict         # further per-repetition figures, reported as medians


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Launcher:
    """Starts commands through perfbench/spawn.py, which stays small so that
    the peak RSS reported for each command is the command's own."""

    def __init__(self):
        self.env = child_env()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout, stderr, timeout) -> dict:
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "cwd": str(ROOT),
                   "env": self.env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_step(launcher: Launcher, step: Step, deadline: float,
             trace_out: Path | None = None) -> StepResult:
    """Run one command in a fresh process: its wall time, peak RSS and status."""
    if step.kind == "cli" and trace_out is None:
        argv = [sys.executable, "-m", "omen.cli", *map(str, step.args)]
    elif step.kind == "calibrate":
        argv = [sys.executable, str(BENCH / "calibrate.py")]
    else:
        argv = [sys.executable, str(BENCH / "layers.py")]
        if trace_out is not None:
            argv += ["--out", str(trace_out)]
        argv += [step.kind, *map(str, step.args)]
    limit = deadline - time.perf_counter()
    if limit <= 0:
        return StepResult(0.0, 0.0, False, "no time left in the run")
    err_path = WORK / "stderr.txt"
    done = launcher.run(argv, str(step.stdout) if step.stdout else None, str(err_path), limit)
    wall, rss_mb, code = done["wall"], done["maxrss_kb"] / 1024, done["code"]
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        return StepResult(wall, rss_mb, False, f"exit {code}: {' | '.join(tail)}")
    return StepResult(wall, rss_mb, True)


def train_model(launcher: Launcher, args: list, deadline: float) -> None:
    result = run_step(launcher, Step("cli", ["train", *args]), deadline)
    if not result.ok:
        raise BenchError(f"training an input model failed: {result.error}")


# -- model file, read independently of the program ---------------------------

def read_model_tables(path: Path):
    """(n, L, chars, init_prob, init_level, cond_level) from a model file."""
    blob = path.read_bytes()
    if blob[:4] != b"OMEN":
        raise ValueError("bad magic")
    _version, n, L, alen = np.frombuffer(blob, dtype="<u4", count=4, offset=4).tolist()
    off = 20
    chars = blob[off:off + alen].decode("utf-8")
    off += alen
    sigma = len(chars)
    C = sigma ** (n - 1)
    init_prob = np.frombuffer(blob, dtype="<f8", count=C, offset=off)
    off += 8 * C + 8 * C * sigma
    init_level = np.frombuffer(blob, dtype="i1", count=C, offset=off).astype(np.int64)
    off += C
    cond_level = np.frombuffer(blob, dtype="i1", count=C * sigma, offset=off).astype(np.int64)
    if off + C * sigma != len(blob):
        raise ValueError("model file size does not match its header")
    return n, L, chars, init_prob, init_level, cond_level


def _rank_table(chars: str) -> np.ndarray:
    table = np.full(256, -1, dtype=np.int64)
    table[np.frombuffer(chars.encode("ascii"), dtype=np.uint8)] = np.arange(len(chars))
    return table


def string_levels(model_path: Path, lines: list[bytes], length: int) -> np.ndarray:
    """Level sum of each equal-length line, computed from the model tables."""
    n, _L, chars, _p, init_level, cond_level = read_model_tables(model_path)
    sigma = len(chars)
    ctx_size = sigma ** (n - 1)
    codes = _rank_table(chars)[np.frombuffer(b"".join(lines), dtype=np.uint8)]
    codes = codes.reshape(len(lines), length)
    if (codes < 0).any():
        raise ValueError("a guess has a character outside the model's alphabet")
    ctx = np.zeros(len(lines), dtype=np.int64)
    for j in range(n - 1):
        ctx = ctx * sigma + codes[:, j]
    total = init_level[ctx]
    for j in range(n - 1, length):
        total = total + cond_level[ctx * sigma + codes[:, j]]
        ctx = (ctx * sigma + codes[:, j]) % ctx_size
    return total


# -- workloads -------------------------------------------------------------------
# Each workload names its inputs, its set-up command (the same command on the
# smallest input), the commands it times, and how to check their outputs.
# Work per repetition is kept to a few seconds so that a run holds enough
# repetitions for its medians to be steady on a machine whose speed drifts.

class Workload:
    rate_name = "items_per_s"  # the raw rate's name in the result file

    def once(self, launcher, d, deadline, trace_out):
        """Untimed work done once per run; returns (context, step results)."""
        return {}, []

    def cell_totals(self, digest):
        """(guesses, hits) the traced per-cell records must add up to, if any."""
        return None

    def rate(self, items, walls, setup_s):
        return items / sum(walls)


class Crack(Workload):
    name = "crack"
    why = ("adaptive cracking, 1e5 guesses, sigma=20: output-bound guess stream; the only "
           "workload with feedback, the scheduler and crack curves")
    rate_name = "guesses_per_s"
    rate_means = "guesses / (eval wall time - setup_s)"
    BUDGET = 100_000
    CHECKPOINTS = (1_000, 10_000, 100_000)
    TEST_SIZE = 10_000

    def prepare(self, seed, d, launcher, deadline):
        inputs.crack_inputs(seed, d / "train.txt", d / "test.txt", d / "alphabet.txt")
        train_model(launcher, ["--input", d / "train.txt", "--alphabet", d / "alphabet.txt",
                               "--out", d / "model.bin"], deadline)
        return ["train.txt", "test.txt", "alphabet.txt", "model.bin"]

    def _eval(self, d, budget, out):
        cps = ",".join(str(c) for c in self.CHECKPOINTS)
        return Step("cli", ["eval", "--model", d / "model.bin", "--test", d / "test.txt",
                            "--budget", budget, "--checkpoints", cps, "--out", d / out])

    def setup_steps(self, d):
        return [self._eval(d, 1, "setup_curve.csv")]

    def steps(self, d):
        return [self._eval(d, self.BUDGET, "curve.csv")]

    def outcome(self, d, context):
        text = (d / "curve.csv").read_text()
        problems = []
        rows = [line.split(",") for line in text.splitlines()]
        cracked = -1
        if rows[:1] != [["guesses", "fraction"]] or any(len(r) != 2 for r in rows):
            problems.append("curve CSV is malformed")
        else:
            cps = [int(r[0]) for r in rows[1:]]
            fracs = [float(r[1]) for r in rows[1:]]
            hits = [f * self.TEST_SIZE for f in fracs]
            if cps != list(self.CHECKPOINTS):
                problems.append(f"curve checkpoints {cps} are not {list(self.CHECKPOINTS)}")
            elif any(b < a for a, b in zip(fracs, fracs[1:])) or not 0 <= fracs[0] <= fracs[-1] <= 1:
                problems.append("curve fractions are not non-decreasing within [0, 1]")
            elif any(abs(h - round(h)) > 1e-6 for h in hits):
                problems.append("a curve fraction is not a whole number of test passwords")
            else:
                cracked = round(hits[-1])
        digest = {"curve_sha256": _sha(text.encode()), "cracked": cracked}
        return Outcome(self.BUDGET, digest, problems, {"cracked": cracked})

    def rate(self, items, walls, setup_s):
        return items / (walls[0] - setup_s)

    def cell_totals(self, digest):
        return self.BUDGET, digest["cracked"]


class EnumDeep(Workload):
    name = "enum-deep"
    why = ("two long, deep cells of a 72-char model whose level vectors far outnumber "
           "their guesses: the per-vector walk; no scheduler or oracle")
    rate_name = "guesses_per_s"
    rate_means = "guesses / sum over cells of (enum wall time - setup_s)"
    # (length, level): 19,448 level vectors for 299 guesses, and 11,628
    # vectors for none, on this workload's 72-character model
    CELLS = ((12, -7), (16, -5))
    CELL_SIZES = (299, 0)  # count_guesses on CELLS for every seed

    def prepare(self, seed, d, launcher, deadline):
        inputs.renamed_corpus72(seed, 300_000, d / "corpus.txt")
        train_model(launcher, ["--input", d / "corpus.txt", "--out", d / "model.bin"], deadline)
        return ["corpus.txt", "model.bin"]

    def setup_steps(self, d):
        length = self.CELLS[0][0]
        return [Step("cli", ["enum", "--model", d / "model.bin", "--level", 0,
                             "--length", length, "--max", 1], d / "setup_enum.txt")]

    def steps(self, d):
        return [Step("cli", ["enum", "--model", d / "model.bin", "--level", level,
                             "--length", length], d / f"cell_{length}_{-level}.txt")
                for length, level in self.CELLS]

    def once(self, launcher, d, deadline, trace_out):
        """Counts the enumeration is checked against.

        Renaming characters keeps every cell's size, so untraced runs check
        against the sizes count_guesses gave when the benchmark was defined;
        its DP takes several seconds per cell here, time better spent on
        repetitions. The traced run runs count_guesses on every cell, in its
        own process and outside the clock, checks against that, and reports
        count_s beside the metrics.
        """
        if trace_out is None:
            return {"counts": list(self.CELL_SIZES), "metrics": {}}, []
        step = Step("count", [d / "model.bin", *(f"{ln}:{lv}" for ln, lv in self.CELLS)],
                    d / "counts.json")
        result = run_step(launcher, step, deadline, trace_out)
        context = {"counts": [None] * len(self.CELLS), "metrics": {}}
        if result.ok:
            counted = json.loads((d / "counts.json").read_text())
            context = {"counts": counted["counts"], "metrics": {"count_s": counted["seconds"]}}
        return context, [result]

    def outcome(self, d, context):
        problems = []
        digest = {}
        emitted = 0
        for (length, level), count in zip(self.CELLS, context["counts"]):
            data = (d / f"cell_{length}_{-level}.txt").read_bytes()
            lines = data.split(b"\n")[:-1]
            emitted += len(lines)
            key = f"{length}:{level}"
            digest[key] = {"count": len(lines), "sha256": _sha(data)}
            if count != len(lines):
                problems.append(f"cell {key}: count_guesses says {count}, enum emitted {len(lines)}")
            if len(set(lines)) != len(lines):
                problems.append(f"cell {key}: repeated guesses")
            if any(len(line) != length for line in lines):
                problems.append(f"cell {key}: a guess has the wrong length")
            elif lines:
                try:
                    at_level = (string_levels(d / "model.bin", lines, length) == level).all()
                except ValueError as exc:
                    at_level = False
                    problems.append(f"cell {key}: {exc}")
                if not at_level:
                    problems.append(f"cell {key}: a guess is not at level {level}")
        return Outcome(emitted, digest, problems, {})

    def rate(self, items, walls, setup_s):
        return items / sum(w - setup_s for w in walls)

    def cell_totals(self, digest):
        return sum(v["count"] for v in digest.values()), 0


class Train(Workload):
    name = "train"
    why = ("omen train on a 500k-line 72-char corpus: corpus read, encoding and gram "
           "counting; the workload where memory is the main cost; nothing is enumerated")
    rate_name = "chars_per_s"
    rate_means = "corpus characters / train wall time"
    LINES = 500_000

    def prepare(self, seed, d, launcher, deadline):
        inputs.corpus72(seed, 2, self.LINES, d / "corpus.txt")
        with open(d / "corpus.txt", "rb") as fh:
            (d / "one.txt").write_bytes(fh.readline())
        return ["corpus.txt", "one.txt"]

    def setup_steps(self, d):
        return [Step("cli", ["train", "--input", d / "one.txt", "--out", d / "setup_model.bin"])]

    def steps(self, d):
        return [Step("cli", ["train", "--input", d / "corpus.txt", "--out", d / "model.bin"])]

    def outcome(self, d, context):
        problems = []
        data = (d / "corpus.txt").read_bytes()
        chars = len(data) - data.count(b"\n")
        model = d / "model.bin"
        try:
            n, L, alphabet, init_prob, _il, _cl = read_model_tables(model)
        except (OSError, ValueError) as exc:
            problems.append(f"model file unreadable: {exc}")
        else:
            if (n, L, alphabet) != (3, 10, inputs.DEFAULT_CHARS):
                problems.append(f"model has n={n}, L={L}, alphabet {alphabet!r}")
            else:
                problems += self._check_initial_table(data, alphabet, init_prob)
        digest = {"model_sha256": _sha(model.read_bytes()) if model.exists() else None}
        return Outcome(chars, digest, problems, {})

    @staticmethod
    def _check_initial_table(data: bytes, alphabet: str, init_prob: np.ndarray) -> list:
        """Recount the initial bigrams with numpy and compare the smoothed table."""
        raw = np.frombuffer(data, dtype=np.uint8)
        starts = np.concatenate(([0], np.flatnonzero(raw == ord("\n"))[:-1] + 1))
        ranks = _rank_table(alphabet)
        sigma = len(alphabet)
        grams = ranks[raw[starts]] * sigma + ranks[raw[starts + 1]]
        counts = np.bincount(grams, minlength=sigma * sigma)
        delta = 0.01  # omen's default smoothing count
        expect = (counts + delta) / (counts.sum() + delta * counts.size)
        if not np.allclose(expect, init_prob, rtol=1e-12, atol=0):
            return ["initial-gram table does not match a recount of the corpus"]
        return []


class Alpha(Workload):
    name = "alpha"
    why = ("omen alpha over 1000 hint records, 30% embedding the value: the OMEN+ Python "
           "loops in boost, similarity and scoring; nothing is enumerated")
    rate_name = "evals_per_s"
    rate_means = "records x grid points / alpha wall time"
    RECORDS = 1000
    GRID = [round(1.0 + 0.1 * i, 10) for i in range(41)]  # the CLI's default grid
    ATTRIBUTE = "firstName"

    def prepare(self, seed, d, launcher, deadline):
        inputs.corpus72(seed, 5, 300_000, d / "corpus.txt")
        train_model(launcher, ["--input", d / "corpus.txt", "--out", d / "model.bin"], deadline)
        vocabulary = (d / "corpus.txt").read_text().split("\n")[:-1]
        inputs.hint_records(seed, self.RECORDS, self.ATTRIBUTE, 0.3, vocabulary, d / "hints.jsonl")
        with open(d / "hints.jsonl", "rb") as fh:
            (d / "one.jsonl").write_bytes(fh.readline())
        return ["corpus.txt", "model.bin", "hints.jsonl", "one.jsonl"]

    def _alpha(self, d, hints, out):
        return Step("cli", ["alpha", "--model", d / "model.bin", "--hints", d / hints,
                            "--attribute", self.ATTRIBUTE], d / out)

    def setup_steps(self, d):
        return [self._alpha(d, "one.jsonl", "setup_alpha.csv")]

    def steps(self, d):
        return [self._alpha(d, "hints.jsonl", "alpha.csv")]

    def outcome(self, d, context):
        problems = []
        lines = (d / "alpha.csv").read_text().splitlines()
        line = lines[1] if len(lines) == 2 and lines[0] == "alpha,lnAlpha,boostLevel" else None
        if line is None:
            problems.append("alpha output is malformed")
        else:
            alpha_s, ln_s, boost_s = line.split(",")
            alpha = float(alpha_s)
            if not any(abs(alpha - a) < 1e-9 for a in self.GRID):
                problems.append(f"alpha {alpha} is not a grid point")
            elif ln_s != f"{math.log(alpha):.6g}" or int(boost_s) != max(0, min(9, round(math.log(alpha)))):
                problems.append(f"lnAlpha or boostLevel do not follow from alpha in {line!r}")
        return Outcome(self.RECORDS * len(self.GRID), {"line": line}, problems, {})


WORKLOADS = {w.name: w for w in (Crack(), EnumDeep(), Train(), Alpha())}


# -- inputs ----------------------------------------------------------------------

def _program_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "omen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def prepare_inputs(workload, seed: int, launcher: Launcher, deadline: float) -> dict:
    """Generate (or reuse) the seed's inputs; returns {file name: sha256}.

    Only one seed per workload is kept on disk. Cached inputs are reused only
    when their hashes still match and the program that trained the input
    models is unchanged.
    """
    base = WORK / workload.name
    d = base / f"seed{seed}"
    manifest_path = d / "manifest.json"
    fingerprint = _program_fingerprint()
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("program") == fingerprint and all(
                (d / f).exists() and inputs.sha256_file(d / f) == sha
                for f, sha in manifest["inputs"].items()):
            return manifest["inputs"]
    if base.exists():
        shutil.rmtree(base)
    d.mkdir(parents=True)
    files = workload.prepare(seed, d, launcher, deadline)
    shas = {f: inputs.sha256_file(d / f) for f in files}
    manifest_path.write_text(json.dumps({"program": fingerprint, "inputs": shas}, indent=1))
    return shas


# -- one run -----------------------------------------------------------------------

def environment() -> dict:
    """Backend, interpreter and machine stamp recorded with every result."""
    sys.path.insert(0, str(SRC))
    try:
        from omen._jit import JIT_ENABLED
    except ImportError:  # no JIT switch in the program: plain interpreter
        JIT_ENABLED = False
    finally:
        sys.path.pop(0)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"backend": "numba" if JIT_ENABLED else "interpreter",
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "commit": commit}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def record_reference(workload: str, seed: int, shas: dict, digest: dict) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = refs.setdefault(workload, {})
    if str(seed) not in entry:
        entry[str(seed)] = {"inputs": shas, "outputs": digest}
        refs[workload] = dict(sorted(entry.items(), key=lambda kv: int(kv[0])))
        REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")


def check_cells(workload, digest: dict, raw: layers.Raw) -> list:
    """The traced per-cell records must add up to the stream and its hits."""
    totals = workload.cell_totals(digest)
    if totals is None or not raw.cells:
        return []
    generated = sum(c["generated"] for c in raw.cells)
    hits = sum(c["hits"] for c in raw.cells)
    problems = []
    if generated != totals[0]:
        problems.append(f"trace cells generated {generated}, stream length is {totals[0]}")
    if hits != totals[1]:
        problems.append(f"trace cells hit {hits}, cracked count is {totals[1]}")
    return problems


def run_workload(workload, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with Launcher() as launcher:
        return _run_workload(launcher, workload, seed, seconds, trace, record)


def _run_workload(launcher, workload, seed, seconds, trace, record) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    shas = prepare_inputs(workload, seed, launcher, deadline)
    d = WORK / workload.name / f"seed{seed}"
    reference = load_reference(workload.name, seed)
    problems: list[str] = []
    attempted = failed = 0
    if reference is not None and reference["inputs"] != shas:
        problems.append("generated inputs differ from the reference inputs for this seed")

    def account(results, found):
        nonlocal attempted, failed
        attempted += len(results)
        bad = sum(not r.ok for r in results)
        failed += min(len(results), bad + (1 if found and not bad else 0))
        problems.extend(r.error for r in results if not r.ok)
        problems.extend(found)

    first_digest: list[dict] = []

    def check(results):
        """Outcome of one repetition plus every problem found in its outputs."""
        if not all(r.ok for r in results):
            return None, []
        try:
            out = workload.outcome(d, context)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return None, [f"outputs could not be read: {exc!r}"]
        found = list(out.problems)
        if first_digest and out.digest != first_digest[0]:
            found.append("output differs from the run's first repetition")
        if reference is not None and out.digest != reference["outputs"]:
            found.append(f"output differs from the reference for seed {seed}: {out.digest}")
        first_digest[:1] = first_digest[:1] or [out.digest]
        return out, found

    once_raw = WORK / "raw_once.json"
    once_raw.unlink(missing_ok=True)
    context, results = workload.once(launcher, d, deadline, once_raw if trace else None)
    account(results, [])
    once_parts = [json.loads(once_raw.read_text())] if once_raw.exists() else []

    # Each repetition runs the set-up command, the reference computation and
    # the workload, so set-up samples are spread over the run like the
    # workload's, and each workload time has a reference time taken moments
    # before it under the same load from other tenants.
    setup_walls: list[float] = []
    samples: list[dict] = []
    traced: list[dict] = []
    cells: list[dict] = []
    measuring = time.perf_counter()
    while True:
        began = time.perf_counter()
        results = [run_step(launcher, s, deadline) for s in workload.setup_steps(d)]
        account(results, [])
        setup_walls.append(sum(r.wall for r in results))
        calibration = run_step(launcher, Step("calibrate", []), deadline)
        account([calibration], [])
        results = [run_step(launcher, s, deadline) for s in workload.steps(d)]
        out, found = check(results)
        account(results, found)
        if out is not None and calibration.ok:
            samples.append({"walls": [r.wall for r in results], "items": out.items,
                            "ref_s": calibration.wall,
                            "peak_rss_mb": max(r.rss_mb for r in results), **out.extra})
        if trace:
            parts = list(once_parts)
            results = []
            for i, step in enumerate(workload.steps(d)):
                raw_path = WORK / f"raw_{i}.json"
                raw_path.unlink(missing_ok=True)
                results.append(run_step(launcher, step, deadline, trace_out=raw_path))
                parts.append(json.loads(raw_path.read_text()) if results[-1].ok else {})
            tout, found = check(results)
            raw = layers.Raw(parts)
            if tout is not None:
                found += check_cells(workload, tout.digest, raw)
            account(results, found)
            metrics = layers.per_layer_metrics(raw)
            if out is not None:
                metrics["trace.overhead_s"] = sum(r.wall for r in results) - sum(samples[-1]["walls"])
            traced.append({"metrics": metrics, "missing": sorted(raw.missing)})
            cells = cells or raw.cells
        spent = time.perf_counter() - began
        now = time.perf_counter()
        if now - measuring + spent > seconds or deadline - now < 2 * spent:
            break
    while len(setup_walls) < MIN_SETUP_SAMPLES:
        results = [run_step(launcher, s, deadline) for s in workload.setup_steps(d)]
        account(results, [])
        setup_walls.append(sum(r.wall for r in results))
    setup_s = statistics.median(setup_walls)
    for sample in samples:
        sample["wall_s"] = sum(sample["walls"])
        sample[workload.rate_name] = workload.rate(sample["items"], sample["walls"], setup_s)

    if record and first_digest and not problems:
        record_reference(workload.name, seed, shas, first_digest[0])

    if trace:
        units = {k: v[:2] for k, v in layers.PER_LAYER.items()}
        units["trace.overhead_s"] = ("s", "lower")
        values = {k: _median(t["metrics"].get(k) for t in traced) for k in units}
        missing = sorted({m for t in traced for m in t["missing"]})
        if cells:
            trace_file = WORK / f"trace_{workload.name}_seed{seed}.jsonl"
            trace_file.write_text("".join(json.dumps(c) + "\n" for c in cells))
    else:
        units = END_TO_END
        # ratios of medians: each median is steady within a run, and the
        # slow spells that move one move the other
        ref_s = _median(s["ref_s"] for s in samples)
        wall_s = _median(s["wall_s"] for s in samples)
        rate = _median(s[workload.rate_name] for s in samples)
        values = {"wall_ref": wall_s / ref_s if samples else None,
                  "setup_s": setup_s,
                  "peak_rss_mb": _median(s["peak_rss_mb"] for s in samples),
                  "items_per_ref": rate * ref_s if samples else None}
        missing = []
    metrics = {k: {"value": values[k], "unit": units[k][0], "better": units[k][1]} for k in values}
    side = {k: _median(s[k] for s in samples)
            for k in (samples[0] if samples else {}) if k not in ("walls", "items", *END_TO_END)}
    side.update(context.get("metrics", {}))
    return {
        "workload": workload.name, "why": workload.why, "seed": seed, "trace": trace,
        "rate_means": f"{workload.rate_name} = {workload.rate_means}; "
                      f"items_per_ref = {workload.rate_name} x ref_s",
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "problems": problems[:20], "missing_hooks": missing,
        "metrics": metrics, "workload_metrics": side,
        "repetitions": len(samples), "setup_samples": setup_walls, "samples": samples,
        "reference": "checked" if reference is not None else "none recorded for this seed",
        "inputs": shas, "environment": environment(),
    }


def summary_line(result: dict) -> str:
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if old["environment"]["backend"] != new["environment"]["backend"]:
        print(f"refusing to compare: backend {old['environment']['backend']} vs "
              f"{new['environment']['backend']}", file=sys.stderr)
        return 2
    for name, m in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = m["value"]
        change = f"{after / before - 1:+.1%}" if before and after is not None else "n/a"
        print(f"{name:45s} {before!s:>14.14} {after!s:>14.14} {change:>8} ({m['better']} is better)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="omen benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in reference.json if it has none")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "omen" / "cli.py").is_file():
        print(f"error: no omen source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    try:
        for name in names:
            for trace in modes:
                result = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, args.record)
                suffix = "_trace" if trace else ""
                (WORK / f"BENCH_{name}{suffix}.json").write_text(json.dumps(result, indent=1))
                results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(summary_line(results[0]))
        return 0
    combined = {"seed": args.seed, "environment": results[0]["environment"],
                "runs": {f"{r['workload']}{'_trace' if r['trace'] else ''}": r for r in results}}
    (WORK / "BENCH_all.json").write_text(json.dumps(combined, indent=1))
    metrics = {f"{r['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
               for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
