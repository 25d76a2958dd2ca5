"""Self-checks of the benchmark: hooks, per-cell trace, and its manifest."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

BENCH = Path(__file__).resolve().parent


def _traced(argv):
    """omen.cli.main(argv) under the tracer, hooks removed afterwards."""
    import omen.cli

    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        tracer.restart()
        assert omen.cli.main([str(a) for a in argv]) == 0
        tracer.finish()
    finally:
        uninstall()
    return tracer


@pytest.fixture()
def small_model(tmp_path):
    (tmp_path / "alphabet.txt").write_text("abcde\n")
    words = ["abc", "abd", "bcd", "cde", "aab", "abca", "dcba", "eabc", "bbc", "abcd"]
    (tmp_path / "train.txt").write_text("\n".join(words * 20) + "\n")
    (tmp_path / "test.txt").write_text("\n".join(words + ["ccc", "eee", "abab"]) + "\n")
    model = tmp_path / "model.bin"
    import omen.cli

    assert omen.cli.main(["train", "--quiet", "--input", str(tmp_path / "train.txt"),
                          "--alphabet", str(tmp_path / "alphabet.txt"), "--out", str(model)]) == 0
    return tmp_path


def test_hooks_are_removed_after_a_traced_run(small_model):
    import omen.enumerator

    before = omen.enumerator._enum_fill
    _traced(["enum", "--quiet", "--model", small_model / "model.bin", "--level", -2, "--length", 4])
    assert omen.enumerator._enum_fill is before


def test_missing_hook_gives_null_metric(small_model, monkeypatch, capsys):
    import omen.boost

    monkeypatch.delattr(omen.boost, "ngram_set")
    tracer = _traced(["enum", "--quiet", "--model", small_model / "model.bin",
                      "--level", -2, "--length", 4])
    emitted = capsys.readouterr().out.splitlines()
    raw = layers.Raw([tracer.raw()])
    metrics = layers.per_layer_metrics(raw)
    assert tracer.missing == ["similarity.ngram_set"]
    assert metrics["similarity.ngram_set_s"] is None
    assert metrics["similarity.ngram_set_calls"] is None
    assert metrics["enumerator.cells"] == 1
    assert [c["generated"] for c in raw.cells] == [len(emitted)]


def test_cell_trace_adds_up_to_stream_and_cracked_count(small_model, capsys):
    budget = 300
    tracer = _traced(["crack", "--quiet", "--model", small_model / "model.bin",
                      "--test", small_model / "test.txt", "--budget", budget,
                      "--checkpoints", "10,100,300"])
    rows = capsys.readouterr().out.splitlines()
    test_size = len((small_model / "test.txt").read_text().split())
    cracked = round(float(rows[-1].split(",")[1]) * test_size)
    raw = layers.Raw([tracer.raw()])
    metrics = layers.per_layer_metrics(raw)
    assert sum(c["generated"] for c in raw.cells) == budget
    assert sum(c["hits"] for c in raw.cells) == cracked > 0
    assert metrics["evaluation.oracle_calls_per_guess"] == pytest.approx(2.0, abs=0.01)
    assert metrics["scheduler.steps"] == len(raw.cells)
    assert metrics["enumerator.level_vectors"] >= metrics["enumerator.cells"] - 1


def test_manifest_matches_the_benchmark():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    expect = {k: v[:2] for k, v in layers.PER_LAYER.items()}
    expect["trace.overhead_s"] = ("s", "lower")
    assert per_layer == expect


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crack",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
