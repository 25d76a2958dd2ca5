import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import omen
import synth
from omen import load_curve, load_model
from omen.cli import _parse_checkpoints, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def checkout_env() -> dict[str, str]:
    """Environment for a child Python that imports the same omen as this process."""
    src = str(Path(omen.__file__).resolve().parent.parent)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, trained model, hints, and profile shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    alphabet = synth.make_alphabet(10)
    train_set, test_set = synth.zipf_corpus(41, alphabet, 3000, 20000, 500)

    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(train_set) + "\n")
    test_file = root / "test.txt"
    test_file.write_text("\n".join(test_set) + "\n")
    alpha_file = root / "alphabet.txt"
    alphabet.to_file(alpha_file)

    model_file = root / "model.omen"
    rc = main(["train", "--input", str(corpus), "--out", str(model_file),
               "--alphabet", str(alpha_file), "--quiet"])
    assert rc == 0

    hints = root / "hints.jsonl"
    records = synth.hint_records(42, alphabet, 60, "firstName", 0.4, train_set[:200])
    with open(hints, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"password": rec.password,
                                 "attributes": rec.attributes}) + "\n")

    profile = root / "profile.csv"
    profile.write_text("attribute,alpha,boostLevel\nfirstName,3,1\n")
    return {"root": root, "corpus": corpus, "test": test_file,
            "model": model_file, "hints": hints, "profile": profile}


# --- train -------------------------------------------------------------------


def test_train_writes_loadable_model(workdir):
    model = load_model(workdir["model"])
    assert model.n == 3 and model.L == 10


def test_train_missing_input_exits_2(workdir, capsys):
    rc = main(["train", "--input", str(workdir["root"] / "nope.txt"),
               "--out", str(workdir["root"] / "m2"), "--quiet"])
    assert rc == 2
    capsys.readouterr()


def test_train_bad_parameters_exit_1(workdir):
    rc = main(["train", "--input", str(workdir["corpus"]),
               "--out", str(workdir["root"] / "m3"), "-n", "1", "--quiet"])
    assert rc == 1


def test_train_refuses_an_order_over_the_table_cap(workdir, capsys, caplog):
    out = workdir["root"] / "m5"
    rc = main(["train", "--input", str(workdir["corpus"]), "--out", str(out),
               "-n", "5000", "--quiet"])
    assert rc == 1
    assert "exceed 200000000 cells" in caplog.text
    assert not out.exists()
    capsys.readouterr()


def test_train_non_finite_delta_exit_1(workdir, capsys, caplog):
    # refused before any division: pytest turns a NumPy RuntimeWarning into an error
    for delta in ("inf", "nan"):
        caplog.clear()
        rc = main(["train", "--input", str(workdir["corpus"]),
                   "--out", str(workdir["root"] / "m4"), "--delta", delta, "--quiet"])
        assert rc == 1, delta
        assert "smoothing delta must be finite" in caplog.text, delta
        assert not (workdir["root"] / "m4").exists(), delta
    capsys.readouterr()


def test_train_logs_the_tallies_of_its_one_pass(tmp_path, caplog):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"abc\r\nab\rpassword\n\nbad char\nzzz")
    out = tmp_path / "model.bin"
    with caplog.at_level("INFO", logger="omen"):
        assert main(["train", "--input", str(corpus), "--out", str(out)]) == 0
    assert "loaded 3 passwords (3 rejected)" in caplog.text
    assert out.exists()


def test_train_with_nothing_usable_exits_2_and_writes_nothing(tmp_path, caplog):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ab\nbad char\n")
    out = tmp_path / "model.bin"
    assert main(["train", "--input", str(corpus), "--out", str(out), "--quiet"]) == 2
    assert f"no usable passwords in {corpus} (rejected 2)" in caplog.text
    assert not out.exists()


def test_train_on_bytes_that_are_not_utf8_exits_2_and_writes_nothing(tmp_path, caplog):
    corpus = tmp_path / "corpus.txt"
    # the bad byte comes after a whole chunk of good lines, mid-stream
    corpus.write_bytes(b"password\n" * 20_000 + b"pass\xffword\n")
    out = tmp_path / "model.bin"
    assert main(["train", "--input", str(corpus), "--out", str(out), "--quiet"]) == 2
    assert f"{corpus}: not UTF-8" in caplog.text
    assert not out.exists()


def test_train_with_an_alphabet_file_that_is_not_utf8_exits_2(workdir, tmp_path, caplog):
    alphabet = tmp_path / "alphabet.txt"
    alphabet.write_bytes(b"abc\xff\n")
    out = tmp_path / "model.bin"
    assert main(["train", "--input", str(workdir["corpus"]), "--alphabet", str(alphabet),
                 "--out", str(out), "--quiet"]) == 2
    assert f"{alphabet}: not UTF-8" in caplog.text
    assert not out.exists()


def test_train_memory_does_not_grow_with_the_corpus(tmp_path):
    # the file is streamed through training: 4x the lines, the same peak
    words = synth.markov_words(17, omen.Alphabet.default(), 80_000)

    def peak(lines):
        corpus = tmp_path / f"corpus{lines}.txt"
        corpus.write_text("\n".join(words[:lines]) + "\n")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(["train", "--input", str(corpus), "--out", str(tmp_path / "m.bin"),
                         "--quiet"]) == 0
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(80_000)
    assert large <= small + 512 * 1024, (small, large)


def test_train_is_deterministic(workdir):
    out1 = workdir["root"] / "det1.omen"
    out2 = workdir["root"] / "det2.omen"
    assert main(["train", "--input", str(workdir["corpus"]), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["train", "--input", str(workdir["corpus"]), "--out", str(out2),
                 "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- enum --------------------------------------------------------------------


def test_enum_emits_level_batch(workdir, capsys):
    rc = main(["enum", "--model", str(workdir["model"]), "--level", "0",
               "--length", "4", "--quiet"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    from omen.enumerator import enum_pwd

    assert lines == list(enum_pwd(load_model(workdir["model"]), 0, 4))


def test_enum_max_truncates(workdir, capsys):
    rc = main(["enum", "--model", str(workdir["model"]), "--level", "-2",
               "--length", "4", "--max", "5", "--quiet"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_enum_positive_level_exits_1(workdir, capsys):
    rc = main(["enum", "--model", str(workdir["model"]), "--level", "1",
               "--length", "4", "--quiet"])
    assert rc == 1
    capsys.readouterr()


def test_enum_missing_model_exits_2(workdir, capsys):
    rc = main(["enum", "--model", str(workdir["root"] / "ghost.omen"),
               "--level", "0", "--length", "4", "--quiet"])
    assert rc == 2
    capsys.readouterr()


def test_enum_corrupt_model_exits_2(workdir, capsys):
    bad = workdir["root"] / "corrupt.omen"
    bad.write_bytes(workdir["model"].read_bytes()[:40])
    rc = main(["enum", "--model", str(bad), "--level", "0", "--length", "4",
               "--quiet"])
    assert rc == 2
    capsys.readouterr()


# --- info --------------------------------------------------------------------


def test_info_summarises_a_model(workdir, tmp_path, capsys):
    assert main(["info", "--model", str(workdir["model"]), "--quiet"]) == 0
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    model = load_model(workdir["model"])
    dense = model.cond_prob
    # a context that training never saw holds delta/(delta*sigma) in every cell
    unseen = (dense != 0.01 / (0.01 * 10)).any(axis=1)
    assert 0 < unseen.sum() < unseen.size
    assert int(fields["explicit conditional rows"]) == unseen.sum()
    assert [fields[k] for k in ("n", "L", "alphabet size", "contexts")] == ["3", "10", "10", "100"]
    histogram = [pair.split(":") for pair in fields["cond_level histogram"].split()]
    assert [int(level) for level, _ in histogram] == list(range(0, -10, -1))
    assert [int(count) for _, count in histogram] == [
        int((model.cond_level == level).sum()) for level in range(0, -10, -1)]
    assert int(fields["bytes cond_level"]) == dense.size
    assert int(fields["bytes init_prob"]) == 8 * 100

    bad = tmp_path / "bad.omen"
    bad.write_bytes(workdir["model"].read_bytes()[:-1])
    assert main(["info", "--model", str(bad), "--quiet"]) == 2
    assert capsys.readouterr().out == ""


# --- crack / eval ---------------------------------------------------------------


def test_crack_summary_line(workdir, capsys):
    rc = main(["crack", "--model", str(workdir["model"]), "--test",
               str(workdir["test"]), "--budget", "20000", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "guesses,cracked,fraction"
    made, cracked, fraction = out[1].split(",")
    assert int(made) == 20000
    assert 0 < int(cracked) <= 500
    assert 0.0 < float(fraction) <= 1.0


def test_crack_checkpoint_curve(workdir, capsys):
    rc = main(["crack", "--model", str(workdir["model"]), "--test",
               str(workdir["test"]), "--budget", "20000",
               "--checkpoints", "1e2,1e3,2e4", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "guesses,fraction"
    cps = [int(line.split(",")[0]) for line in out[1:]]
    fracs = [float(line.split(",")[1]) for line in out[1:]]
    assert cps == [100, 1000, 20000]
    assert fracs == sorted(fracs)


def test_eval_writes_curve(workdir):
    out = workdir["root"] / "curve.csv"
    rc = main(["eval", "--model", str(workdir["model"]), "--test",
               str(workdir["test"]), "--budget", "20000",
               "--checkpoints", "1e2,1e3,1e4", "--out", str(out), "--quiet"])
    assert rc == 0
    curve = load_curve(out)
    assert curve.checkpoints == (100, 1000, 10000)


def test_eval_reruns_identically(workdir):
    a = workdir["root"] / "curve_a.csv"
    b = workdir["root"] / "curve_b.csv"
    argv = ["eval", "--model", str(workdir["model"]), "--test",
            str(workdir["test"]), "--budget", "10000",
            "--checkpoints", "1e2,1e4", "--quiet"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_crack_on_a_test_set_that_is_not_utf8_exits_2(workdir, tmp_path, capsys, caplog):
    test = tmp_path / "test.txt"
    test.write_bytes(b"abc\n\xc3(\n")
    rc = main(["crack", "--model", str(workdir["model"]), "--test", str(test),
               "--budget", "10", "--quiet"])
    assert rc == 2
    assert f"{test}: not UTF-8" in caplog.text
    assert capsys.readouterr().out == ""


def test_crack_bad_checkpoints_exit_1(workdir, capsys, caplog):
    out = workdir["root"] / "never_written.csv"
    for checkpoints in ("abc", "10,inf", "10,nan", "1e400", "10,20.5", "1e1000000000"):
        for extra in ([], ["--out", str(out)]):
            cmd = "eval" if extra else "crack"
            caplog.clear()
            rc = main([cmd, "--model", str(workdir["model"]), "--test",
                       str(workdir["test"]), "--budget", "100",
                       "--checkpoints", checkpoints, "--quiet", *extra])
            assert rc == 1, (cmd, checkpoints)
            assert "bad checkpoint list" in caplog.text
    assert not out.exists()
    capsys.readouterr()


def test_checkpoint_order_is_checked_before_the_model_is_read(tmp_path, caplog):
    missing = tmp_path / "no_model.bin"
    for cmd, extra in (("crack", []), ("eval", ["--out", str(tmp_path / "c.csv")])):
        for checkpoints in ("10,5", "0,5", "7,7"):
            caplog.clear()
            rc = main([cmd, "--model", str(missing), "--test", str(tmp_path / "no_test.txt"),
                       "--budget", "100", "--checkpoints", checkpoints, "--quiet", *extra])
            assert rc == 1, (cmd, checkpoints)
            assert "checkpoints must be non-empty, >= 1 and strictly ascending" in caplog.text
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("cmd,options,message", [
    ("enum", ["--level", "0", "--length", "5", "--max", "0"], "--max must be >= 1"),
    ("crack", ["--test", "{missing}", "--budget", "0"], "--budget must be >= 1"),
    ("eval", ["--test", "{missing}", "--budget", "0", "--out", "{missing}.csv"],
     "--budget must be >= 1"),
    ("plus", ["--hints", "{missing}", "--profile", "{missing}", "--budget", "0"],
     "--budget must be >= 1"),
    ("plus", ["--hints", "{missing}", "--profile", "{missing}", "--budget", "10",
              "--target", "-1"], "--target must be >= 0"),
    ("alpha", ["--hints", "{missing}", "--attribute", "firstName", "--grid", "5:1:0.1"],
     "bad grid"),
    ("alpha", ["--hints", "{missing}", "--attribute", "firstName", "--grid", "0.5:9:0.5"],
     "alpha grid must lie within"),
    ("alpha", ["--hints", "{missing}", "--attribute", "firstName", "--exponent", "1.5"],
     "exponent b must be finite and negative"),
    ("crack", ["--test", "{missing}", "--budget", "10", "--min-len", "5", "--max-len", "4"],
     "--min-len must be >= 1 and <= --max-len, got --min-len 5 and --max-len 4"),
    ("eval", ["--test", "{missing}", "--budget", "10", "--out", "{missing}.csv",
              "--min-len", "5", "--max-len", "4"],
     "--min-len must be >= 1 and <= --max-len, got --min-len 5 and --max-len 4"),
    ("crack", ["--test", "{missing}", "--budget", "10", "--min-len", "0"],
     "--min-len must be >= 1 and <= --max-len, got --min-len 0"),
    ("enum", ["--level", "1", "--length", "5"], "--level must be <= 0, got 1"),
    ("enum", ["--level", "0", "--length", "2"], "--length must be >= 3, got 2"),
], ids=["enum-max", "crack-budget", "eval-budget", "plus-budget", "plus-target", "alpha-grid",
        "alpha-grid-range", "alpha-exponent", "crack-lengths", "eval-lengths", "crack-min-len",
        "enum-level", "enum-length"])
def test_numeric_options_are_checked_before_any_file_is_read(tmp_path, caplog, cmd, options,
                                                             message):
    # every file named is missing, so a command that read one first would exit 2
    missing = tmp_path / "missing"
    rc = main([cmd, "--model", str(missing), "--quiet",
               *(option.format(missing=missing) for option in options)])
    assert rc == 1
    assert message in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_refused_before_any_work(workdir, tmp_path, monkeypatch, caplog):
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr("omen.cli.guess_stream", never)
    monkeypatch.setattr("omen.cli.train", never)
    out = tmp_path / "no_such_dir" / "out.csv"
    runs = (["eval", "--model", str(workdir["model"]), "--test", str(workdir["test"]),
             "--budget", "300000", "--out", str(out)],
            ["train", "--input", str(workdir["corpus"]), "--out", str(out)],
            ["train", "--input", str(workdir["corpus"]), "--out", str(tmp_path)])
    for argv in runs:
        caplog.clear()
        assert main([*argv, "--quiet"]) == 2, argv
        assert argv[-1] in caplog.text
    assert not out.parent.exists()


def test_eval_file_matches_crack_checkpoint_output(workdir, capsys):
    out = workdir["root"] / "curve_same.csv"
    argv = ["--model", str(workdir["model"]), "--test", str(workdir["test"]),
            "--budget", "5000", "--checkpoints", "1e2,1e3,5e3", "--quiet"]
    assert main(["crack", *argv]) == 0
    printed = capsys.readouterr().out
    assert main(["eval", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


def test_checkpoints_parse_exactly():
    assert _parse_checkpoints("10000000000000001") == [10000000000000001]
    assert _parse_checkpoints("1e3, 2E4,,20.0,2.5e+3,007") == [1000, 20000, 20, 2500, 7]
    assert _parse_checkpoints("9" * 309) == [10**309 - 1]
    # 1e1000000000 would take minutes to expand; it is refused from its exponent
    for text in ("20.5", "2.55e1", "inf", "nan", "-5", "1e309", "1" + "0" * 309,
                 "1e1000000000", "1e-1000000000", "1e-3", "0x10", "1 0"):
        with pytest.raises(ValueError, match="bad checkpoint list"):
            _parse_checkpoints(text)


# --- password length range ---------------------------------------------------------


@pytest.fixture(scope="module")
def order5(tmp_path_factory):
    """An n=5 model over the ten digits, whose shortest enumerable length is 4."""
    root = tmp_path_factory.mktemp("order5")
    (root / "alphabet.txt").write_text("0123456789\n")
    words = synth.markov_words(5, omen.Alphabet("0123456789"), 400, min_len=3, max_len=8)
    (root / "train.txt").write_text("\n".join(words) + "\n")
    (root / "test.txt").write_text("\n".join(words[:50]) + "\n")
    (root / "hints.jsonl").write_text(json.dumps(
        {"password": words[0], "attributes": {"birthday": [words[1]]}}) + "\n")
    (root / "profile.csv").write_text("attribute,alpha,boostLevel\nbirthday,3,1\n")
    assert main(["train", "--input", str(root / "train.txt"), "--alphabet",
                 str(root / "alphabet.txt"), "-n", "5", "--out", str(root / "model"),
                 "--quiet"]) == 0
    assert any(len(w) == 3 for w in words[:50])
    return root


def test_streams_of_an_order5_model_start_at_length_4(order5, capsys):
    d = order5
    model = load_model(d / "model")
    assert next(omen.guess_stream(model, 1)).length == 4
    attack = ["--model", str(d / "model"), "--test", str(d / "test.txt"),
              "--budget", "300", "--quiet"]
    assert main(["crack", *attack]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("300,")
    assert main(["eval", *attack, "--checkpoints", "10,300", "--out", str(d / "c.csv")]) == 0
    assert load_curve(d / "c.csv").checkpoints == (10, 300)
    assert main(["plus", "--model", str(d / "model"), "--hints", str(d / "hints.jsonl"),
                 "--profile", str(d / "profile.csv"), "--budget", "300", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 300 and len(lines[0]) == 4


def test_crack_fraction_counts_only_guessable_lengths(order5, capsys, caplog):
    test = (order5 / "test.txt").read_text().split()
    guessable = sum(len(w) >= 4 for w in test)
    with caplog.at_level("INFO", logger="omen"):
        assert main(["crack", "--model", str(order5 / "model"),
                     "--test", str(order5 / "test.txt"), "--budget", "3000"]) == 0
    _, cracked, fraction = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(cracked) > 0
    assert float(fraction) == int(cracked) / guessable
    assert f"left out {len(test) - guessable} test passwords shorter than 4" in caplog.text


def test_short_test_passwords_count_as_rejected(order5, capsys, caplog):
    # four lines: too short for the model, too long for --max-len, foreign, kept
    (order5 / "mixed.txt").write_text("123\n123456789\nabcd\n1234\n")
    (order5 / "short.txt").write_text("123\n456\nabcd\n")
    attack = ["crack", "--model", str(order5 / "model"), "--budget", "10", "--max-len", "8"]
    with caplog.at_level("INFO", logger="omen"):
        assert main([*attack, "--test", str(order5 / "mixed.txt")]) == 0
        assert "left out 1 test passwords shorter than 4" in caplog.text
        assert "test set: 1 passwords (3 rejected)" in caplog.text
        caplog.clear()
        assert main([*attack, "--test", str(order5 / "short.txt")]) == 2
        assert "no usable passwords in" in caplog.text
        assert "(rejected 3)" in caplog.text
    capsys.readouterr()


def test_length_range_clipped_to_nothing_exits_1(order5, capsys, caplog):
    rc = main(["crack", "--model", str(order5 / "model"), "--test", str(order5 / "test.txt"),
               "--budget", "10", "--min-len", "3", "--max-len", "3", "--quiet"])
    assert rc == 1
    assert "shortest is 4" in caplog.text
    assert capsys.readouterr().out == ""


def test_crack_streams_only_the_given_length_range(tmp_path, capsys):
    # 5**3 + 5**4 = 750 strings have length 3 or 4; the stream ends after them
    (tmp_path / "alphabet.txt").write_text("abcde\n")
    words = ["abc", "abd", "bcd", "cde", "aab", "abca", "dcba", "eabc", "bbc", "abcd"]
    (tmp_path / "train.txt").write_text("\n".join(words * 20) + "\n")
    (tmp_path / "test.txt").write_text("\n".join(words + ["ccc", "eee", "abab"]) + "\n")
    model = tmp_path / "model.bin"
    assert main(["train", "--quiet", "--input", str(tmp_path / "train.txt"),
                 "--alphabet", str(tmp_path / "alphabet.txt"), "--out", str(model)]) == 0
    assert main(["crack", "--model", str(model), "--test", str(tmp_path / "test.txt"),
                 "--budget", "100000", "--max-len", "4", "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "750,13,1.0"


# --- sim ------------------------------------------------------------------------


def test_sim_stats_table(workdir, capsys):
    rc = main(["sim", "--hints", str(workdir["hints"]), "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "attribute,meanJS,js5,meanLCSS,lcss5,meanLen"
    assert out[1].startswith("firstName,")


def test_sim_cdf_file(workdir):
    cdf = workdir["root"] / "cdf.csv"
    rc = main(["sim", "--hints", str(workdir["hints"]), "--attribute",
               "firstName", "--cdf", str(cdf), "--quiet"])
    assert rc == 0
    lines = cdf.read_text().splitlines()
    assert lines[0] == "value,fraction"
    assert float(lines[-1].split(",")[1]) == 1.0


def test_sim_checks_its_output_paths_before_any_work(workdir, tmp_path, monkeypatch, caplog):
    def never(*args, **kwargs):
        raise AssertionError("read the hints before the output paths were checked")

    monkeypatch.setattr("omen.cli.load_hints", never)
    cdf = tmp_path / "cdf.csv"
    missing = tmp_path / "no_such_dir"
    runs = (["--cdf", str(cdf), "--table", str(missing / "table.csv")],
            ["--cdf", str(missing / "cdf.csv")],
            ["--table", str(tmp_path)])
    for options in runs:
        caplog.clear()
        assert main(["sim", "--hints", str(workdir["hints"]), *options, "--quiet"]) == 2, options
        assert options[-1] in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_sim_bad_hints_exit_2(workdir, capsys):
    bad = workdir["root"] / "bad.jsonl"
    bad.write_text("{broken\n")
    rc = main(["sim", "--hints", str(bad), "--quiet"])
    assert rc == 2
    capsys.readouterr()


def test_sim_unknown_attribute_exit_1(workdir, capsys):
    rc = main(["sim", "--hints", str(workdir["hints"]), "--attribute",
               "petName", "--quiet"])
    assert rc == 1
    capsys.readouterr()


# --- alpha / plus ------------------------------------------------------------------


def test_alpha_reports_boost(workdir, capsys):
    rc = main(["alpha", "--model", str(workdir["model"]), "--hints",
               str(workdir["hints"]), "--attribute", "firstName",
               "--grid", "1.0:5.0:0.5", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "alpha,lnAlpha,boostLevel"
    alpha, _, blevel = out[1].split(",")
    assert 1.0 <= float(alpha) <= 5.0
    assert float(alpha) >= 1.5  # 40% of the records embed the attribute
    import math

    assert int(blevel) == min(9, max(0, round(math.log(float(alpha)))))


def test_alpha_on_hints_that_are_not_utf8_exit_2(workdir, tmp_path, capsys, caplog):
    hints = tmp_path / "hints.jsonl"
    hints.write_bytes(b'{"password": "x\xff", "attributes": {}}\n')
    rc = main(["alpha", "--model", str(workdir["model"]), "--hints", str(hints),
               "--attribute", "firstName", "--quiet"])
    assert rc == 2
    assert f"{hints}: not UTF-8" in caplog.text
    assert capsys.readouterr().out == ""


def test_alpha_bad_grid_exit_1(workdir, capsys, caplog):
    # a tiny step must be refused before any grid is built
    for grid in ("0.5:9:0.5", "1:inf:0.1", "1:5:nan", "1:5:1e-300", "1:2:1e-5"):
        caplog.clear()
        rc = main(["alpha", "--model", str(workdir["model"]), "--hints",
                   str(workdir["hints"]), "--attribute", "firstName",
                   "--grid", grid, "--quiet"])
        assert rc == 1, grid
        assert "grid" in caplog.text, grid
    capsys.readouterr()


def test_alpha_bad_exponent_exit_1(workdir, capsys, caplog):
    for exponent in ("nan", "inf", "1.5", "0"):
        caplog.clear()
        rc = main(["alpha", "--model", str(workdir["model"]), "--hints",
                   str(workdir["hints"]), "--attribute", "firstName",
                   "--exponent", exponent, "--quiet"])
        assert rc == 1, exponent
        assert "exponent" in caplog.text, exponent
        assert capsys.readouterr().out == "", exponent


def test_commands_never_build_the_dense_conditional_table(workdir, tmp_path, monkeypatch):
    def dense(model):
        raise AssertionError("the dense conditional table was built")

    monkeypatch.setattr(omen.NgramModel, "cond_prob", property(dense))
    model = str(tmp_path / "model.omen")
    attack = ["--model", model, "--test", str(workdir["test"]), "--budget", "2000"]
    hints = ["--model", model, "--hints", str(workdir["hints"])]
    runs = (["train", "--input", str(workdir["corpus"]), "--out", model,
             "--alphabet", str(workdir["root"] / "alphabet.txt")],
            ["enum", "--model", model, "--level", "-2", "--length", "4"],
            ["crack", *attack],
            ["eval", *attack, "--checkpoints", "1e2,1e3", "--out", str(tmp_path / "curve.csv")],
            ["alpha", *hints, "--attribute", "firstName", "--grid", "1.0:5.0:0.5"],
            ["plus", *hints, "--profile", str(workdir["profile"]), "--budget", "200"])
    for argv in runs:
        assert main([*argv, "--quiet"]) == 0, argv[0]


def test_plus_emits_budgeted_guesses(workdir, capsys):
    rc = main(["plus", "--model", str(workdir["model"]), "--hints",
               str(workdir["hints"]), "--profile", str(workdir["profile"]),
               "--budget", "500", "--target", "0", "--quiet"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 500
    assert len(set(lines)) == 500


def test_plus_target_out_of_range_exit_1(workdir, capsys):
    rc = main(["plus", "--model", str(workdir["model"]), "--hints",
               str(workdir["hints"]), "--profile", str(workdir["profile"]),
               "--budget", "10", "--target", "9999", "--quiet"])
    assert rc == 1
    capsys.readouterr()


def test_plus_empty_hints_exit_2(workdir, capsys, caplog):
    empty = workdir["root"] / "empty.jsonl"
    empty.write_text("")
    rc = main(["plus", "--model", str(workdir["model"]), "--hints", str(empty),
               "--profile", str(workdir["profile"]), "--budget", "10", "--quiet"])
    assert rc == 2
    assert "no hint records" in caplog.text
    assert capsys.readouterr().out == ""


def test_plus_bad_profile_exit_2(workdir, capsys):
    bad = workdir["root"] / "badprofile.csv"
    bad.write_text("attribute,alpha,boostLevel\nfirstName,not_a_number,1\n")
    rc = main(["plus", "--model", str(workdir["model"]), "--hints",
               str(workdir["hints"]), "--profile", str(bad),
               "--budget", "10", "--quiet"])
    assert rc == 2
    capsys.readouterr()


def test_plus_repeated_profile_attribute_exit_2(workdir, capsys, caplog):
    twice = workdir["root"] / "twice.csv"
    twice.write_text("attribute,alpha,boostLevel\nfirstName,3,1\nfirstName,1,0\n")
    rc = main(["plus", "--model", str(workdir["model"]), "--hints",
               str(workdir["hints"]), "--profile", str(twice),
               "--budget", "10", "--quiet"])
    assert rc == 2
    assert "line 3" in caplog.text
    assert capsys.readouterr().out == ""


# --- policy-check ------------------------------------------------------------------


@pytest.mark.parametrize("username,password,verdict", [
    ("ann", "ann", "identical"),
    ("bob", "bob1", "too-similar"),
    ("xavier", "kwq92mzp", "ok"),
])
def test_policy_check_cli(username, password, verdict, capsys):
    rc = main(["policy-check", "--username", username, "--password", password])
    assert rc == 0
    assert capsys.readouterr().out.strip() == verdict


@pytest.mark.parametrize("option", [["--js-threshold", "nan"], ["--min-edit-distance", "-1"]])
def test_policy_check_cli_bad_threshold_exits_1(option, capsys):
    rc = main(["policy-check", "--username", "annmarie", "--password", "annmarie99", *option])
    assert rc == 1
    assert capsys.readouterr().out == ""


# --- parser-level behaviour ----------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_no_arguments_exits_1(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_console_script_is_wired(workdir):
    # check the script table itself rather than an `omen` on PATH, which exists
    # only after an install and may belong to another checkout
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["omen"] == "omen.cli:main"

    # call the entry point the way pip's generated wrapper does
    module, attr = scripts["omen"].split(":")
    wrapper = (f"import sys; from {module} import {attr};"
               f"sys.argv[0] = 'omen'; sys.exit({attr}())")
    run = subprocess.run([sys.executable, "-c", wrapper, "enum",
                          "--model", str(workdir["model"]),
                          "--level", "-2", "--length", "4", "--quiet"],
                         capture_output=True, text=True, env=checkout_env())
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) >= 1


def test_broken_pipe_is_not_an_error(workdir):
    # emulate `omen enum ... | head -1`
    script = (
        "from omen.cli import main; import sys;"
        f"sys.exit(main(['enum','--model',r'{workdir['model']}',"
        "'--level','-3','--length','6','--quiet']))"
    )
    head = subprocess.run(
        f"{sys.executable} -c \"{script}\" | head -n 1",
        shell=True, capture_output=True, text=True, env=checkout_env())
    assert head.returncode == 0
    assert len(head.stdout.splitlines()) == 1
