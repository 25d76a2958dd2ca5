import pytest

import synth
from omen import (
    Corpus,
    CrackCurve,
    OmenError,
    TestSetOracle,
    crack_curve,
    export_curve,
    guess_stream,
    load_curve,
    train,
)


# --- oracle -------------------------------------------------------------------


def test_oracle_counts_multiset_hits_once():
    oracle = TestSetOracle(["aa", "aa", "bb"])
    assert oracle.total == 3
    assert oracle("aa") == 2  # both copies crack together
    assert oracle("aa") == 0  # and never again
    assert oracle("zz") == 0
    assert oracle("bb") == 1
    assert oracle.cracked == 3
    assert oracle.fraction == 1.0


def test_oracle_unique_collapses_duplicates():
    oracle = TestSetOracle(["aa", "aa", "bb"], unique=True)
    assert oracle.total == 2
    assert oracle("aa") == 1
    assert oracle.fraction == 0.5


# --- crack_curve ----------------------------------------------------------------


def test_crack_curve_reference_case():
    stream = iter(["hit1", "miss", "miss2", "hit2"])
    curve = crack_curve(stream, ["hit1", "hit2"], [1, 4])
    assert curve.checkpoints == (1, 4)
    assert curve.fractions == (0.5, 1.0)


def test_crack_curve_accepts_guess_tuples():
    model = synth.random_model(3, sigma=3, L=5)
    words = [g.text for g in guess_stream(model, 50, lengths=(3,))]
    curve = crack_curve(guess_stream(model, 50, lengths=(3,)), words[:10], [10, 50])
    assert curve.fractions[-1] == 1.0


def test_crack_curve_early_exhaustion_pads():
    curve = crack_curve(iter(["a", "b"]), ["a", "zz"], [1, 10, 100])
    assert curve.fractions == (0.5, 0.5, 0.5)


def test_crack_curve_multiset_semantics():
    curve = crack_curve(iter(["x", "y"]), ["x", "x", "x", "w"], [1, 2])
    assert curve.fractions == (0.75, 0.75)
    unique = crack_curve(iter(["x", "y"]), ["x", "x", "x", "w"], [1, 2], unique=True)
    assert unique.fractions == (0.5, 0.5)


def test_crack_curve_validates_inputs():
    with pytest.raises(ValueError):
        crack_curve(iter(["a"]), [], [1])
    with pytest.raises(ValueError):
        crack_curve(iter(["a"]), ["a"], [])
    with pytest.raises(ValueError):
        crack_curve(iter(["a"]), ["a"], [3, 2])
    with pytest.raises(ValueError):
        crack_curve(iter(["a"]), ["a"], [0, 5])


def test_crack_curve_stops_reading_after_last_checkpoint():
    pulled = []

    def stream():
        for i in range(100):
            pulled.append(i)
            yield f"guess{i}"

    crack_curve(stream(), ["guess0"], [1, 3])
    assert len(pulled) == 3


def test_crack_curve_end_to_end_monotone():
    alphabet = synth.make_alphabet(8)
    train_set, test_set = synth.zipf_corpus(11, alphabet, 2000, 20000, 2000)
    model = train(Corpus(train_set), alphabet=alphabet)
    oracle = TestSetOracle(test_set)
    stream = guess_stream(model, 50000, feedback=oracle, lengths=range(4, 10))
    curve = crack_curve(stream, test_set, [10, 100, 1000, 10000, 50000])
    assert all(b >= a for a, b in zip(curve.fractions, curve.fractions[1:]))
    assert curve.fractions[-1] > 0.2  # a trained model must crack something


# --- curve type and persistence ---------------------------------------------------


def test_curve_validation():
    with pytest.raises(ValueError):
        CrackCurve((1, 2), (0.5,))
    with pytest.raises(ValueError):
        CrackCurve((2, 2), (0.1, 0.2))
    with pytest.raises(ValueError):
        CrackCurve((1, 2), (0.5, 0.4))
    with pytest.raises(ValueError):
        CrackCurve((1,), (1.5,))
    with pytest.raises(ValueError):
        CrackCurve((0, 2), (0.1, 0.2))


def test_curve_round_trip(tmp_path):
    curve = CrackCurve((1, 10, 100), (1 / 3, 2 / 3, 2 / 3))
    path = tmp_path / "curve.csv"
    export_curve(curve, path)
    assert load_curve(path) == curve  # repr round-trips floats exactly
    header = path.read_text().splitlines()[0]
    assert header == "guesses,fraction"


def test_load_curve_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(OmenError):
        load_curve(path)
    path.write_text("guesses,fraction\n10,abc\n")
    with pytest.raises(OmenError):
        load_curve(path)
    path.write_text("guesses,fraction\n10,0.5\n5,0.6\n")
    with pytest.raises(OmenError):
        load_curve(path)

