"""omen: train character n-gram models on password corpora and enumerate
guesses in (approximately) decreasing probability order, with optional
per-target boosting from personal information."""

from .boost import (
    ALPHA_CAP,
    DEFAULT_GUESS_EXPONENT,
    BoostProfile,
    BoostSets,
    boost_conditionals,
    boost_level_for,
    boosted_probability,
    derive_sets,
    derive_sets_multi,
    estimate_alpha,
    fit_guess_curve,
    objective_S,
    plus_stream,
)
from .corpus import (
    ATTRIBUTE_NAMES,
    Alphabet,
    Corpus,
    HintRecord,
    PasswordFile,
    load_hints,
    load_passwords,
    save_hints,
    split,
)
from .enumerator import count_guesses, enum_level_vectors, enum_pwd
from .errors import (
    EmptyCorpusError,
    HintParseError,
    ModelFormatError,
    OmenError,
    ScoringError,
    TrainingError,
)
from .evaluation import (
    CrackCurve,
    TestSetOracle,
    crack_curve,
    export_curve,
    load_curve,
)
from .model import (
    NgramModel,
    calibrate,
    discretize,
    load_model,
    password_level,
    password_probability,
    save_model,
    train,
)
from .scheduler import Guess, guess_stream
from .similarity import (
    SimilarityRow,
    attribute_stats,
    cdf_similarity,
    jaccard3,
    lcss,
    levenshtein,
    policy_check,
)

__version__ = "0.1.0"
