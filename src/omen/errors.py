"""Exception types shared across the package.

Parameter misuse raises plain ValueError; these classes cover data and
format problems that the CLI maps to exit code 2.
"""


class OmenError(Exception):
    """Base class for data and format errors."""


class EmptyCorpusError(OmenError):
    """No passwords survived loading/filtering."""


class HintParseError(OmenError):
    """A hint file line failed to parse; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TrainingError(OmenError):
    """Corpus cannot support training (no usable entries)."""


class ScoringError(OmenError):
    """Password cannot be scored by the model (length or alphabet)."""


class ModelFormatError(OmenError):
    """Model file is corrupt, truncated, or has the wrong magic/version."""

