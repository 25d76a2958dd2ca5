"""Command line front end: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, 1 bad usage or parameter, 2 unreadable or malformed
data. Diagnostics go to stderr; payload goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
from itertools import islice

from .boost import (
    ALPHA_CAP,
    BoostProfile,
    DEFAULT_GUESS_EXPONENT,
    check_alpha_grid,
    check_exponent,
    default_alpha_grid,
    estimate_alpha,
    plus_stream,
)
from .corpus import (ATTRIBUTE_NAMES, DEFAULT_MAX_LENGTH, DEFAULT_MIN_LENGTH, Alphabet,
                     Corpus, PasswordFile, load_hints, load_passwords)
from .errors import EmptyCorpusError, OmenError
from .evaluation import TestSetOracle, check_checkpoints, crack_curve, export_curve, format_curve
from .model import (
    DEFAULT_DELTA,
    DEFAULT_LEVEL_COUNT,
    DEFAULT_ORDER,
    load_model,
    save_model,
    train,
)
from .scheduler import guess_stream, stream_lengths
from .enumerator import enum_pwd
from .similarity import MAX_ATTRIBUTE, attribute_stats, cdf_similarity, policy_check

logger = logging.getLogger("omen")

_MAX_GRID_POINTS = 10_000

# a checkpoint: digits, then an optional fraction part and exponent. Parsed
# here rather than through float, which rounds counts past 2**53, or
# decimal, whose import alone adds 0.4 MB to every command's peak RSS
_CHECKPOINT = re.compile(r"(\d+)(?:\.(\d*))?(?:[eE]\+?(\d+))?")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_checkpoints(text: str) -> list[int]:
    """The comma-separated guess counts of text, each parsed exactly: "1e3"
    is 1000, "2.5e3" is 2500 and "10000000000000001" stays odd. A fraction,
    a sign, inf, nan or a count of 10**309 or more (past any float) is
    refused, its size read from the digits before an integer is formed."""
    cps = []
    for part in filter(str.strip, text.split(",")):
        m = _CHECKPOINT.fullmatch(part.strip())
        if m:
            whole, frac, exp = m[1], (m[2] or "").rstrip("0"), int(m[3] or 0)
        if not m or len(frac) > exp or len(whole.lstrip("0")) + exp > 309:
            raise ValueError(f"bad checkpoint list {text!r}")
        cps.append(int(whole + frac) * 10 ** (exp - len(frac)))
    if not cps:
        raise ValueError("empty checkpoint list")
    return cps


def _parse_grid(text: str) -> list[float]:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"bad grid {text!r}, expected lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError(f"bad grid {text!r}")
    if (hi - lo) / step >= _MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    return default_alpha_grid(lo, hi, step)


def _at_least(flag: str, value: int, low: int) -> None:
    """Refuse a numeric option below low as bad usage, before any file is read."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _attack(args):
    """The test set, its oracle, and the oracle-fed stream over the lengths in
    --min-len..--max-len that the model can guess."""
    model = load_model(args.model)
    lengths = stream_lengths(model, args.min_len, args.max_len)
    test = load_passwords(args.test, model.alphabet, args.min_len, args.max_len)
    kept = [p for p in test.passwords if len(p) >= lengths.start]
    short = len(test) - len(kept)
    if short:
        # the stream never guesses them, so they would only lower the fraction
        logger.info("left out %d test passwords shorter than %d, the model's shortest length",
                    short, lengths.start)
        test = Corpus(kept, test.rejected_count + short)
        if not kept:
            raise EmptyCorpusError(f"no usable passwords in {args.test} "
                                   f"(rejected {test.rejected_count})")
    logger.info("test set: %d passwords (%d rejected)", len(test), test.rejected_count)
    oracle = TestSetOracle(test.passwords, unique=args.unique)
    return test, oracle, guess_stream(model, args.budget, oracle, lengths)


def _curve(args):
    """Crack the test set adaptively and sample the curve at --checkpoints,
    which are checked before anything is loaded."""
    cps = check_checkpoints(_parse_checkpoints(args.checkpoints))
    test, _, stream = _attack(args)
    return crack_curve(stream, test.passwords, cps, unique=args.unique)


def _check_out(path) -> None:
    """Refuse an --out path that could not be written, before any work: its
    directory must exist and be writable. Creates and truncates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise OmenError(f"{path}: directory {parent} does not exist or is not writable")
    if os.path.isdir(path):
        raise OmenError(f"{path}: is a directory")


def _cmd_train(args) -> int:
    _check_out(args.out)
    alphabet = Alphabet.from_file(args.alphabet) if args.alphabet else Alphabet.default()
    # streamed: train counts the file's blocks as it reads them, already
    # encoded, so no password list or per-password string is held
    passwords = PasswordFile(args.input, alphabet, args.min_len, args.max_len)
    model = train(passwords, alphabet, n=args.order, L=args.levels, delta=args.delta)
    logger.info("loaded %d passwords (%d rejected)", passwords.kept, passwords.rejected_count)
    save_model(model, args.out)
    logger.info("wrote model (n=%d, L=%d, |alphabet|=%d) to %s",
                model.n, model.L, alphabet.size, args.out)
    return 0


def _cmd_enum(args) -> int:
    if args.max is not None:
        _at_least("--max", args.max, 1)
    model = load_model(args.model)
    guesses = islice(enum_pwd(model, args.level, args.length), args.max)
    out = sys.stdout
    count = 0
    for text in guesses:
        out.write(text + "\n")
        count += 1
    logger.info("emitted %d guesses", count)
    return 0


def _cmd_crack(args) -> int:
    _at_least("--budget", args.budget, 1)
    if args.checkpoints:
        sys.stdout.write(format_curve(_curve(args)))
        return 0
    _, oracle, stream = _attack(args)
    made = sum(1 for _ in stream)
    sys.stdout.write("guesses,cracked,fraction\n")
    sys.stdout.write(f"{made},{oracle.cracked},{oracle.fraction!r}\n")
    return 0


def _cmd_eval(args) -> int:
    _at_least("--budget", args.budget, 1)
    _check_out(args.out)
    curve = _curve(args)
    export_curve(curve, args.out)
    logger.info("final fraction %.4f; curve written to %s", curve.fractions[-1], args.out)
    return 0


def _load_records(path):
    """The hint records of path; an empty file is a data error."""
    records = load_hints(path)
    if not records:
        raise OmenError(f"{path}: no hint records")
    return records


def _cmd_sim(args) -> int:
    records = _load_records(args.hints)
    wrote = False
    if args.cdf:
        points = cdf_similarity(records, args.attribute)
        with open(args.cdf, "w", encoding="utf-8") as fh:
            fh.write("value,fraction\n")
            for value, frac in points:
                fh.write(f"{value!r},{frac!r}\n")
        logger.info("CDF (%s) over %d records written to %s", args.attribute, len(records), args.cdf)
        wrote = True
    if args.table or not wrote:
        rows = attribute_stats(records)
        out = open(args.table, "w", encoding="utf-8") if args.table else sys.stdout
        try:
            out.write("attribute,meanJS,js5,meanLCSS,lcss5,meanLen\n")
            for row in rows:
                out.write(f"{row.attribute},{row.mean_js:.6g},{row.js5:.6g},"
                          f"{row.mean_lcss:.6g},{row.lcss5:.6g},{row.mean_len:.6g}\n")
        finally:
            if args.table:
                out.close()
    return 0


def _cmd_alpha(args) -> int:
    grid = check_alpha_grid(_parse_grid(args.grid))
    check_exponent(args.exponent)
    model = load_model(args.model)
    records = _load_records(args.hints)
    alpha_star, boost = estimate_alpha(records, args.attribute, model, grid, b=args.exponent)
    sys.stdout.write("alpha,lnAlpha,boostLevel\n")
    sys.stdout.write(f"{alpha_star:.6g},{math.log(alpha_star):.6g},{boost}\n")
    return 0


def _cmd_plus(args) -> int:
    _at_least("--budget", args.budget, 1)
    _at_least("--target", args.target, 0)
    model = load_model(args.model)
    records = _load_records(args.hints)
    if not 0 <= args.target < len(records):
        raise ValueError(f"--target must be in [0, {len(records) - 1}]")
    profile = BoostProfile.load(args.profile, L=model.L)
    record = records[args.target]
    count = 0
    for guess in plus_stream(model, profile, record, args.budget):
        sys.stdout.write(guess.text + "\n")
        count += 1
    logger.info("emitted %d boosted guesses for target %d", count, args.target)
    return 0


def _cmd_policy_check(args) -> int:
    verdict = policy_check(args.username, args.password,
                           args.min_edit_distance, args.js_threshold)
    sys.stdout.write(verdict + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    lengths = _Parser(add_help=False)
    lengths.add_argument("--min-len", type=int, default=DEFAULT_MIN_LENGTH, help="shortest length")
    lengths.add_argument("--max-len", type=int, default=DEFAULT_MAX_LENGTH, help="longest length")

    attack = _Parser(add_help=False, parents=[common, lengths])
    attack.add_argument("--model", required=True)
    attack.add_argument("--test", required=True, help="plaintext test passwords, one per line")
    attack.add_argument("--budget", type=int, required=True)
    attack.add_argument("--unique", action="store_true", help="collapse duplicate test passwords")

    parser = _Parser(prog="omen", description="Markov-model password guessing toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", parents=[common, lengths], help="train a model from a password file")
    p.add_argument("--input", required=True, help="newline-delimited password file")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--alphabet", help="alphabet file (single line); default: built-in 72 characters")
    p.add_argument("-n", "--order", type=int, default=DEFAULT_ORDER, help="gram order")
    p.add_argument("-L", "--levels", type=int, default=DEFAULT_LEVEL_COUNT, help="level count")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="additive smoothing count")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("enum", parents=[common], help="emit all guesses at one (level, length)")
    p.add_argument("--model", required=True)
    p.add_argument("--level", type=int, required=True, help="target level (<= 0)")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max", type=int, default=None, help="stop after this many guesses")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("crack", parents=[attack], help="adaptive cracking run against a test set")
    p.add_argument("--checkpoints", help="csv guess counts; prints a curve instead of a summary")
    p.set_defaults(func=_cmd_crack)

    p = sub.add_parser("eval", parents=[attack], help="crack and export the curve as CSV")
    p.add_argument("--checkpoints", default="1e3,1e4,1e5,1e6")
    p.add_argument("--out", required=True, help="curve CSV to write")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sim", parents=[common], help="similarity statistics over hint records")
    p.add_argument("--hints", required=True, help="JSON-lines hint file")
    p.add_argument("--attribute", default=MAX_ATTRIBUTE,
                   choices=[MAX_ATTRIBUTE, *ATTRIBUTE_NAMES], help="attribute for --cdf")
    p.add_argument("--cdf", help="write the similarity CDF to this CSV")
    p.add_argument("--table", help="write the per-attribute stats table to this CSV")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("alpha", parents=[common], help="estimate an attribute's boost multiplier")
    p.add_argument("--model", required=True)
    p.add_argument("--hints", required=True)
    p.add_argument("--attribute", required=True, choices=list(ATTRIBUTE_NAMES))
    p.add_argument("--grid", default=f"1.0:{ALPHA_CAP}:0.1", help="lo:hi:step, within [1, 5]")
    p.add_argument("--exponent", type=float, default=DEFAULT_GUESS_EXPONENT,
                   help="guess-curve exponent b (finite and negative)")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("plus", parents=[common], help="boosted guess stream for one hint record")
    p.add_argument("--model", required=True)
    p.add_argument("--hints", required=True)
    p.add_argument("--profile", required=True, help="CSV attribute,alpha,boostLevel")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--target", type=int, default=0, help="index of the hint record to attack")
    p.set_defaults(func=_cmd_plus)

    p = sub.add_parser("policy-check", parents=[common],
                       help="judge a username/password pair")
    p.add_argument("--username", required=True)
    p.add_argument("--password", required=True)
    p.add_argument("--min-edit-distance", type=int, default=2)
    p.add_argument("--js-threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_policy_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ValueError as exc:
        logger.error("%s", exc)
        return 1
    except OmenError as exc:
        logger.error("%s", exc)
        return 2
    except OSError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
