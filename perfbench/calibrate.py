"""Fixed reference computation, timed beside every repetition of a workload.

The machine this benchmark runs on is shared: its CPU runs up to 70%
slower for minutes at a time when other tenants are busy, and that moves
every wall time in a run together. A fresh process doing this fixed work
(interpreter start, numpy import, then about half a second of pure-Python
arithmetic, the kind of work most of omen's time goes to) is timed just
before each repetition, and the gated metrics are in units of it. Never
change the work done here: every recorded ratio is in units of it.
"""

import sys

import numpy  # noqa: F401  (its import is part of every omen command's start)


def main() -> int:
    total = 0
    for i in range(2_500_000):
        total += i * i % 7
    return 0 if total > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
