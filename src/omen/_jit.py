"""JIT switch for the hot kernels.

Set OMEN_JIT=0 to run the kernels under the plain interpreter (same
source, no compilation). Default is JIT on whenever numba imports.
The fallback exists for debugging and as a dependency escape hatch.
"""

import os


def _env_enabled() -> bool:
    value = os.environ.get("OMEN_JIT", "1").strip().lower()
    return value not in {"0", "false", "off", "no"}


JIT_ENABLED = False

if _env_enabled():
    try:
        from numba import njit  # noqa: F401

        JIT_ENABLED = True
    except ImportError:
        pass

if not JIT_ENABLED:

    def njit(*args, **kwargs):
        # Identity decorator, usable bare or with options.
        if args and callable(args[0]):
            return args[0]

        def wrapper(func):
            return func

        return wrapper
