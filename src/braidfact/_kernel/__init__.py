"""Kernel selection: compiled Garside normal-form core with pure fallback.

Each kernel has two entries, normal_form(d, letters) and product(d, keys).
The pure kernel checks nothing, and the compiled one checks everything:
the package checks its input once, where it enters (see braidfact.braid).

Set BRAIDFACT_PURE=1 to force the pure-Python implementation even when the
compiled extension is available.
"""

import os

from . import garside_py

try:
    from . import _garside as _compiled
except ImportError:
    _compiled = None

_impl = garside_py
if _compiled is not None and os.environ.get("BRAIDFACT_PURE", "") not in ("1", "true", "yes"):
    _impl = _compiled

IMPL_NAME = _impl.IMPL_NAME
normal_form = _impl.normal_form
product = _impl.product


def implementations():
    """All available kernel implementations, for parity tests and benchmarks."""
    return [garside_py] if _compiled is None else [garside_py, _compiled]
