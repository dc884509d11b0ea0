"""Kernel selection: compiled Garside normal-form core with pure fallback.

Each kernel has two entries, normal_form(d, letters) and product(d, keys).
Every key of product is a left normal form (inf, factors): no identity or
half-twist factor, every adjacent pair left-weighted, as either entry
returns it, a slice of that, (0, (p,)) or (n, ()); product combs only the
seams between keys.  The pure kernel checks nothing, and the compiled one
checks everything, keys included: the package checks its input once,
where it enters (see braidfact.braid).

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
