"""Kernel selection: compiled Garside normal-form core with pure fallback.

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
normal_form_factors = _impl.normal_form_factors
product = _impl.product


def implementations():
    """All available kernel implementations, for parity tests and benchmarks."""
    return [garside_py] if _compiled is None else [garside_py, _compiled]
