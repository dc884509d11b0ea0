"""Source hygiene: every name a braidfact module imports is used there, and
the public names are the pinned ones."""

import ast
from pathlib import Path

import braidfact


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted(Path(braidfact.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":  # a package's __init__ imports to re-export
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


# The public names, sorted.  A change to braidfact.__all__ fails here until
# this list is edited with it, so every public-name change is deliberate.
PUBLIC_NAMES = [
    "BraidWord",
    "CurveInvariants",
    "CuspidalFactor",
    "EquivalenceVerdict",
    "Factorization",
    "Fingerprint",
    "FinitePresentation",
    "FormatError",
    "FreeWord",
    "ProjLine",
    "ProjPoint",
    "SearchBudget",
    "SearchBudgetExceeded",
    "artin_action",
    "branch_curve_invariants",
    "canonical_form",
    "canonical_key",
    "check_consistency",
    "conjugacy_test",
    "conjugate_all",
    "decide_equivalence",
    "enumerate_braids",
    "enumerate_homs",
    "equals",
    "exponent_sum",
    "factor_words",
    "fingerprint",
    "format_arrangement",
    "format_factorization",
    "format_homs",
    "format_invariants",
    "format_presentation",
    "format_verdict",
    "format_word",
    "full_twist",
    "group_order",
    "half_twist",
    "hesse_dual_lines",
    "hurwitz_move",
    "identity_word",
    "intersection_lattice",
    "is_positive",
    "normalized",
    "parse_factorization",
    "parse_presentation",
    "parse_verdict",
    "parse_word",
    "permutation_of",
    "product_word",
    "profile_exponent_ok",
    "replay",
    "search_factorization",
    "simplify",
    "singularity_counts",
    "validate",
    "zvk_presentation",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(braidfact.__all__) == PUBLIC_NAMES
    assert all(hasattr(braidfact, name) for name in PUBLIC_NAMES)
