"""Tolerances are read in numerics: every other module names only the scale of a residual."""

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "framelab"
TOLERANCE_READS = {"tau_abs", "tau_rel", "for_scale", "rank_cutoff", "psd_floor"}

# (module, function, attribute) reads that stay outside numerics, and why.
ALLOWED = {
    # the CLI parses its --tol-abs and --tol-rel defaults into a profile ...
    ("cli", "build_parser", "tau_abs"),
    ("cli", "build_parser", "tau_rel"),
    # ... and echoes the profile it used in every report
    ("cli", "main.render", "tau_abs"),
    ("cli", "main.render", "tau_rel"),
    # the internal-consistency guard lower |k|^2 <= upper (1 + 1e-9) + tau_abs
    # keeps its own literal threshold
    ("frame_ops", "_analyze", "tau_abs"),
    # the certified floor of the restricted inverse is the PSD floor itself
    ("frame_ops", "restricted_inverse", "psd_floor"),
    # the error text of disagreeing coupling forms prints the threshold
    ("duality", "_q_dual_forms", "for_scale"),
}


def tolerance_reads(tree, module):
    """(module, qualified function, attribute) of every tolerance read in ``tree``."""
    reads = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr in TOLERANCE_READS:
            reads.add((module, ".".join(scope) or "<module>", node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return reads


def test_only_numerics_reads_a_tolerance_outside_the_allow_list():
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "numerics":
            reads |= tolerance_reads(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert reads - ALLOWED == set(), "compute thresholds with numerics' verdicts"
    assert ALLOWED - reads == set(), "stale allow-list entries"


def test_the_walk_sees_a_read_in_a_nested_function():
    tree = ast.parse("def f(tol):\n    def g():\n        return tol.for_scale(1.0)\n"
                     "    return g() + tol.tau_rel\nX = DEFAULT_TOL.psd_floor\n")
    assert tolerance_reads(tree, "m") == {("m", "f.g", "for_scale"), ("m", "f", "tau_rel"),
                                          ("m", "<module>", "psd_floor")}
