"""Numerics for operator-relative fusion frame systems.

The package builds weighted subspace systems with local operators on finite
dimensional real or complex Hilbert spaces, verifies the two-sided frame
inequality relative to a target operator k, computes optimal bounds through
a range-inclusion factorization, constructs and certifies dual systems, and
checks the subset identity and perturbation theorems numerically.

The names below are exported lazily: each one imports its home module on
first access, so ``import framelab`` loads no submodule and a CLI command
loads only the modules it runs.
"""
import importlib

_EXPORTS = {
    "numerics": (
        "DEFAULT_TOL", "DualConstructionError", "InputError",
        "InternalConsistencyError", "NotAFrameError", "PreconditionError",
        "ToleranceProfile", "douglas_factor",
    ),
    "model": (
        "BoundedOperator", "FixtureBundle", "GFusionSystem", "HilbertSpace",
        "LocalOperator", "WeightedSubspace", "check_projection_commutation",
        "embed_k_frame", "fixture", "projection",
    ),
    "frame_ops": (
        "FrameBounds", "FrameReport", "cross_frame_check", "frame_operator",
        "optimal_bounds", "reconstruction_check", "restricted_inverse",
        "subset_frame_operators", "subset_masks", "verify_k_g_fusion",
    ),
    "transforms": ("reduce_operator", "transform_invertible", "transform_unitary"),
    "duality": (
        "IdentitiesReport", "KGFDualPair", "QDualPair", "canonical_dual",
        "construct_q_dual", "dual_subset_sweep", "identities_report",
        "parseval_subset_sweep", "parsevalize", "qdual_bound_corollary",
        "verify_kgf_dual", "verify_q_dual",
    ),
    "perturbation": (
        "HypothesisVerdict", "PerturbationMode", "PerturbationParams",
        "paley_wiener_check", "perturb_hypothesis", "perturb_report", "predicted_bounds",
        "variant_gamma_readings", "verify_perturbation_theorem",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import ``name``'s home module on first access and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
