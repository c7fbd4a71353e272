"""Polynomial optimization toolkit: moment/SOS relaxations, symmetry
reduction of invariant SDPs, a dense interior-point solver, and exact
certificate verification.

The names below are loaded from their modules on first use, so importing
one submodule (``soskit.symmetry``, say) imports only what it needs."""

from importlib import import_module

_HOME = {
    "Monomial": "poly",
    "Polynomial": "poly",
    "monomial_cmp": "poly",
    "monomials_up_to_degree": "poly",
    "MomentSequence": "moment",
    "monomial_vector": "moment",
    "riesz": "moment",
    "moment_matrix": "moment",
    "localizing_matrix": "moment",
    "PolyProgram": "relax",
    "Certificate": "relax",
    "add_ball_constraint": "relax",
    "build_sos_dual": "relax",
    "build_moment_primal": "relax",
    "check_sos": "relax",
    "extract_certificate": "relax",
    "verify_certificate": "relax",
    "SdpProblem": "sdp",
    "SdpSolution": "sdp",
    "solve": "sdp",
    "dual_of": "sdp",
    "is_psd": "sdp",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module 'soskit' has no attribute {name!r}")
    return getattr(import_module(f"soskit.{_HOME[name]}"), name)
