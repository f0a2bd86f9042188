"""Exact polynomial system solving via Kronecker representations.

Parses a square-or-under system over the integers, solves it modulo a random
large prime through a staged elimination (lifting curve + intersection), then
p-adically lifts and rationally reconstructs the final zero-dimensional fiber
representation, verifying every luckiness assumption at runtime.
"""

from .bounds import BoundSet, degree_budget, height_budget, prime_budget, sample_bounds
from .errors import KroneckerError
from .padic import (
    Certificate,
    SolveConfiguration,
    reconstruct_rep,
    solve_over_rationals,
)
from .primes import is_probable_prime, random_prime_avoiding
from .rings import QQ, PolyQuotient, PrimeField, ResidueRing, SeriesRing
from .slp import (
    AffineChange,
    StraightLineProgram,
    compose_affine,
    evaluate,
    evaluate_jacobian,
    parse_system,
)
from .solver import (
    CurveRepresentation,
    FiberRepresentation,
    SolveState,
    first_stage,
    intersect_minimal_poly,
    intersect_parametrization,
    lift_curve,
    solve_mod_p,
    specialize_curve,
    to_kronecker,
    to_univariate,
)
from .verify import check_representation

__all__ = [
    "AffineChange",
    "BoundSet",
    "Certificate",
    "CurveRepresentation",
    "FiberRepresentation",
    "KroneckerError",
    "PolyQuotient",
    "PrimeField",
    "QQ",
    "ResidueRing",
    "SeriesRing",
    "SolveConfiguration",
    "SolveState",
    "StraightLineProgram",
    "check_representation",
    "compose_affine",
    "degree_budget",
    "evaluate",
    "evaluate_jacobian",
    "first_stage",
    "height_budget",
    "intersect_minimal_poly",
    "intersect_parametrization",
    "is_probable_prime",
    "lift_curve",
    "parse_system",
    "prime_budget",
    "random_prime_avoiding",
    "reconstruct_rep",
    "sample_bounds",
    "solve_mod_p",
    "solve_over_rationals",
    "specialize_curve",
    "to_kronecker",
    "to_univariate",
]
