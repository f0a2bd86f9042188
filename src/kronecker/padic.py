"""p-adic lifting of the modular fiber, and the attempt driver of every solve.

The fiber over F_p climbs the precision ladder of ``solver.rungs`` over
Z/p, Z/p^2, Z/p^4, ..., one Newton step per rung, the same ladder the
lifting curve climbs over F_p[t]/(t^k), and its Kronecker coefficients are
rationally reconstructed at each rung from the first one the mode names, by
maximal quotient (``polys.rational_reconstruct``): a coefficient num/den
needs about bits(num) + bits(den) bits of p^k, not 2·max of the two, and
the Kronecker form's denominators are small (Dahan-Schost).  Both modes
stop at the first rung whose reconstruction passes the acceptance check, as
Giusti-Lecerf-Salvy's lift may: the fresh-prime verification, and in
provable mode the exact check over Q as well.  That check makes provable
output sound: Q is monic and squarefree of the modular degree δ, and every
point of V(Q) satisfies every F_i over Q.  Completeness, that the fiber has
no point beyond those δ, holds with the paper's probability through the
prime budget.  Heuristic mode climbs from Z/p to p^(2^16) at the latest;
provable mode from the rung the height budget asks for to 2^7 times that
exponent, so the budget only picks the first rung.  A candidate that fails
the check and equals the previous rung's candidate is a fixed point of the
lift that does not verify, so the attempt is restarted instead of climbing
to the cap.  The step out of Z/p checks the fiber's residual and Jacobian
mod (p, Q); the acceptance check covers the rung the ladder stops at (see
``solver.rungs``).  ``solve_modular`` lifts nothing, so
``verify.check_representation`` checks its fiber.

The attempt driver behind ``solve_over_rationals`` and ``solve_modular``
draws λ, the lifting point and the prime of each attempt, restarts unlucky
attempts with fresh randomness and tells structural failures apart.
"""

import random
from dataclasses import dataclass, replace

from . import verify
from .bounds import BoundSet
from .errors import (
    EmptyIntersectionError,
    InputNotRegularError,
    KroneckerError,
    NoReconstructionError,
    ResidualNonzeroError,
    RetryExhaustedError,
    SingularMatrixError,
    UnluckyError,
)
from .polys import rational_reconstruct
from .primes import (
    WORD_PRIME_HIGH,
    WORD_PRIME_LOW,
    is_probable_prime,
    random_prime_avoiding,
    random_prime_in_range,
)
from .rings import QQ, ResidueRing
from .slp import AffineChange, compose_affine
from .solver import SolveState, rungs, solve_mod_p, to_kronecker, to_univariate

HEURISTIC_PRIME_LOW = WORD_PRIME_LOW  # kept for perfbench/systems.py

_MAX_PRECISION_EXPONENT = 2**16


@dataclass
class SolveConfiguration:
    """Knobs for a rational solve and for ``solve_modular``, which draws no
    verify prime but still refuses ``verify_primes`` below 1, as every solve
    does; all randomness flows from ``seed``."""

    mode: str = "heuristic"
    seed: int = 0
    retries: int = 5
    verify_primes: int = 1
    prime: int | None = None
    lambda_matrix: tuple | None = None
    lifting_point: tuple | None = None


@dataclass
class Certificate:
    """Everything needed to audit one accepted solve; ``exact_checked``
    (provable mode) records the exact residual check over Q.

    In provable mode a pinned ``prime`` is used as given, not drawn from
    (12H, 24H] within the bad-prime budget, so the completeness
    probability does not apply to it, as with a pinned λ or lifting point.
    """

    mode: str
    seed: int
    attempts: int
    lam: tuple
    point: tuple
    prime: int
    precision_exponent: int
    reconstruction_exponents: tuple
    verify_primes: tuple
    verification: dict
    stage_degrees: tuple
    exact_checked: bool

    def to_dict(self):
        return {
            "mode": self.mode,
            "seed": self.seed,
            "attempts": self.attempts,
            "lambda": [list(row) for row in self.lam],
            "lifting_point": list(self.point),
            "prime": str(self.prime),
            "precision_exponent": self.precision_exponent,
            "reconstruction_exponents": list(self.reconstruction_exponents),
            "verify_primes": [str(p) for p in self.verify_primes],
            "verification": self.verification,
            "stage_degrees": list(self.stage_degrees),
            "exact_checked": self.exact_checked,
        }


def _budget_exponent(p, target_bits):
    """Least power of two k with k * (bit length of p - 1) >= target_bits."""
    bits_per_level = p.bit_length() - 1
    exponent = 1
    while exponent * bits_per_level < target_bits:
        exponent *= 2
    return exponent


def reconstruct_rep(rep):
    """Rational reconstruction of every coefficient of a fiber over Z/p^k,
    by maximal quotient; raises NoReconstructionError when some coefficient
    has no quotient past the guard, that is when the precision is
    insufficient."""
    m = rep.ring.modulus

    def recover(c):
        num, den = rational_reconstruct(c % m, m)
        return QQ.from_int(num) / den

    return replace(
        rep,
        point=tuple(int(x) for x in rep.point),
        min_poly=tuple(recover(c) for c in rep.min_poly),
        params={j: tuple(recover(c) for c in v) for j, v in rep.params.items()},
        ring=QQ,
    )


def _lift_and_reconstruct(uni_p, slp, first, last, gate):
    """Climb the ladder of ``uni_p``, reconstructing over Q at each rung from
    exponent ``first`` on, and stop at the first candidate that ``gate``
    accepts; returns (representation over Q, exponent, history of
    (exponent, reconstructed?) pairs, the gate's verdict).

    ``gate(candidate)`` returns its verdict, or None to reject.  A rejected
    candidate equal to the previous rung's is raised as unlucky at once; a
    changing one keeps climbing, by p^last at the latest.
    """
    history = []
    previous = None
    for exponent, current in rungs(uni_p, slp, last=last):
        if exponent < first:
            continue
        try:
            candidate = reconstruct_rep(to_kronecker(current))
        except NoReconstructionError:
            candidate = None
        history.append((exponent, candidate is not None))
        if candidate is not None:
            verdict = gate(candidate)
            if verdict is not None:
                return candidate, exponent, tuple(history), verdict
            # Rungs differ only in their coefficients, so == compares those.
            if candidate == previous:
                raise UnluckyError(
                    uni_p.stage, "verification failed after lifting"
                )
        previous = candidate
    raise UnluckyError(uni_p.stage, f"no verified reconstruction by p^{last}")


def check_configuration(config, n_vars):
    """Raise ValueError for a configuration that no attempt could use, or
    whose result no check would back: no attempts, a pinned prime, λ or
    lifting point that does not fit (a pinned prime dividing det of a pinned
    λ among them), or no verification prime."""
    if config.mode not in ("heuristic", "provable"):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.retries < 1:
        raise ValueError(f"retries must be at least 1, not {config.retries}")
    if config.verify_primes < 1:
        raise ValueError(
            f"verify_primes must be at least 1, not {config.verify_primes}"
        )
    p = config.prime
    if p is not None and (p <= 2 or not is_probable_prime(p)):
        raise ValueError(f"pinned prime {p} is not an odd prime")
    lam = config.lambda_matrix
    if lam is not None:
        if len(lam) != n_vars or any(len(row) != n_vars for row in lam):
            raise ValueError(
                f"pinned change of variables must be {n_vars} x {n_vars}"
            )
        try:
            det = AffineChange.from_matrix(lam).det
        except SingularMatrixError:
            raise ValueError("pinned change of variables is singular") from None
        if p is not None and det % p == 0:
            raise ValueError(f"pinned prime {p} divides det of the pinned λ")
    if config.lifting_point is not None and len(config.lifting_point) != n_vars - 1:
        raise ValueError("lifting point must have n-1 coordinates")


def _draw_attempt(slp, config, bounds, rng):
    """The solve state of one attempt: λ, lifting point and prime are drawn
    in that order, each unless ``config`` pins it, and each once.  A singular
    λ (SingularMatrixError) ends the attempt, and so does a prime dividing
    det λ, at the program's ``inv`` of det λ in ``solver.first_stage``."""
    n = slp.n_vars
    rows = config.lambda_matrix or [
        [rng.randrange(bounds.a + 1) for _ in range(n)] for _ in range(n)
    ]
    change = AffineChange.from_matrix(rows)
    if config.lifting_point is not None:
        point = tuple(int(x) for x in config.lifting_point)
    else:
        point = tuple(rng.randrange(bounds.b + 1) for _ in range(n - 1))
    if config.prime is not None:
        prime = config.prime
    elif config.mode == "provable":
        prime = random_prime_avoiding(bounds.prime_lower, 256, 1, rng)
    else:
        prime = random_prime_in_range(WORD_PRIME_LOW, WORD_PRIME_HIGH, rng)
    return SolveState(
        slp=compose_affine(slp, change),
        field=ResidueRing(prime, 1),
        point=point,
        rng=rng,
    )


def _run_attempts(slp, config, finish):
    """The attempt driver of every solve: up to ``config.retries`` attempts,
    all drawing from the one generator seeded by ``config.seed``.

    An attempt solves modulo its prime and returns ``finish(state, fiber,
    bounds, attempt)``.  EmptyIntersectionError discards it as structural,
    any other KroneckerError as unlucky: this is the one loop that draws
    again after a failed draw, of λ, of the prime or of a verify prime.
    When no attempt is left this raises InputNotRegularError if every cause
    was structural, and RetryExhaustedError otherwise.
    """
    check_configuration(config, slp.n_vars)
    rng = random.Random(config.seed)
    bounds = BoundSet.for_system(slp.n_vars, slp.degrees, max(slp.height, 1))
    causes = []
    structural = []
    for attempt in range(1, config.retries + 1):
        try:
            state = _draw_attempt(slp, config, bounds, rng)
            return finish(state, solve_mod_p(state), bounds, attempt)
        except EmptyIntersectionError as err:
            structural.append(str(err))
            causes.append((attempt, None, str(err)))
        except UnluckyError as err:
            causes.append((attempt, err.stage, err.cause))
        except KroneckerError as err:
            causes.append((attempt, None, str(err)))
    if structural and len(structural) == len(causes):
        raise InputNotRegularError(config.retries, structural)
    raise RetryExhaustedError(config.retries, causes)


def solve_modular(slp, config=None):
    """The modular solve alone, with the attempt driver of
    ``solve_over_rationals``.  Returns (fiber over F_p, solve state, check
    report, attempt number) of the first attempt whose fiber passes
    ``verify.check_representation``: its one pass over F_p[T]/(Q) checks the
    residual and the Jacobian, which no Newton step checks here."""

    def check(state, fiber, bounds, attempt):
        report = verify.check_representation(fiber, state.slp)
        if not report.passed:
            failed = ", ".join(name for name, _ in report.failed_clauses())
            raise ResidualNonzeroError(f"stage {fiber.stage} residual nonzero: {failed}")
        return fiber, state, report, attempt

    return _run_attempts(slp, config or SolveConfiguration(), check)


def solve_over_rationals(slp, config=None):
    """Full pipeline: sample coordinates, solve mod p, lift, reconstruct,
    verify.  Returns (kronecker representation over Q, certificate).

    Each attempt runs under the attempt driver (see ``_run_attempts``).
    """
    config = config or SolveConfiguration()

    def lift_and_verify(state, fiber_p, bounds, attempt):
        composed = state.slp
        uni_p = to_univariate(fiber_p)
        exact = config.mode == "provable"
        if exact:
            first = _budget_exponent(uni_p.ring.p, 2 * bounds.heights[-1] + 2)
            last = first * 2**7
        else:
            first, last = 1, _MAX_PRECISION_EXPONENT

        def accept(candidate):
            fresh = verify.fresh_prime_checks(
                candidate, composed, config.verify_primes, state.rng
            )
            if not all(ok for _, ok in fresh):
                return None
            report = verify.check_representation(candidate, composed, exact=exact)
            return (fresh, report) if report.passed else None

        rep_q, exponent, history, (fresh, report) = _lift_and_reconstruct(
            uni_p, composed, first, last, accept
        )
        certificate = Certificate(
            mode=config.mode,
            seed=config.seed,
            attempts=attempt,
            lam=state.slp.transform.matrix,
            point=state.point,
            prime=state.field.p,
            precision_exponent=exponent,
            reconstruction_exponents=history,
            verify_primes=tuple(p for p, _ in fresh),
            verification=report.to_dict(),
            stage_degrees=tuple(state.stage_degrees),
            exact_checked=exact,
        )
        return rep_q, certificate

    return _run_attempts(slp, config, lift_and_verify)
