"""Command-line front end.

Reads a system in the ``vars`` grammar, runs the rational solver (or only
the modular stage with ``--mod-p-only``), and emits a JSON document with the
representation, the verification report and the solve certificate.  Output
is deterministic for a fixed seed and input: primes, coordinates and node
choices all flow from the single seeded generator.

Exit codes: 0 verified success, 2 retries exhausted (or input rejected as
not a reduced regular sequence), 3 unreadable, malformed or oversized
input (see ``slp.parse_system``), an unusable option value (a ``--prime``
that is not an odd prime, ``--retries`` below 1, ``--verify-primes`` below
1, or a ``KRONECKER_SEED`` that is not an integer) or an ``--out`` path that
cannot be written (a directory, or a missing parent directory).
"""

import argparse
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import InputNotRegularError, ParseError, RetryExhaustedError
from .padic import (
    SolveConfiguration,
    check_configuration,
    solve_modular,
    solve_over_rationals,
)
from .rings import QQ, PrimeField
from .slp import parse_system
from .solver import FiberRepresentation, to_univariate

FORMAT = "kronecker-rep/1"


def _coeff_to_json(c):
    # Through Decimal, since str() of an int stops at 4300 digits.
    if isinstance(c, Fraction):
        num, den = c.numerator, c.denominator
        return {"num": str(Decimal(num)), "den": str(Decimal(den))}
    return str(Decimal(c))


def _poly_to_json(coeffs):
    return [_coeff_to_json(c) for c in coeffs]


def _rep_payload(rep, univariate=None):
    payload = {
        "stage": rep.stage,
        "primitive_index": rep.prim_var,
        "lifting_point": [str(int(x)) for x in rep.point],
        "minimal_poly": _poly_to_json(rep.min_poly),
        "parametrizations": {
            str(j): _poly_to_json(w) for j, w in sorted(rep.params.items())
        },
        "form": rep.form,
    }
    if univariate is not None:
        payload["univariate"] = {
            str(j): _poly_to_json(v) for j, v in sorted(univariate.params.items())
        }
    return payload


def _int_from_json(s):
    # Through Decimal, since int() of a string stops at 4300 digits.
    if not isinstance(s, str) or not re.fullmatch(r"-?[0-9]+", s):
        raise ValueError(f"not an integer string: {s!r}")
    return int(Decimal(s))


def _coeff_from_json(c, ring):
    if isinstance(c, dict):
        return Fraction(_int_from_json(c["num"]), _int_from_json(c["den"]))
    return ring.from_int(_int_from_json(c))


def load_representation(doc):
    """Rebuild a FiberRepresentation from an emitted JSON document."""
    body = doc["representation"]
    if doc["coefficients"] == "rational":
        ring = QQ
    else:
        ring = PrimeField(int(doc["modulus"]))
    min_poly = tuple(_coeff_from_json(c, ring) for c in body["minimal_poly"])
    params = {
        int(j): tuple(_coeff_from_json(c, ring) for c in coeffs)
        for j, coeffs in body["parametrizations"].items()
    }
    return FiberRepresentation(
        stage=body["stage"],
        prim_var=body["primitive_index"],
        point=tuple(int(x) for x in body["lifting_point"]),
        min_poly=min_poly,
        params=params,
        form=body["form"],
        ring=ring,
    )


def _unwritable(path):
    """Why ``path`` cannot be created as a file, checked before any work:
    it names a directory, or its parent directory is missing.  Other
    failures, such as permissions, surface when the file is written."""
    if os.path.isdir(path):
        return "it is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"no directory {parent}"
    return None


def run(argv):
    parser = argparse.ArgumentParser(
        prog="kronecker-solve",
        description="Solve a polynomial system into a Kronecker representation.",
    )
    parser.add_argument("input", help="path to the system description")
    parser.add_argument(
        "--mode", choices=("heuristic", "provable"), default="heuristic"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--prime", type=int, default=None)
    parser.add_argument("--retries", type=int, default=5)
    parser.add_argument("--verify-primes", type=int, default=1)
    parser.add_argument("--mod-p-only", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--emit-univariate", action="store_true")
    args = parser.parse_args(argv)

    if args.seed is not None:
        seed = args.seed
    else:
        env_seed = os.environ.get("KRONECKER_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            print(
                f"error: KRONECKER_SEED={env_seed!r} is not an integer",
                file=sys.stderr,
            )
            return 3

    reason = _unwritable(args.out) if args.out else None
    if reason:
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return 3

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as err:
        print(f"error: cannot read {args.input}: {err}", file=sys.stderr)
        return 3
    try:
        slp = parse_system(source)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    config = SolveConfiguration(
        mode=args.mode,
        seed=seed,
        retries=args.retries,
        verify_primes=args.verify_primes,
        prime=args.prime,
    )
    try:
        check_configuration(config, slp.n_vars)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    doc = {
        "format": FORMAT,
        "variables": list(slp.var_names),
        "mode": args.mode,
        "seed": seed,
    }
    try:
        if args.mod_p_only:
            rep, state, report, attempts = solve_modular(slp, config)
            checked = report.univariate  # the check's univariate fiber
            prime = state.field.p
            doc.update(
                {
                    "coefficients": "modular",
                    "modulus": str(prime),
                    "prime": str(prime),
                    "lambda": [c for row in state.slp.transform.matrix for c in row],
                    "stage_degrees": state.stage_degrees,
                    "verification": report.to_dict(),
                    "attempts": attempts,
                }
            )
        else:
            rep, cert = solve_over_rationals(slp, config)
            checked = rep
            doc.update(
                {
                    "coefficients": "rational",
                    "lambda": [c for row in cert.lam for c in row],
                    "stage_degrees": list(cert.stage_degrees),
                    "prime": str(cert.prime),
                    "verification": cert.verification,
                    "certificate": cert.to_dict(),
                }
            )
    except (RetryExhaustedError, InputNotRegularError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    uni = to_univariate(checked) if args.emit_univariate else None
    doc["representation"] = _rep_payload(rep, uni)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
