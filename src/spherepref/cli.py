"""Command-line front end.

Every subcommand prints a single JSON document on stdout; diagnostics go to
stderr. Exit codes are a stable contract: 0 for success or a positive
verdict, 1 for a negative verdict (not rationalizable, axiom violated, not
quadratic + linear), 2 for unusable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import spherepref.rationalize as rat

from . import axioms, cardinal
from .formats import dumps, load_document
from .geometry import EXACT, FLOAT, dim_param, finite_param
from .preference import SphericalParams, classify

_RESTRICT_CHOICES = {
    "linear": rat.RESTRICT_LINEAR,
    "euclidean": rat.RESTRICT_EUCLIDEAN,
    "anti-euclidean": rat.RESTRICT_ANTI_EUCLIDEAN,
}


def _checked(parse, rule, name: str, *args):
    """argparse type: the text parsed by ``parse`` (float or int), then checked by rule(name, value, *args)."""
    def number(text: str):
        value = parse(text)  # argparse reports a ValueError here as an invalid number
        try:
            return rule(name, value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return number


def _add_mode_flags(parser: argparse.ArgumentParser, default: str) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="mode", action="store_const", const=EXACT,
                       help="exact rational arithmetic")
    group.add_argument("--float", dest="mode", action="store_const", const=FLOAT,
                       help="binary float arithmetic")
    parser.set_defaults(mode=default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherepref",
        description="Spherical preferences: classify parameters, test data for "
                    "rationalizability, property-check axioms, decompose utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol, dim = _checked(float, finite_param, "--tol"), _checked(int, dim_param, "the dimension")

    p = sub.add_parser("classify", help="classify a parameter file")
    p.add_argument("params", help="JSON file with {\"c\": ..., \"d\": [...]}")

    p = sub.add_parser("rationalize", help="decide rationalizability of a dataset")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--restrict", choices=sorted(_RESTRICT_CHOICES),
                   help="require the witness to lie in one class")
    p.add_argument("--tol", type=tol, help="tolerance override (float mode only)")
    _add_mode_flags(p, EXACT)

    p = sub.add_parser("check-axioms", help="run the axiom checkers on an oracle")
    p.add_argument("oracle", help="parameter JSON file, or a built-in oracle name "
                                  f"({', '.join(sorted(axioms.BUILTIN_ORACLES))})")
    p.add_argument("--dim", type=dim, default=3, help="dimension for built-in oracles")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=tol, help="tolerance override (float mode only)")
    _add_mode_flags(p, FLOAT)

    p = sub.add_parser("decompose", help="split a utility into quadratic + linear parts")
    p.add_argument("oracle", help="JSON file with {\"A\": [[...]], \"b\": [...]}, or a "
                                  f"built-in name ({', '.join(sorted(cardinal.BUILTIN_UTILITIES))})")
    p.add_argument("--dim", type=dim, default=3, help="dimension for built-in oracles")
    p.add_argument("--tol", type=tol, help="relative residual acceptance threshold")

    p = sub.add_parser("generate", help="sample a dataset consistent with parameters")
    p.add_argument("params", help="parameter JSON file")
    p.add_argument("--count", type=int, default=50, help="number of sampled pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=_checked(float, finite_param, "--radius", True), default=2.0,
                   help="sampling box radius; coordinates lie on the 1/8 grid, "
                        "and a radius under 1/16 still samples -1/8, 0 and 1/8")

    return parser


def _load_params(path: str) -> SphericalParams:
    return SphericalParams.from_dict(load_document(path))


def _cmd_classify(args) -> int:
    params = _load_params(args.params)
    print(dumps(classify(params).to_dict()))
    return 0


def _cmd_rationalize(args) -> int:
    data = rat.ObservationSet.from_dict(load_document(args.dataset))
    restriction = _RESTRICT_CHOICES[args.restrict] if args.restrict else None
    verdict = rat.rationalize(data, restriction=restriction, mode=args.mode, float_margin=args.tol)
    if verdict.note is not None:
        print("note:", verdict.note, file=sys.stderr)
    print(dumps(verdict.to_dict()))
    return 0 if verdict.rationalizable else 1


def _resolve_comparison_oracle(args) -> axioms.ComparisonOracle:
    """A built-in oracle, or the parameter file's; exact mode takes float
    parameters verbatim as rationals, the same preference exactly."""
    if args.oracle in axioms.BUILTIN_ORACLES:
        return axioms.BUILTIN_ORACLES[args.oracle](args.dim)
    params = _load_params(args.oracle)
    return axioms.params_oracle(params.to_exact() if args.mode == EXACT else params)


def _cmd_check_axioms(args) -> int:
    oracle = _resolve_comparison_oracle(args)
    if oracle.dim < 3:
        print(
            "note: dimension < 3; the axioms are necessary in any dimension "
            "but only characterize the spherical family for n >= 3",
            file=sys.stderr,
        )
    reports = [
        checker(oracle, args.trials, rng_seed=args.seed, mode=args.mode, tie_rel=args.tol)
        for checker in (
            axioms.check_oioi,
            axioms.check_perp_diff,
            axioms.check_soioi,
            axioms.check_homotheticity,
        )
    ]
    print(dumps([r.to_dict() for r in reports]))
    return 0 if all(r.ok for r in reports) else 1


def _resolve_utility_oracle(args) -> cardinal.UtilityOracle:
    if args.oracle in cardinal.BUILTIN_UTILITIES:
        return cardinal.BUILTIN_UTILITIES[args.oracle](args.dim)
    return cardinal.coefficient_oracle_from_dict(load_document(args.oracle))


def _cmd_decompose(args) -> int:
    oracle = _resolve_utility_oracle(args)
    try:
        dec = cardinal.decompose(oracle, residual_rel=args.tol)
    except cardinal.NotQuadraticLinear as exc:
        print(dumps({
            "error": "not_quadratic_linear",
            "residual": float(exc.residual),
            "threshold": float(exc.threshold),
        }))
        return 1
    print(dumps(dec.to_dict()))
    return 0


def _cmd_generate(args) -> int:
    params = _load_params(args.params)
    data = rat.generate_dataset(params, args.count, rng_seed=args.seed, radius=args.radius)
    print(dumps(data.to_dict()))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "rationalize": _cmd_rationalize,
    "check-axioms": _cmd_check_axioms,
    "decompose": _cmd_decompose,
    "generate": _cmd_generate,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "mode", None) == EXACT and args.tol is not None:  # rationalize, check-axioms
            raise ValueError("exact mode admits no tolerance override")
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:  # a MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
