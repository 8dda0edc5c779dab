"""Command-line surface: parse problem files, dispatch to the library, emit
deterministic JSON reports on stdout (errors go to stderr).

The parser is built once, at import.  Each command returns its report;
`main` emits it and maps the outcome to an exit code.

Exit codes: 0 success (mathematical "false" answers included, except that
contract-verify exits 1 on a failed verification), 2 input errors (an
`InputError` from any layer, malformed problem files and negative budgets
included, or a missing witness point), 3 budget exhaustion, 4 any other
fault, reported as one `internal error` line on stderr.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .combinat import parse_shape_arg, psi0
from .contractlab import verify_contract
from .groebner import Budget, BudgetExceededError
from .poly import InputError, parse
from .sprime import SPrimeData, member
from .spectrum import make_radical, theta_slice
from .theta import contains, theta
from .generators import full_gens
from .witness import NoWitnessError, witness_and_layout


def _load_prime(path):
    """The prime of a problem file, read on every call; equal texts share
    one loaded prime (`_prime_of_text`)."""
    try:
        with open(path) as fh:
            return _prime_of_text(fh.read())
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise InputError("cannot load prime data from %s: %s" % (path, exc))


@lru_cache(maxsize=None)
def _prime_of_text(text):
    """The prime a problem file's text describes, memoized by the text,
    unbounded: a session that names the same files again parses and
    canonicalizes each one once, and an edited file is a new key.  Errors
    are not stored, so a malformed file fails on every load."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer past int()'s digit limit, or nesting
        # past the interpreter's recursion limit
        raise InputError(str(exc)) from None
    return SPrimeData.from_json_obj(obj)


def _emit(report, budget):
    report = dict(report, version=__version__,
                  budgets={"max_reductions": budget.max_reductions,
                           "max_degree": budget.max_degree})
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def cmd_contain(args, budget):
    result = contains(_load_prime(args.p), _load_prime(args.q), budget)
    return {"contains": result.contains,
            "theta": [str(g) for g in result.theta.ideal.gens],
            "separator": str(result.separator) if result.separator is not None else None}


def cmd_theta(args, budget):
    p = _load_prime(args.p)
    target = parse_shape_arg(args.lam, args.e)
    result = theta(p, target, budget)
    return {"target": target.to_json_obj(),
            "theta": [str(g) for g in result.ideal.gens],
            "components": [{"E": [a + 1 for a in gp.domain],
                            "phi": [b + 1 for b in gp.targets],
                            "ideal": [str(g) for g in comp.gens]}
                           for gp, comp in result.components]}


def cmd_member(args, budget):
    p = _load_prime(args.p)
    f = parse(sys.stdin.read() if args.poly == "-" else args.poly)
    return {"poly": str(f), "member": member(f, p, budget)}


def cmd_gens(args, budget):
    return {"generators": [str(g) for g in full_gens(_load_prime(args.p), budget)]}


def cmd_psi0(args, budget):
    base = parse_shape_arg(args.lam, args.e)
    return {"base": base.to_json_obj(), "psi0": [s.to_json_obj() for s in psi0(base)]}


def cmd_witness(args, budget):
    p = _load_prime(args.p)
    q_shape = parse_shape_arg(args.lam, args.e)
    point = args.point.split(",") if args.point else None
    h, layout = witness_and_layout(p, q_shape, q_point=point, budget=budget)
    return {"witness": str(h), "layout": layout.to_json_obj()}


def cmd_contract_verify(args, budget):
    try:
        q = tuple(int(tok) for tok in args.q.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    verified, basis = verify_contract(args.n, q, args.char, budget)
    return {"n": args.n, "q": list(q), "char": args.char,
            "verified": verified, "basis": [str(g) for g in basis.gens]}


def cmd_radical(args, budget):
    primes = [_load_prime(path) for path in args.paths]
    return make_radical(primes, includes_zero=args.zero, budget=budget).to_json_obj()


def cmd_spectrum_slice(args, budget):
    p = _load_prime(args.p)
    targets = []
    for spec_text in args.target:
        try:
            lam_text, e_text = spec_text.split(";")
        except ValueError:
            raise InputError("target must look like 'inf,inf;2,2'")
        targets.append(parse_shape_arg(lam_text, e_text))
    slices = theta_slice(p, targets, budget)
    return {"slices": {str(t): [str(g) for g in ideal.gens] for t, ideal in slices.items()}}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symprime",
        description="Decide containments, memberships, and generating sets "
                    "for symmetric-group-stable prime ideals.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-reductions", type=int, default=Budget().max_reductions)
    common.add_argument("--max-degree", type=int, default=Budget().max_degree)
    prime = argparse.ArgumentParser(add_help=False)
    prime.add_argument("p")
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--lambda", dest="lam", required=True)
    shape.add_argument("--e", required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("contain", parents=[common, prime],
                        help="decide containment between two primes")
    sp.add_argument("q")
    sp.set_defaults(func=cmd_contain)
    sp = sub.add_parser("theta", parents=[common, prime, shape],
                        help="degeneration-closure ideal at a target shape")
    sp.set_defaults(func=cmd_theta)
    sp = sub.add_parser("member", parents=[common, prime],
                        help="membership of a polynomial in a prime")
    sp.add_argument("--poly", required=True,
                    help="polynomial text, or - to read stdin")
    sp.set_defaults(func=cmd_member)
    sp = sub.add_parser("gens", parents=[common, prime],
                        help="finite generating set up to the stable radical")
    sp.set_defaults(func=cmd_gens)
    sp = sub.add_parser("psi0", parents=[common, shape],
                        help="minimal obstruction shapes of a weighted shape")
    sp.set_defaults(func=cmd_psi0)
    sp = sub.add_parser("witness", parents=[common, prime, shape],
                        help="separating polynomial against a target shape")
    sp.add_argument("--point", default=None,
                    help="comma-separated rational target point")
    sp.set_defaults(func=cmd_witness)
    sp = sub.add_parser("contract-verify", parents=[common],
                        help="verify the jet-ideal contraction at small size")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-q", required=True, help="comma-separated orders")
    sp.add_argument("--char", type=int, default=0)
    sp.set_defaults(func=cmd_contract_verify)
    sp = sub.add_parser("radical", parents=[common],
                        help="antichain form of an intersection of primes")
    sp.add_argument("paths", nargs="*")
    sp.add_argument("--zero", action="store_true",
                    help="include the zero ideal (absorbs everything)")
    sp.set_defaults(func=cmd_radical)
    sp = sub.add_parser("spectrum-slice", parents=[common, prime],
                        help="degeneration-closure slices at target shapes")
    sp.add_argument("--target", action="append", required=True,
                    help="target shape as 'inf,inf;2,2' (repeatable)")
    sp.set_defaults(func=cmd_spectrum_slice)
    return parser


PARSER = _build_parser()


def _budget(args):
    """The command line's budget; a negative one is an input error."""
    for flag, value in (("--max-reductions", args.max_reductions),
                        ("--max-degree", args.max_degree)):
        if value < 0:
            raise InputError("%s must be nonnegative, got %d" % (flag, value))
    return Budget(max_reductions=args.max_reductions, max_degree=args.max_degree)


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        budget = _budget(args)
        report = args.func(args, budget)
    except (InputError, NoWitnessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # a fault in the library, not in the input
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    _emit(report, budget)
    return 0 if report.get("verified", True) else 1


if __name__ == "__main__":
    sys.exit(main())
