"""Command line surface.

Exit codes: 0 success / all requested checks hold; 1 a claim or
validation failed; 2 usage or parse error; 3 a resource guard tripped.
"""

import argparse
import sys

from .analysis import automorphism_group, base_number
from .claims import known_claims, verify_claim
from .errors import (FormatError, IntegrityError, ResourceLimitError,
                     UsageError)
from .iofmt import read_file, write_file
from .schemes import hollmann_large, hollmann_small, passman_scheme
from .wl import extend_points

FAMILIES = ("hollmann-large", "hollmann-small", "passman", "passman-frobenius")


def _nonnegative(text):
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    parser = _CliParser(prog="cohcfg",
                        description="coherent configurations from "
                                    "permutation-group orbitals")
    parser.add_argument("--seed", type=_nonnegative, default=0,
                        help="seed for randomized spot checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a scheme and write it")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("-o", "--out", default=None, help="output path")

    p = sub.add_parser("analyze", help="inspect a configuration file")
    p.add_argument("path")
    p.add_argument("--validate", choices=("axioms", "full"), default=None)
    p.add_argument("--tensor", action="store_true")
    p.add_argument("--pseudocyclic", action="store_true")
    p.add_argument("--partly-regular", action="store_true")
    p.add_argument("--indistinguishing", action="store_true")

    p = sub.add_parser("extend", help="point extension of a configuration")
    p.add_argument("path")
    p.add_argument("--points", required=True,
                   help="comma separated point indices")
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("verify", help="run a named claim check")
    p.add_argument("--claim", required=True)
    p.add_argument("--params", default="",
                   help="comma separated key=value claim parameters")

    p = sub.add_parser("basenum", help="base number of a configuration")
    p.add_argument("path")
    p.add_argument("--mode", choices=("greedy", "exact"), default="greedy")

    p = sub.add_parser("aut", help="automorphism group of a configuration")
    p.add_argument("path")
    return parser


def _build(args):
    q = args.q
    if args.family == "hollmann-large":
        cfg, _ = hollmann_large(q)
    elif args.family == "hollmann-small":
        cfg, _ = hollmann_small(q)
    elif args.family == "passman":
        cfg, _, _ = passman_scheme(q)
    else:
        _, _, cfg = passman_scheme(q)
    irref = [s for s in range(cfg.rank) if not cfg.is_reflexive(s)]
    vals = sorted(set(int(cfg.valencies()[s]) for s in irref)) or [0]
    print(f"degree {cfg.degree}")
    print(f"rank {cfg.rank}")
    print("valency " + " ".join(str(v) for v in vals))
    if args.out:
        write_file(cfg, args.out)
        print(f"wrote {args.out}")
    return 0


def _analyze(args):
    cfg = read_file(args.path)
    print(f"degree {cfg.degree}")
    print(f"rank {cfg.rank}")
    ok = True
    if args.validate:
        rep = cfg.validate(args.validate)
        print(f"valid {str(rep.passed).lower()}")
        if not rep.passed:
            print(f"witness {rep.failures[0]}")
            return 1
    if args.tensor:
        tensor = cfg.tensor(seed=args.seed)
        rows, _ = tensor.row_sums_ok()
        prod, _ = tensor.product_identity_ok()
        print(f"tensor-row-sums {str(rows).lower()}")
        print(f"tensor-product-identity {str(prod).lower()}")
        ok = ok and rows and prod
    if args.pseudocyclic:
        flag, k = cfg.is_pseudocyclic()
        print(f"pseudocyclic {str(flag).lower()}")
        if flag:
            print(f"valency {k}")
        ok = ok and flag
    if args.partly_regular:
        flag, pts = cfg.is_partly_regular()
        print(f"partly-regular {str(flag).lower()}")
        if flag:
            print(f"regular-points {' '.join(str(p) for p in pts[:10])}")
        ok = ok and flag
    if args.indistinguishing:
        _, c = cfg.indistinguishing_numbers()
        print(f"c {c}")
    return 0 if ok else 1


def _extend(args):
    cfg = read_file(args.path)
    try:
        points = [int(p) for p in args.points.split(",") if p != ""]
    except ValueError as exc:
        raise UsageError(f"bad --points: {exc}") from exc
    ext = extend_points(cfg, points)
    sizes = sorted(len(f) for f in ext.fibers())
    print("fibers " + " ".join(str(s) for s in sizes))
    print(f"rank {ext.rank}")
    if args.out:
        write_file(ext, args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_params(text):
    params = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"claim parameter {item!r} is not key=value")
        key, value = item.split("=", 1)
        if key in params:
            raise UsageError(f"claim parameter {key!r} given twice")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _verify(args):
    params = _parse_params(args.params)
    rep = verify_claim(args.claim, **params)
    print(rep.ledger_line())
    return 0 if rep.passed else 1


def _basenum(args):
    cfg = read_file(args.path)
    try:
        value = base_number(cfg, args.mode)
    except ResourceLimitError as exc:
        # the greedy upper bound is still reported when the exact search
        # trips its guard
        print(base_number(cfg, "greedy"))
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    print(value)
    return 0


def _aut(args):
    cfg = read_file(args.path)
    aut = automorphism_group(cfg)
    print(f"order {aut.order}")
    print(f"generators {len(aut.generators)}")
    print(f"method {aut.method}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"build": _build, "analyze": _analyze, "extend": _extend,
                   "verify": _verify, "basenum": _basenum, "aut": _aut}
        return handler[args.command](args)
    except (UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError) and "unknown claim" in str(exc):
            print(f"known claims: {' '.join(known_claims())}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a missing, unreadable or unwritable path, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
