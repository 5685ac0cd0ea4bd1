"""Command-line driver: scheme validation, scheme design, sweeps, slope fits.

Exit codes: 0 ok, 1 validation failure, 2 runtime or file-system failure
or malformed command line (argparse), 3 reference inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, designer
from .errors import CxsplitError, ReferenceInconsistent
from .order_conditions import residuals
from .problems import PROBLEMS, check_writable
from .schemes import (builtin_names, expand, resolve_scheme, serialize_scheme,
                      validate_scheme)
from .stepper import A_FLOW_KINDS, FREEZE_NODES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_REFERENCE = 3


def cmd_validate(args):
    status = EXIT_OK
    for name in args.schemes:
        try:
            scheme, tol = resolve_scheme(name)
            report = validate_scheme(scheme, tol=tol)
        except CxsplitError as exc:
            print(f"{name}: INVALID ({exc})")
            status = EXIT_VALIDATION
            continue
        res = residuals(expand(scheme))
        print(f"{scheme.name}: pattern={scheme.pattern} stages={scheme.stages} "
              f"order={scheme.claimed_order}")
        print(f"  sum_a = {report.sum_a:.17g}  sum_b = {report.sum_b:.17g}")
        print(f"  min_re_a = {report.min_re_a:.6g}  min_re_b = {report.min_re_b:.6g}")
        print(f"  p_aba = {abs(res.p_aba):.6e}  p_abb = {abs(res.p_abb):.6e}  "
              f"p_abaaa = {abs(res.p_abaaa):.6e}")
    return status


def cmd_design(args):
    if args.scan:
        if args.stages != 4:
            args.error("argument --scan: 4-stage designs only")
        grid = {} if args.grid_points is None else {"grid_points": args.grid_points}
        a1_opt, sol = designer.scan_a1(**grid)
        problem = designer.DesignProblem(4, (a1_opt,))
        print(f"a1_opt = {a1_opt:.17g}")
    else:
        if args.grid_points is not None:
            args.error("argument --grid-points: only allowed with argument --scan")
        if args.a is not None:
            fixed = args.a
        elif args.a1 is not None:
            fixed = (args.a1,)
        else:   # a 4-stage design has no default a1
            fixed = (1.0 / 6.0,) * 3 if args.stages == 6 else ()
        problem = designer.DesignProblem(args.stages, fixed)
        sol = designer.solve_b(problem)
    scheme = problem.scheme(sol.b, name=args.name)
    print(f"|Re(p_abaaa)| = {abs(sol.re_p_abaaa):.6e}")
    print(f"residual_norm = {sol.residual_norm:.3e}")
    text = serialize_scheme(scheme)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_fraction(text):
    """--a: a comma list of numbers or fractions p/q."""
    try:
        fractions = [token.partition("/") for token in text.split(",")]
        return tuple(float(num) / (float(den) if slash else 1.0)
                     for num, slash, den in fractions)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers or fractions p/q, got {text!r}") from None


def _parse_count(text):
    """--grid-points: a positive integer."""
    try:
        points = int(text)
        if points >= 1:
            return points
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _parse_nsteps(text):
    """--nsteps: a comma list of strictly increasing positive step counts."""
    try:
        grid = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None
    if min(grid) < 1:
        raise argparse.ArgumentTypeError(f"step counts must be >= 1, got {text!r}")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(
            f"step counts must be strictly increasing, got {text!r}")
    return grid


def _sweep_spec(args, methods):
    """The SweepSpec of a sweep or converge command line."""
    if args.eps is not None and args.problem != "osc":
        args.error(f"argument --eps: --problem {args.problem} takes no epsilon")
    return bench.SweepSpec(args.problem, methods, args.nsteps,
                           params={} if args.eps is None else {"epsilon": args.eps},
                           a_flow_kind=args.aflow, freeze_convention=args.freeze,
                           cache_dir=args.cache_dir)


def cmd_sweep(args):
    methods = args.methods.split(",")
    if not all(methods):
        args.error(f"argument --methods: empty method name in {args.methods!r}")
    spec = _sweep_spec(args, methods)
    if args.out:
        check_writable(Path(args.out).parent)    # before the sweep, not after it
        bench.write_csv(bench.sweep(spec), args.out)
    else:
        sys.stdout.write(bench.records_to_csv(bench.sweep(spec)))
    return EXIT_OK


def cmd_converge(args):
    slope, resid, _ = bench.converge(_sweep_spec(args, [args.method]))
    print(f"slope = {slope:.4f}  fit_residual = {resid:.3e}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="cxsplit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check scheme invariants and residuals")
    p.add_argument("schemes", nargs="+",
                   help=f"builtin names ({', '.join(builtin_names())}) or files")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("design", help="re-derive complex-kick BAB schemes")
    p.add_argument("--stages", type=int, default=4, choices=(4, 6))
    fixed = p.add_mutually_exclusive_group()
    fixed.add_argument("--a1", type=float, default=None)
    fixed.add_argument("--a", type=_parse_fraction, default=None,
                       help="comma list of fixed a values (p/q allowed)")
    fixed.add_argument("--scan", action="store_true",
                       help="optimize a1 over (0, 1/2) (4-stage only)")
    p.add_argument("--grid-points", type=_parse_count, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: the design solve is exact")
    p.add_argument("--name", default="designed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_design, error=p.error)

    for cmd, fn in (("sweep", cmd_sweep), ("converge", cmd_converge)):
        p = sub.add_parser(cmd)
        p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
        p.add_argument("--eps", type=float, default=None, help="osc only")
        p.add_argument("--nsteps", required=True, type=_parse_nsteps,
                       help="comma list, dyadic")
        p.add_argument("--aflow", default="cf4", choices=A_FLOW_KINDS)
        p.add_argument("--freeze", default="midpoint", choices=sorted(FREEZE_NODES),
                       help="where CF2 flows freeze A (cf4/exact ignore it)")
        p.add_argument("--cache-dir", default=None)
        if cmd == "sweep":
            p.add_argument("--methods", required=True, help="comma list")
            p.add_argument("--out", default=None)
        else:
            p.add_argument("--method", required=True)
        p.set_defaults(fn=fn, error=p.error)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReferenceInconsistent as exc:
        print(f"reference inconsistency: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except (CxsplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
