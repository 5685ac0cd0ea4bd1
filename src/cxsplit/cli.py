"""Command-line driver: validation by effective order, scheme design, sweeps, slope fits.

Exit codes: 0 ok, 1 validation failure, 2 runtime or file-system failure
or malformed command line (argparse), 3 reference inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from . import bench, designer
from .errors import CxsplitError, ReferenceInconsistent
from .order_conditions import LONGEST, effective_order, kicks_of
from .problems import PROBLEMS, check_writable
from .schemes import (builtin_names, check_scheme_name, expand, resolve_scheme,
                      serialize_scheme, validate_scheme)
from .stepper import A_FLOW_KINDS, FREEZE_NODES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_REFERENCE = 3


def _stability_class(scheme):
    """Whether every a is real and >= 0 and every Re(b) > 0, the class the paper
    keeps stable, as "yes", or "no, " and the first a, else b, that breaks it."""
    for i, a in enumerate(scheme.expanded_a(), 1):
        if a.imag:
            return f"no, a_{i} = {a.real:.6g}{a.imag:+.6g}j is not real"
        if not a.real >= 0.0:
            return f"no, a_{i} = {a.real:.6g} < 0"
    for i, b in enumerate(scheme.expanded_b(), 1):
        if not b.real > 0.0:
            return f"no, Re(b_{i}) = {b.real:.6g} <= 0"
    return "yes"


def cmd_validate(args):
    """Each scheme's sums, sign margins, effective order (s, n) and stability class;
    INVALID past min(s, n)."""
    status = EXIT_OK
    for name in args.schemes:
        try:
            scheme, tol = resolve_scheme(name)
            report = validate_scheme(scheme, tol=tol)
        except CxsplitError as exc:
            print(f"{name}: INVALID ({exc})")
            status = EXIT_VALIDATION
            continue
        print(f"{scheme.name}: pattern={scheme.pattern} stages={scheme.stages} "
              f"order={scheme.claimed_order}")
        print(f"  sum_a = {report.sum_a:.17g}  sum_b = {report.sum_b:.17g}")
        print(f"  min_re_a = {report.min_re_a:.6g}  min_re_b = {report.min_re_b:.6g}")
        s, n, unmet = effective_order(*kicks_of(expand(scheme)), tol)
        print(f"  effective order (s, n) = ({s}, {n}), eps^3 terms not checked")
        print(f"  stable class (real a >= 0, Re(b) > 0): {_stability_class(scheme)}")
        if scheme.claimed_order > min(s, n):
            needs = f"|{unmet}| <= {tol:.0e}" if unmet else f"words past length {LONGEST}"
            print(f"{scheme.name}: INVALID (order {scheme.claimed_order} needs {needs})")
            status = EXIT_VALIDATION
    return status


def cmd_design(args):
    """Solve a design's kicks, or scan a1 (scan_a1 checks --grid-points), and print the scheme."""
    check_scheme_name(args.name)     # before the solve and any output
    if args.out:
        check_writable(args.out)
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
        else:   # equal flows; a 4-stage design has no default a1
            fixed = () if args.stages == 4 else (1.0 / args.stages,) * (args.stages // 2)
        problem = designer.DesignProblem(args.stages, fixed)
        sol = designer.solve_b(problem)
    scheme = problem.scheme(sol.b, name=args.name)
    print(f"|Re(p_abaaa)| = {abs(sol.re_p_abaaa):.6e}")
    print(f"residual_norm = {sol.residual_norm:.3e}")
    text = serialize_scheme(scheme)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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


def _parse_nsteps(text):
    """--nsteps: a comma list of integers that passes bench.check_step_grid."""
    try:
        grid = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None
    try:
        return bench.check_step_grid(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _sweep_spec(args, methods):
    """The SweepSpec of a sweep or converge command line."""
    if args.eps is not None and args.problem != "osc":
        args.error(f"argument --eps: --problem {args.problem} takes no epsilon")
    return bench.SweepSpec(args.problem, methods, args.nsteps,
                           params={} if args.eps is None else {"epsilon": args.eps},
                           a_flow_kind=args.aflow, freeze_convention=args.freeze,
                           cache_dir=args.cache_dir)


def cmd_sweep(args):
    # a comma inside parentheses is part of a name, as in the alias SM(6,4)
    methods = re.split(r",(?![^()]*\))", args.methods)
    if not all(methods):
        args.error(f"argument --methods: empty method name in {args.methods!r}")
    spec = _sweep_spec(args, methods)   # a name repeats if it runs an earlier one's method
    repeated = next((m for i, m in enumerate(methods) if spec.rows[i] in spec.rows[:i]), None)
    if repeated is not None:
        args.error(f"argument --methods: repeated method {repeated!r} in {args.methods!r}")
    if args.out:
        check_writable(args.out)    # before the sweep, not after it
        bench.write_csv(bench.sweep(spec), args.out)
    else:
        sys.stdout.write(bench.records_to_csv(bench.sweep(spec)))
    return EXIT_OK


def cmd_converge(args):
    slope, resid, _ = bench.converge(_sweep_spec(args, [args.method]))
    print(f"slope = {slope:.4f}  fit_residual = {resid:.3e}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The cxsplit argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(prog="cxsplit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check scheme invariants and residuals")
    p.add_argument("schemes", nargs="+",
                   help=f"builtin names ({', '.join(builtin_names())}) or files")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("design", help="re-derive complex-kick BAB schemes")
    p.add_argument("--stages", type=int, default=4, choices=designer.STAGES)
    fixed = p.add_mutually_exclusive_group()
    fixed.add_argument("--a1", type=float, default=None)
    fixed.add_argument("--a", type=_parse_fraction, default=None,
                       help="comma list of fixed a values (p/q allowed)")
    fixed.add_argument("--scan", action="store_true",
                       help="optimize a1 over (0, 1/2) (4-stage only)")
    p.add_argument("--grid-points", type=int, default=None)
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
                       help="comma list of strictly increasing step counts")
        p.add_argument("--aflow", default="cf4", choices=A_FLOW_KINDS)
        p.add_argument("--freeze", default="midpoint", choices=sorted(FREEZE_NODES),
                       help="where CF2 flows freeze A (cf4/exact ignore it)")
        p.add_argument("--cache-dir", default=None)
        if cmd == "sweep":
            p.description = ("error_l2 is the unscaled 2-norm of the final-time error over "
                             "all components: on an N-point grid it grows as sqrt(N) for "
                             "the same error per point.")
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
