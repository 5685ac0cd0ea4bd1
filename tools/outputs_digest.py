"""Print a digest of cxsplit's outputs, to compare two source trees byte for byte.

    python tools/outputs_digest.py [CHECKOUT] > digest.txt

CHECKOUT (default: the checkout this file is in) is the source tree whose
``src/cxsplit`` runs and whose ``perfbench/workloads.py`` gives the sweep
grids.  Run it on two checkouts and ``diff`` the outputs.  It prints:

- the exit code and output of ``validate`` on the builtin schemes, and of
  ``design`` on perfbench's design-scan commands, the default 200-point
  ``--scan`` and the 8-stage design at equal flows;
- one line per ``solve_b`` on each design of ``DESIGNS``: the error's type
  and message, and for a ``NoStableSolution`` the sha256 of its roots, or
  the sha256 of the solution's kicks, residual, Re(p_abaaa) and every root;
- the exit code and output of ``validate`` on each file of ``scheme_files``,
  written to a temporary directory and named relative to it: every builtin
  serialized with ``symmetric=true`` and ``false``, and malformed variants;
- one line per ``expand`` of each builtin and of each unbroken file above,
  with the length and the sha256 of the stage sequence (each stage's
  role, then the bytes of its coefficient and node);
- one line per ``integrate_with`` run: every method of ``bench.METHODS`` on
  every problem, A-flow kind and freeze convention, at n = 16 and 64 steps,
  with the final state's sha256, ``t``, ``a_flow_evals`` and
  ``kernel_evals``, or the error's type and message;
- one line per problem: the sha256 of its cold reference, its oracle gap
  and the sha256 of its classical (RK4) oracle's state, run again here;
- the sweep CSV rows without ``wall_time`` over perfbench's grids
  (``workloads.SWEEPS``), for every A-flow kind and freeze convention.

The references are built cold in a temporary cache directory, removed at
exit, never in ``~/.cache``.  The builds take about as long as the slowest
oracle, the fisher splitting oracle (about 10 s on 2 cores); the classical
oracles' reruns add about 3 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":      # the checkout to digest, put first before cxsplit is imported
    CHECKOUT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]

from cxsplit import bench, cli, designer, problems  # noqa: E402
from cxsplit.errors import CxsplitError, NoStableSolution  # noqa: E402
from cxsplit.schemes import (FILE_TOL, builtin_names, builtin_scheme, expand,  # noqa: E402
                             load_scheme, serialize_scheme)
from cxsplit.stepper import A_FLOW_KINDS, FREEZE_NODES, integrate_with  # noqa: E402

RUN_STEPS = (16, 64)
#: (stages, fixed_a) of each solve_b line: SM4's a1, a degenerate, an unstable and an
#: inaccurate design, equal 6-stage flows, an interior a1 and SM(8,4)'s equal flows
DESIGNS = ((4, (builtin_scheme("SM4").a[0],)), (4, (5e-324,)), (4, (0.05,)),
           (6, (0.25002717906008337, 2.9600062037488e-13, 0.24997282093962064)),
           (6, (1 / 6,) * 3), (4, (0.3,)), (8, (1 / 8,) * 4))


def _sha256(*arrays):
    """The sha256 of the bytes of each array as complex, in order."""
    return hashlib.sha256(b"".join(np.asarray(a, complex).tobytes() for a in arrays)).hexdigest()


def run_line(problem_name, method, kind, freeze, n_steps):
    """The digest of one integrate_with run of method on a fresh problem."""
    head = f"run {problem_name} {method} {kind} {freeze} {n_steps}"
    problem = problems.make_problem(problem_name)
    try:
        step_fn = bench.resolve_method(method, problem, kind, freeze)
        state, record = integrate_with(step_fn, problem.u0(), problem.t0, problem.tf,
                                       n_steps, method)
    except CxsplitError as exc:
        return f"{head} error {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(state.values.tobytes()).hexdigest()
    return (f"{head} sha256={digest} t={state.t!r} a_flow_evals={record.a_flow_evals} "
            f"kernel_evals={record.kernel_evals}")


def design_line(stages, fixed_a):
    """The digest of solve_b on one design: its error, or its solution's bytes."""
    head = f"solve_b stages={stages} a={','.join(map(repr, fixed_a))}"
    try:
        solution = designer.solve_b(designer.DesignProblem(stages, fixed_a))
    except NoStableSolution as exc:
        return f"{head} error NoStableSolution: {exc} roots_sha256={_sha256(exc.solutions)}"
    except CxsplitError as exc:
        return f"{head} error {type(exc).__name__}: {exc}"
    digest = _sha256(solution.b, [solution.residual_norm, solution.re_p_abaaa],
                     solution.all_solutions)
    return f"{head} sha256={digest}"


def expand_line(label, scheme):
    """The sha256 of scheme's stages: each one's role, then its coefficient's and node's bytes."""
    stages = expand(scheme)
    digest = hashlib.sha256()
    for stage in stages:
        digest.update(stage.role.encode() + struct.pack(
            "<4d", stage.coeff.real, stage.coeff.imag, stage.c0.real, stage.c0.imag))
    return f"expand {label} length={len(stages)} sha256={digest.hexdigest()}"


def reference_line(problem_name, cache_dir):
    """The sha256 of problem's cold reference, the oracle gap cached with it and the
    sha256 of its classical (RK4) oracle's state."""
    problem = problems.make_problem(problem_name)
    values = problems.reference_solution(problem, cache_dir=cache_dir)
    path, key = problems._cache_path(problem, cache_dir)
    _, gap, _ = problems._read_cache(path, key, problem.dim)
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    classical = hashlib.sha256(problems._classical_oracle(problem).tobytes()).hexdigest()
    return f"reference {problem_name} sha256={digest} gap={gap!r} classical_sha256={classical}"


def sweep_lines(problem_name, methods, grid, kind, freeze, cache_dir):
    """The sweep's CSV rows, wall_time cut out, each after a line naming the sweep."""
    head = f"sweep {problem_name} {kind} {freeze}"
    spec = bench.SweepSpec(problem_name, list(methods), list(grid), a_flow_kind=kind,
                           freeze_convention=freeze, cache_dir=cache_dir)
    try:
        rows = bench.records_to_csv(bench.sweep(spec)).splitlines()
    except CxsplitError as exc:
        return [f"{head} error {type(exc).__name__}: {exc}"]
    wall = rows[0].split(",").index("wall_time")
    return [head] + [",".join(c for i, c in enumerate(row.split(",")) if i != wall)
                     for row in rows]


def cli_lines(*argv):
    """A line naming ``cxsplit argv`` and its exit code, then its stdout and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:       # a usage error, as on a checkout without the option
            code = exc.code
    return [f"cli {' '.join(argv)} exit={code}", *out.getvalue().splitlines(),
            *(f"stderr {line}" for line in err.getvalue().splitlines())]


def scheme_files(directory):
    """Write the validate file set into directory; return the file names in order.

    Each builtin with ``symmetric=true`` and with ``false``, unbroken and with
    one fault: its last row dropped or repeated, ``pattern=XYZ``, or (symmetric
    only) the first row of its outer kind moved by 2 FILE_TOL off its mirror.
    """
    names = []
    for name in builtin_names():
        scheme = builtin_scheme(name)
        for symmetric in ("true", "false"):
            text = serialize_scheme(scheme).replace("symmetric=true", f"symmetric={symmetric}")
            lines = text.splitlines()
            files = {"": lines, "-row-dropped": lines[:-1], "-row-added": lines + lines[-1:],
                     "-pattern-XYZ": [lines[0], "pattern=XYZ", *lines[2:]]}
            if symmetric == "true":
                i = next(i for i, line in enumerate(lines) if line[0] == scheme.pattern[0].lower())
                tag, real, imag = lines[i].split()
                files["-row-moved"] = [*lines[:i], f"{tag} {float(real) + 2 * FILE_TOL!r} {imag}",
                                       *lines[i + 1:]]
            for suffix, rows in files.items():
                file_name = f"{name.lower()}-symmetric-{symmetric}{suffix}.txt"
                (directory / file_name).write_text("\n".join(rows) + "\n", encoding="utf-8")
                names.append(file_name)
    return names


def main(argv):
    # on the path only when run as a script
    from workloads import SCAN_GRID_POINTS, SWEEPS, load_expected
    sm4_a1 = repr(load_expected()["sm4"]["a1"])
    for command in (("validate", *builtin_names()),
                    ("design", "--stages", "4", "--scan", "--grid-points", str(SCAN_GRID_POINTS)),
                    ("design", "--stages", "4", "--a1", sm4_a1),
                    ("design", "--stages", "6"),
                    ("design", "--stages", "4", "--scan"),
                    ("design", "--stages", "8")):
        print("\n".join(cli_lines(*command)), flush=True)
    for stages, fixed_a in DESIGNS:
        print(design_line(stages, fixed_a), flush=True)
    for name in builtin_names():
        print(expand_line(name, builtin_scheme(name)), flush=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cxsplit-schemes-") as directory:
        os.chdir(directory)     # validate prints the relative names, the same on every run
        try:
            for file_name in scheme_files(Path(directory)):
                print("\n".join(cli_lines("validate", file_name)), flush=True)
                if file_name.endswith(("-true.txt", "-false.txt")):     # an unbroken file
                    scheme = load_scheme(Path(file_name).read_text(encoding="utf-8"))
                    print(expand_line(file_name, scheme), flush=True)
        finally:
            os.chdir(cwd)
    for name in problems.PROBLEMS:
        for method in bench.METHODS:
            for kind in A_FLOW_KINDS:
                for freeze in FREEZE_NODES:
                    for n_steps in RUN_STEPS:
                        print(run_line(name, method, kind, freeze, n_steps), flush=True)
    with tempfile.TemporaryDirectory(prefix="cxsplit-digest-") as cache_dir:
        for name in problems.PROBLEMS:
            print(reference_line(name, cache_dir), flush=True)
        for name, (methods, grid) in SWEEPS.items():
            for kind in A_FLOW_KINDS:
                for freeze in FREEZE_NODES:
                    print("\n".join(sweep_lines(name, methods, grid, kind, freeze,
                                                cache_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
