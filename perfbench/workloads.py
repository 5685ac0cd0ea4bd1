"""The four benchmark workloads and the checks on their outputs.

Each workload drives the public API of cxsplit in-process: the CLI entry
point ``cxsplit.cli.main`` for the sweeps and the designer, and
``cxsplit.problems.reference_solution`` for the reference oracle.  One pass
is one closed-loop request; the runner repeats passes for the run length.
Module attributes are looked up at call time (``cli.main``, not an imported
name) so that the tracing wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cxsplit import cli, problems
from cxsplit.errors import CxsplitError

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Sweep inputs: problem -> (methods, dyadic n_steps grid).  The osc grid is
# stage-loop bound (2-dimensional state); the PDE grids are kernel bound
# (N=100 FFT exponentials) and contain the canonical parabolic sweep 8..128.
SWEEPS = {
    "osc": (("strang", "s62", "ext4", "sm4", "sm64", "cf4"),
            tuple(2 ** k for k in range(4, 11))),
    "parabolic": (("strang", "s62", "ext4", "sm4", "sm64"),
                  tuple(2 ** k for k in range(3, 9))),
    "fisher": (("strang", "s62", "ext4", "sm4", "sm64"),
               tuple(2 ** k for k in range(3, 9))),
}

# An error_l2 matches the recorded one within this relative tolerance, or
# within the oracle agreement tolerance near the reference's noise floor;
# both admit the 1e-14 state differences a faithful rewrite may introduce.
ERROR_RTOL = 1e-6
ERROR_ATOL = 1e-10

# Bounds of the designer reproduction check (tests/test_acceptance.py,
# criterion 3).
A1_TOL = 1e-6
B_TOL = 1e-8
SCAN_GRID_POINTS = 50


def load_expected():
    """Outputs recorded from the seed commit by record_expected.py."""
    return json.loads(EXPECTED_PATH.read_text())


@dataclass
class PassResult:
    start: float                  # perf_counter() span of the pass, checks excluded
    end: float
    attempted: int = 0            # operations checked in the pass
    failed: int = 0               # failed or wrong-output operations
    points: list = field(default_factory=list)   # (wall_time, a_flow_evals, n_steps)

    @property
    def wall(self):
        return self.end - self.start

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def call_cli(argv):
    """Run ``cxsplit.cli.main(argv)`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cache_snapshot(cache_dir):
    """Name, inode and mtime of each cached reference: unchanged means read-only."""
    return sorted((p.name, p.stat().st_ino, p.stat().st_mtime_ns)
                  for p in Path(cache_dir).glob("*.ref"))


class SweepWorkload:
    """``cxsplit sweep`` over fixed grids; the seed permutes --methods."""

    def __init__(self, name, problem_names, seed, state_dir):
        self.name = name
        self.problem_names = problem_names
        self.expected = load_expected()
        self.cache_dir = state_dir / "cache"
        rng = random.Random(seed)
        self.methods = {}
        for p in problem_names:
            methods = list(SWEEPS[p][0])
            rng.shuffle(methods)
            self.methods[p] = methods

    def prepare(self):
        """Warm the reference cache outside the timed passes; True if it built."""
        before = cache_snapshot(self.cache_dir) if self.cache_dir.is_dir() else []
        for p in self.problem_names:
            problems.reference_solution(problems.make_problem(p),
                                        cache_dir=self.cache_dir)
        self._snapshot = cache_snapshot(self.cache_dir)
        return self._snapshot != before

    def probe_args(self):
        return ["sweep", str(self.cache_dir), *self.problem_names]

    def reference_from_cache(self):
        return cache_snapshot(self.cache_dir) == self._snapshot

    def run_pass(self):
        outputs = []
        start = time.perf_counter()
        for p in self.problem_names:
            grid = ",".join(str(n) for n in SWEEPS[p][1])
            outputs.append((p, call_cli(
                ["sweep", "--problem", p, "--methods", ",".join(self.methods[p]),
                 "--nsteps", grid, "--cache-dir", str(self.cache_dir)])))
        result = PassResult(start, time.perf_counter())
        for p, (code, text) in outputs:
            self._check_csv(p, code, text, result)
        return result

    def _check_csv(self, problem, code, text, result):
        expected = self.expected["sweeps"][problem]
        stages = self.expected["method_stages"]
        seen = set()
        rows = csv.DictReader(io.StringIO(text)) if code == 0 else ()
        for row in rows:
            method, n = row["method"], int(row["n_steps"])
            want = expected.get(method, {}).get(str(n))
            err = float(row["error_l2"])
            aflows = int(row["a_flow_evals"])
            ok = (want is not None and (method, n) not in seen
                  and row["failed"] == "0"
                  and aflows == stages[method] * n
                  and math.isfinite(err)
                  and abs(err - want) <= ERROR_RTOL * want + ERROR_ATOL)
            seen.add((method, n))
            result.check(ok)
            result.points.append((float(row["wall_time"]), aflows, n))
        for method in SWEEPS[problem][0]:
            for n in SWEEPS[problem][1]:
                if (method, n) not in seen:
                    result.check(False)


class DesignWorkload:
    """``cxsplit design``: the 4-stage a1 scan, SM4 at its a1, and SM64.

    The seed is passed as ``design --seed`` and sets the Newton start points.
    """

    name = "design-scan"

    def __init__(self, seed, state_dir):
        self.seed = str(seed)
        self.expected = load_expected()

    def prepare(self):
        return False

    def probe_args(self):
        return ["design"]

    def reference_from_cache(self):
        return None                # the designer uses no reference

    def run_pass(self):
        sm4, sm64 = self.expected["sm4"], self.expected["sm64"]
        seed = ["--seed", self.seed]
        start = time.perf_counter()
        scan = call_cli(["design", "--stages", "4", "--scan",
                         "--grid-points", str(SCAN_GRID_POINTS), *seed])
        four = call_cli(["design", "--stages", "4", "--a1", repr(sm4["a1"]), *seed])
        six = call_cli(["design", "--stages", "6", *seed])
        result = PassResult(start, time.perf_counter())
        a1 = _scan_a1(scan)
        result.check(a1 is not None and abs(a1 - sm4["a1"]) < A1_TOL)
        result.check(_kicks_match(four, sm4["b"]))
        result.check(_kicks_match(six, sm64["b"]))
        return result


def _scan_a1(output):
    code, text = output
    for line in text.splitlines() if code == 0 else ():
        if line.startswith("a1_opt = "):
            return float(line.split("=", 1)[1])
    return None


def _kicks_match(output, want):
    """The symmetry-reduced kicks of a printed scheme against recorded ones."""
    code, text = output
    if code != 0:
        return False
    kicks = [complex(float(real), float(imag)) for _, real, imag in
             (line.split() for line in text.splitlines() if line.startswith("b "))]
    want = [complex(*pair) for pair in want]
    if len(kicks) < len(want):
        return False
    return max(abs(k - w) for k, w in zip(kicks, want)) < B_TOL


class ReferenceWorkload:
    """Cold osc reference build into an empty cache, then a warm re-read."""

    name = "reference-osc"

    def __init__(self, seed, state_dir):
        self.cache_dir = state_dir / "cold-cache"
        self.expected = load_expected()
        self._warm_hit = None

    def prepare(self):
        return False

    def probe_args(self):
        return ["reference", str(self.cache_dir.with_name("probe-cache"))]

    def reference_from_cache(self):
        return {"cold": False, "warm": self._warm_hit}

    def run_pass(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        refs, snapshots = [], []
        start = time.perf_counter()
        for _ in range(2):         # cold build, then warm re-read
            try:
                refs.append(problems.reference_solution(
                    problems.make_problem("osc"), cache_dir=self.cache_dir))
            except CxsplitError as exc:
                print(f"reference-osc: {type(exc).__name__}: {exc}", file=sys.stderr)
                refs.append(None)
            snapshots.append(cache_snapshot(self.cache_dir))
        result = PassResult(start, time.perf_counter())
        cold, warm = refs
        want = np.asarray(self.expected["osc_reference"])
        result.check(cold is not None and cold.shape == want.shape
                     and float(np.linalg.norm(cold - want)) <= ERROR_ATOL)
        result.check(cold is not None and warm is not None
                     and warm.dtype == cold.dtype
                     and warm.tobytes() == cold.tobytes())
        self._warm_hit = len(snapshots[0]) == 1 and snapshots[0] == snapshots[1]
        return result


def make_workload(name, seed, state_dir):
    if name == "sweep-osc":
        return SweepWorkload(name, ("osc",), seed, state_dir)
    if name == "sweep-pde":
        return SweepWorkload(name, ("parabolic", "fisher"), seed, state_dir)
    if name == "design-scan":
        return DesignWorkload(seed, state_dir)
    if name == "reference-osc":
        return ReferenceWorkload(seed, state_dir)
    raise ValueError(f"unknown workload {name!r}")

