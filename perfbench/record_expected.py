"""Record the outputs that the benchmark checks, from the code as it stands.

    python3 perfbench/record_expected.py

Run it from the checkout root at the commit whose outputs are the reference;
expected.json was written this way from the commit that introduced the
benchmark.  It builds any missing reference into the benchmark's own cache
directory first (about a minute per problem).
"""

import json
import os
import sys

import run  # pins the BLAS thread counts before numpy is imported

sys.path.insert(0, str(run.SRC))
os.environ["CXSPLIT_CACHE_DIR"] = str(run.STATE_DIR / "cache")

from cxsplit import bench, problems, schemes  # noqa: E402

import workloads  # noqa: E402


def pairs(values):
    return [[complex(z).real, complex(z).imag] for z in values]


def main():
    cache_dir = run.STATE_DIR / "cache"
    sweeps = {}
    for name, (methods, grid) in workloads.SWEEPS.items():
        spec = bench.SweepSpec(problem=name, methods=list(methods),
                               n_steps_grid=list(grid), cache_dir=cache_dir)
        table = sweeps.setdefault(name, {})
        for record in bench.sweep(spec):
            if record.failed:
                raise SystemExit(f"{name} {record.method} {record.n_steps} failed")
            table.setdefault(record.method, {})[str(record.n_steps)] = record.error_l2
    sm4, sm64 = schemes.builtin_scheme("SM4"), schemes.builtin_scheme("SM64")
    osc_ref = problems.reference_solution(problems.make_problem("osc"),
                                          cache_dir=cache_dir)
    expected = {
        "method_stages": dict(bench.METHOD_STAGES),
        "sweeps": sweeps,
        "sm4": {"a1": sm4.a[0], "b": pairs(sm4.b)},
        "sm64": {"b": pairs(sm64.b)},
        "osc_reference": [float(x) for x in osc_ref],
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
