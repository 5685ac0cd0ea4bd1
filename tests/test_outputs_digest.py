"""The per-run and command lines of tools/outputs_digest.py: the same on a rerun."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

from cxsplit import problems
from cxsplit.schemes import builtin_scheme

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_digest_sees_a_one_ulp_kernel_change(monkeypatch):
    tool = load_tool()
    args = ("osc", "strang", "cf2", "midpoint", 16)
    line = tool.run_line(*args)
    fields = line.split()
    assert fields[:6] == ["run", "osc", "strang", "cf2", "midpoint", "16"]
    assert fields[6].startswith("sha256=") and len(fields[6]) == len("sha256=") + 64
    assert fields[8:] == ["a_flow_evals=16", "kernel_evals=16"]
    assert tool.run_line(*args) == line
    exp_2x2 = problems.exp_2x2

    def nudged(omega_sq, tau, state):
        q, p = exp_2x2(omega_sq, tau, state)
        return q, p + math.ulp(p.real)      # one ulp on the real part

    monkeypatch.setattr(problems, "exp_2x2", nudged)
    moved = tool.run_line(*args).split()
    assert moved[6] != fields[6]        # the state's digest, and nothing else, moved
    assert moved[:6] + moved[7:] == fields[:6] + fields[7:]


@pytest.mark.parametrize("name, kind, index", [("SM4", "a", 0), ("SM4", "b", -1),
                                               ("Strang_ABA", "a", 0), ("S62", "b", 1)])
def test_expand_digest_sees_a_one_ulp_coefficient_change(name, kind, index):
    tool = load_tool()
    scheme = builtin_scheme(name)
    line = tool.expand_line(name, scheme)
    fields = line.split()
    assert fields[:3] == ["expand", name, f"length={2 * scheme.stages + 1}"]
    assert fields[3].startswith("sha256=") and len(fields[3]) == len("sha256=") + 64
    assert len(fields) == 4 and tool.expand_line(name, scheme) == line
    stored = list(getattr(scheme, kind))
    z = complex(stored[index])
    stored[index] = complex(math.nextafter(z.real, math.inf), z.imag)    # one ulp up
    moved = tool.expand_line(name, dataclasses.replace(scheme, **{kind: tuple(stored)})).split()
    assert moved[3] != fields[3]        # the stages' digest, and nothing else, moved
    assert moved[:3] == fields[:3] and len(moved) == 4


# not SM(8,4): a 1-ulp change of one of its equal flows leaves every bit of its solution
@pytest.mark.parametrize("index", [0, 2, 4], ids=["SM4", "unstable", "SM64"])
def test_design_digest_sees_a_one_ulp_flow_change(index):
    tool = load_tool()
    stages, fixed_a = tool.DESIGNS[index]
    line = tool.design_line(stages, fixed_a)
    fields = line.split()
    assert fields[:3] == ["solve_b", f"stages={stages}", f"a={','.join(map(repr, fixed_a))}"]
    key, digest = fields[-1].split("=")
    assert key == ("roots_sha256" if index == 2 else "sha256") and len(digest) == 64
    assert tool.design_line(stages, fixed_a) == line
    nudged = (math.nextafter(fixed_a[0], math.inf), *fixed_a[1:])     # one ulp up
    moved = tool.design_line(stages, nudged).split()
    assert moved[2] != fields[2] and moved[-1] != fields[-1]    # the flows and the digest moved
    assert moved[:2] + moved[3:-1] == fields[:2] + fields[3:-1]


def test_design_digest_reports_the_error():
    assert load_tool().design_line(4, (5e-324,)) == (
        "solve_b stages=4 a=5e-324 error NoSolutionFound: "
        "degenerate linear order conditions (stages=4)")


def test_run_digest_reports_the_error():
    line = load_tool().run_line("osc", "sm4", "exact", "literal", 16)
    assert line == ("run osc sm4 exact literal 16 error ValidationError: "
                    "OscillatorProblem has no exact A-flow (use cf2 or cf4)")


def test_command_digest_prints_the_validate_output():
    tool = load_tool()
    lines = tool.cli_lines("validate", "SM4")
    assert lines[:2] == ["cli validate SM4 exit=0", "SM4: pattern=BAB stages=4 order=4"]
    assert tool.cli_lines("validate", "SM4") == lines


def test_scheme_files_validate_as_written_from_run_to_run(tmp_path, monkeypatch):
    tool = load_tool()
    names = tool.scheme_files(tmp_path)
    texts = [(tmp_path / name).read_text() for name in names]
    assert len(names) == 5 * (2 + 3 + 4)    # per builtin: 2 unbroken, 3 + 4 faulty files
    monkeypatch.chdir(tmp_path)
    for name in names:
        faulty = name.endswith(("-dropped.txt", "-added.txt", "-XYZ.txt", "-moved.txt"))
        assert tool.cli_lines("validate", name)[0] == f"cli validate {name} exit={int(faulty)}"
    assert tool.scheme_files(tmp_path) == names
    assert [(tmp_path / name).read_text() for name in names] == texts
