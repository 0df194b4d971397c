"""The CI workflow: it parses, names only files that exist, and runs the
Tier-1 command that ROADMAP.md states.  The workflow runs only on a CI
host, so these checks are what a local test run sees of it.  Two more
tests cover the benchmark's traced-pass hooks, which the workflow's
`bench/selftest.py` step relies on: they run, and the runtime's `lp` is
only their None placeholders."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

from secretary_lab import lp

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# a repository path in a step's shell: a relative file path with a suffix,
# optionally under the checkout's $GITHUB_WORKSPACE
PATH_IN_SHELL = re.compile(r"(?:\$GITHUB_WORKSPACE/)?\b((?:[\w.-]+/)+[\w.-]+\.\w+)\b")


def _steps() -> list[dict]:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    (job,) = workflow["jobs"].values()
    return job["steps"]


def test_workflow_parses_into_steps():
    steps = _steps()
    assert all("uses" in step or "run" in step for step in steps)
    assert any(step.get("name") == "Tier-1 tests" for step in steps)


def test_workflow_names_only_existing_paths():
    named = {
        path
        for step in _steps()
        for path in PATH_IN_SHELL.findall(step.get("run", ""))
    }
    assert {"bench/selftest.py", "tests/certify_envelope.py", "tests/test_cli_process.py"} <= named
    assert [path for path in sorted(named) if not (ROOT / path).is_file()] == []


def test_tier1_step_runs_the_roadmap_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    (step,) = [step for step in _steps() if step.get("name") == "Tier-1 tests"]
    run = step["run"].strip()
    assert run == command or run.startswith(command + " ")


def test_envelope_leg_installs_the_pinned_numpy():
    """The leg that runs the envelope step under the pinned variable legs
    installs the Python and numpy that every ENVELOPE_SHA256 key names, so
    a numpy release leaves the pins pinned."""
    from certify_envelope import ENVELOPE_SHA256

    (job,) = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    name = "Certificate envelope under the pinned variable legs"
    (step,) = [step for step in job["steps"] if step.get("name") == name]
    (python,) = re.findall(r"matrix\.python-version == '([\d.]+)'", step["if"])
    (entry,) = [e for e in job["strategy"]["matrix"]["include"] if e["python-version"] == python]
    pin = re.fullmatch(r"numpy==(\d+\.\d+)\.\*", entry.get("numpy", ""))
    assert pin, entry
    assert {key[1:3] for key in ENVELOPE_SHA256} == {(python, pin[1])}


# Loads the program as the benchmark does and runs one (2,2) certificate
# inside a traced pass; prints the pass's counters, and the root-search
# spans directly under the construction's span, as JSON.  The root-search
# and finite-LP names are None placeholders, before the pass and after it.
BENCH_TRACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, spans
lab = run.load_program()
def placeholders():
    return (lab.dual.find_largest_root, lab.lp.build_lp, lab.lp.solve_lp)
assert placeholders() == (None, None, None)
tracer = spans.Tracer()
with spans.instrumented(lab, tracer):
    cert = lab.dual.construct_dual(2, 2)
    ok = lab.dual.verify_certificate(cert).ok
tracer.end_pass()
assert placeholders() == (None, None, None)
names = [span[0] for span in tracer.spans]
roots = sum(
    name == "piecewise.find_largest_root" and span[3] >= 0
    and names[span[3]] == "dual.construct_dual"
    for name, span in zip(names, tracer.spans)
)
print(json.dumps({"ok": ok, "construct_root_spans": roots, **tracer.counts}))
"""


def test_bench_trace_hooks_find_the_program_names():
    """The traced passes patch program names (dual.find_largest_root,
    PiecewiseFunction.value, lp.solve_lp, ...) and read cert.q and cert.r.
    A rename breaks them; this fails in Tier-1 before the selftest step.
    A subprocess, because load_program purges secretary_lab from
    sys.modules.  Construction and verification evaluate the cell arrays,
    so the counted PiecewiseFunction methods read 0, as the root spans do;
    the rows the pass reads afterwards still give dual.segments."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_TRACE, str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts.pop("ok") is True
    # the construction takes its thresholds from value.solve and searches
    # for no root; dual.find_largest_root is only a name for this hook to wrap
    assert counts.pop("construct_root_spans") == 0
    for name in ("piecewise.value_calls", "piecewise.tail_integral_calls"):
        assert counts.get(name, 0) == 0, name
    for name in ("dual.segments", "dual.verify_points"):
        assert counts.get(name, 0) > 0, name


def test_lp_module_is_only_the_bench_placeholders():
    """secretary_lab.lp keeps the two names the traced passes wrap, as
    None; the exact simplex is the test oracle tests/simplex.py."""
    public = {name for name in vars(lp) if not name.startswith("_")}
    assert public == {"build_lp", "solve_lp"}
    assert lp.build_lp is None and lp.solve_lp is None
