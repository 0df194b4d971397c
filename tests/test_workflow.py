"""The CI workflow: it parses, names only files that exist, and runs the
Tier-1 command that ROADMAP.md states.  The workflow runs only on a CI
host, so these checks are what a local test run sees of it.  One more
test runs the benchmark's traced-pass hooks, which the workflow's
`bench/selftest.py` step relies on."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

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
    assert {"bench/selftest.py", "tests/test_cli_process.py"} <= named
    assert [path for path in sorted(named) if not (ROOT / path).is_file()] == []


def test_tier1_step_runs_the_roadmap_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    (step,) = [step for step in _steps() if step.get("name") == "Tier-1 tests"]
    run = step["run"].strip()
    assert run == command or run.startswith(command + " ")


# Loads the program as the benchmark does and runs one (2,2) certificate
# inside a traced pass; prints the pass's counters, and the root-search
# spans directly under the construction's span, as JSON.
BENCH_TRACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, spans
lab = run.load_program()
tracer = spans.Tracer()
with spans.instrumented(lab, tracer):
    cert = lab.dual.construct_dual(2, 2)
    ok = lab.dual.verify_certificate(cert).ok
tracer.end_pass()
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
    # for no root; dual.find_largest_root stays for this hook to wrap
    assert counts.pop("construct_root_spans") == 0
    for name in ("piecewise.value_calls", "piecewise.tail_integral_calls"):
        assert counts.get(name, 0) == 0, name
    for name in ("dual.segments", "dual.verify_points"):
        assert counts.get(name, 0) > 0, name
