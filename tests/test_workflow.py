"""The CI workflow: it parses, names only files that exist, and runs the
Tier-1 command that ROADMAP.md states.  The workflow runs only on a CI
host, so these checks are what a local test run sees of it."""

import re
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
