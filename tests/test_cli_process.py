"""The CLI as its own process: exit codes, streams and output files.

Each command runs as `python -m secretary_lab.cli` from a temporary
directory, on the package this test process imported.  So the module
checks a source checkout (`PYTHONPATH=src`) and, copied out of the
checkout and run there, an installed package alike; CI does both.  New
CLI edge checks that need a separate process belong here, not in
workflow shell.  The module imports nothing from `tests/`.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import secretary_lab

PACKAGE_ROOT = str(Path(secretary_lab.__file__).resolve().parents[1])
MODULES = sorted(
    path.stem for path in Path(secretary_lab.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)

SIM_ARGS = [
    "simulate", "--J", "4", "--K", "4", "--n", "9007199254740992",
    "--seed", "18446744073709551615", "--trials", "16384",
]

# name -> (argv, timeout in seconds)
COMMANDS = {
    "report": (["report"], 120),
    "dual_check_k40": (["dual-check", "--J", "2", "--K", "40"], 120),
    "thresholds_k2000": (["thresholds", "--J", "1", "--K", "2000"], 20),
    "dual_check": (["dual-check", "--J", "2", "--K", "2"], 120),
    "dual_check_grid": (["dual-check", "--J", "2", "--K", "2", "--grid", "1000000"], 120),
    "perturb": (["dual-check", "--J", "2", "--K", "2", "--perturb", "0.01"], 120),
    "tau_stdout": (["thresholds", "--J", "2", "--K", "2", "--format", "csv"], 120),
    "tau_file": (
        ["thresholds", "--J", "2", "--K", "2", "--format", "csv", "--output", "tau-file.csv"],
        120,
    ),
    "sim_1": ([*SIM_ARGS, "--workers", "1"], 120),
    "sim_2": ([*SIM_ARGS, "--workers", "2"], 120),
    # K = 20 at n = 2^53 overflows unscaled float products
    "sim_k20": (
        ["simulate", "--J", "2", "--K", "20", "--n", "9007199254740992", "--trials", "300"],
        60,
    ),
}


@pytest.fixture(scope="module")
def imported(tmp_path_factory):
    """`import secretary_lab.<module>` as a fresh interpreter's first
    import, for every runtime module, two processes at a time."""
    cwd = tmp_path_factory.mktemp("imports")
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}

    def run(module):
        cmd = [sys.executable, "-c", f"import secretary_lab.{module}"]
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=60)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(MODULES, pool.map(run, MODULES)))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(imported, module):
    """A module-level import cycle fails here (dual imports value, so value
    must import nothing from dual)."""
    proc = imported[module]
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def ran(cli_dir):
    """Every command's finished process, two running at a time."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}

    def run(argv, timeout):
        cmd = [sys.executable, "-m", "secretary_lab.cli", *argv]
        return subprocess.run(cmd, cwd=cli_dir, env=env, capture_output=True, timeout=timeout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(run, *spec) for name, spec in COMMANDS.items()}
        return {name: f.result() for name, f in futures.items()}


def test_report_warns_nothing(ran):
    """Every K = 2 row of `report` verifies, so stderr stays empty."""
    proc = ran["report"]
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("name", ["dual_check_k40", "thresholds_k2000"])
def test_k_above_the_cap_exits_3_before_any_work(ran, name):
    proc = ran[name]
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize("name", ["dual_check", "dual_check_grid"])
def test_dual_check_passes(ran, name):
    proc = ran[name]
    assert proc.returncode == 0, proc.stderr


def test_failing_certificate_exits_4_and_prints_its_verdict(ran):
    proc = ran["perturb"]
    assert proc.returncode == 4
    assert b"FAIL" in proc.stdout


def test_output_file_gets_the_bytes_stdout_gets(ran, cli_dir):
    stdout, file = ran["tau_stdout"], ran["tau_file"]
    assert (stdout.returncode, file.returncode, file.stdout) == (0, 0, b"")
    assert (cli_dir / "tau-file.csv").read_bytes() == stdout.stdout


def test_simulation_output_is_identical_in_process_and_in_a_pool(ran):
    """The Binomial start at n = 2^53 and the largest seed, in-process and
    through a 2-process pool (16 blocks)."""
    one, two = ran["sim_1"], ran["sim_2"]
    assert (one.returncode, two.returncode) == (0, 0)
    assert one.stdout and one.stdout == two.stdout


def test_large_k_at_the_largest_n_runs(ran):
    proc = ran["sim_k20"]
    assert proc.returncode == 0, proc.stderr


def test_simulate_and_finite_lp_run_without_scipy(tmp_path):
    """scipy is a test oracle only: the thresholds that `simulate` and
    `finite-lp` solve for import nothing from it."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises\n"
        "from secretary_lab import cli\n"
        "for argv in (['simulate', '--J', '3', '--K', '3', '--n', '100', '--trials', '50'],\n"
        "             ['finite-lp', '--J', '3', '--K', '3', '--n', '10']):\n"
        "    if cli.main(argv):\n"
        "        sys.exit(f'{argv} failed')\n"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert b"CP* = " in proc.stdout and b"unavailable" not in proc.stdout
