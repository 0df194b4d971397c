"""The CLI as its own process: exit codes, streams and output files.

Each command runs as `python -m secretary_lab.cli` from a temporary
directory, on the package this test process imported.  So the module
checks a source checkout (`PYTHONPATH=src`) and, copied out of the
checkout and run there, an installed package alike; CI does both.  New
CLI edge checks that need a separate process belong here, not in
workflow shell.  The module imports nothing from `tests/`.
"""

import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import secretary_lab
import secretary_lab.theta

PACKAGE_DIR = Path(secretary_lab.__file__).resolve().parent
PACKAGE_ROOT = str(PACKAGE_DIR.parent)
MODULES = sorted(
    path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"
)

SIM_ARGS = [
    "simulate", "--J", "4", "--K", "4", "--n", "9007199254740992",
    "--seed", "18446744073709551615", "--trials", "16384",
]

# name -> (argv, timeout in seconds)
COMMANDS = {
    "report": (["report"], 120),
    # theta_16's numerator has more digits than the default int-to-str limit
    "thresholds_exact_16": (
        ["thresholds", "--J", "16", "--K", "1", "--exact", "--format", "json"], 120,
    ),
    "dual_check_k40": (["dual-check", "--J", "2", "--K", "40"], 120),
    "thresholds_k2000": (["thresholds", "--J", "1", "--K", "2000"], 20),
    "dual_check": (["dual-check", "--J", "2", "--K", "2"], 120),
    "dual_check_grid": (["dual-check", "--J", "2", "--K", "2", "--grid", "1000000"], 120),
    # the corner of the (J, K) envelope
    "dual_check_16_16": (["dual-check", "--J", "16", "--K", "16", "--format", "json"], 120),
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
    """A module-level import cycle fails here."""
    proc = imported[module]
    assert proc.returncode == 0, proc.stderr


# module -> the package modules it may import
IMPORTS_ALLOWED = {
    "theta": set(), "piecewise": set(), "dp": set(), "lp": set(),
    "value": {"piecewise", "theta"},
}


def package_imports(module: str) -> set[str]:
    """The package modules that `module`'s source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE_DIR / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if not node.level:
                if name.split(".")[0] != "secretary_lab":
                    continue
                name = name.removeprefix("secretary_lab").lstrip(".")
            found.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("secretary_lab.")
            )
    return {name.split(".")[0] for name in found}


@pytest.mark.parametrize("module", sorted(IMPORTS_ALLOWED))
def test_import_graph(module):
    """The exact recursion, the Chebyshev layer and the finite-n solvers
    stand alone, and the threshold solver builds on the first two only,
    read from the source, so no import cycle can run through them."""
    assert package_imports(module) <= IMPORTS_ALLOWED[module]


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


def test_exact_theta_16_prints_in_full(ran):
    """theta_16 as printed, read through Decimal (which no int-to-str limit
    binds), is the exact rational."""
    proc = ran["thresholds_exact_16"]
    assert (proc.returncode, proc.stderr) == (0, b"")
    numerator, denominator = json.loads(proc.stdout)["thetas"][-1].split("/")
    printed = Fraction(int(Decimal(numerator)), int(Decimal(denominator)))
    assert printed == secretary_lab.theta.generate_thetas(16).thetas[-1]


def test_report_warns_nothing(ran):
    """Every K = 2 row of `report` verifies, so stderr stays empty."""
    proc = ran["report"]
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("name", ["dual_check_k40", "thresholds_k2000"])
def test_k_above_the_cap_exits_3_before_any_work(ran, name):
    proc = ran[name]
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize("name", ["dual_check", "dual_check_grid", "dual_check_16_16"])
def test_dual_check_passes(ran, name):
    proc = ran[name]
    assert proc.returncode == 0, proc.stderr


# Peak resident memory of `dual-check --J 16 --K 35 --format json`: 127 MB
# with the series evaluated cell by cell, 134 MB when the check and the
# dump first read per-cell arrays, 202 MB when they read J*K dual
# functions (CPython 3.11, numpy 2.4, Linux x86-64).
DUAL_CHECK_EDGE_MAX_RSS_MB = 160
# Peak resident memory of `dual-check --J 2 --K 2 --grid 1000000`: 63.0 to
# 63.2 MB, with the series evaluated cell by cell or by a gathered
# Clenshaw loop alike (the same platform).
DUAL_CHECK_GRID_MAX_RSS_MB = 64


# The CLI in a child that prints its own peak resident memory (VmHWM, in
# kB) to stderr last.  The child's ru_maxrss would not do: a process
# spawned by vfork and exec inherits the spawning process's peak there.
MEASURED_CHILD = """
import sys
from secretary_lab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def peak_rss_mb(tmp_path, argv: list[str]) -> tuple[int, float]:
    """Exit code and peak resident memory in MB of one CLI process, its
    stdout written to the file `stdout`."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    with open(tmp_path / "stdout", "wb") as out:
        proc = subprocess.run([sys.executable, "-c", MEASURED_CHILD, *argv], cwd=tmp_path,
                              env=env, stdout=out, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, int(proc.stderr.split()[-1]) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_dual_check_at_the_envelope_edge_stays_within_its_memory(tmp_path):
    argv = ["dual-check", "--J", "16", "--K", "35", "--format", "json"]
    code, peak = peak_rss_mb(tmp_path, argv)
    assert code == 0
    assert peak <= DUAL_CHECK_EDGE_MAX_RSS_MB
    assert json.loads((tmp_path / "stdout").read_text())["verification"]["ok"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_dual_check_at_the_largest_grid_stays_within_its_memory(tmp_path):
    argv = ["dual-check", "--J", "2", "--K", "2", "--grid", "1000000"]
    code, peak = peak_rss_mb(tmp_path, argv)
    assert code == 0
    assert peak <= DUAL_CHECK_GRID_MAX_RSS_MB, f"peak {peak:.1f} MB"


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
