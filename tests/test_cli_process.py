"""The CLI as its own process: exit codes, streams and output files.

Each command runs as `python -m secretary_lab.cli` from a temporary
directory, on the package this test process imported.  So the module
checks a source checkout (`PYTHONPATH=src`) and, copied out of the
checkout and run there, an installed package alike.  CI does both: the
Tier-1 run, and the installed package's process checks, where this
module runs beside one `secretary-lab report` and nothing else.  New CLI
edge checks that need a separate process belong here, not in workflow
shell.  The module imports nothing from `tests/`.
"""

import ast
import hashlib
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

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

PACKAGE_DIR = Path(secretary_lab.__file__).resolve().parent
PACKAGE_ROOT = str(PACKAGE_DIR.parent)
MODULES = sorted(
    path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"
)

# 40 blocks, the last one partial: GROUP_BLOCKS = 16 groups them 16+16+8 in
# process and 16+4 in each of two pool workers
SIM_ARGS = [
    "simulate", "--J", "4", "--K", "4", "--n", "9007199254740992",
    "--seed", "18446744073709551615", "--trials", "40000",
]

EXACT_16 = ["thresholds", "--J", "16", "--K", "1", "--exact", "--format", "json"]

# name -> (argv, timeout in seconds[, environment variables to add])
COMMANDS = {
    "report": (["report"], 120),
    # theta_16's numerator has more digits than the default int-to-str limit,
    # and far more than the lowest limit Python accepts
    "thresholds_exact_16": (EXACT_16, 120),
    "thresholds_exact_16_640": (EXACT_16, 120, {"PYTHONINTMAXSTRDIGITS": "640"}),
    "thresholds_exact_16_text": (
        ["thresholds", "--J", "16", "--K", "1", "--exact", "--format", "text"], 120
    ),
    "dual_check_k40": (["dual-check", "--J", "2", "--K", "40"], 120),
    "thresholds_k2000": (["thresholds", "--J", "1", "--K", "2000"], 20),
    "dual_check": (["dual-check", "--J", "2", "--K", "2", "--format", "text"], 120),
    "dual_check_grid": (["dual-check", "--J", "2", "--K", "2", "--grid", "1000000"], 120),
    # the corner of the (J, K) envelope
    "dual_check_16_16": (["dual-check", "--J", "16", "--K", "16", "--format", "json"], 120),
    "perturb": (["dual-check", "--J", "2", "--K", "2", "--perturb", "0.01"], 120),
    # grids 1 and 2 check no point below tau_{1,1} = 0.368
    "dual_check_grid_1": (["dual-check", "--J", "1", "--K", "1", "--grid", "1",
                           "--format", "json"], 60),
    "dual_check_grid_2": (["dual-check", "--J", "1", "--K", "1", "--grid", "2",
                           "--format", "json"], 60),
    "dual_check_16_35": (["dual-check", "--J", "16", "--K", "35", "--format", "json"], 120),
    "thresholds_json": (["thresholds", "--J", "2", "--K", "2", "--format", "json"], 120),
    "thresholds_csv": (["thresholds", "--J", "2", "--K", "2", "--format", "csv"], 120),
    "thresholds_3_2_csv": (["thresholds", "--J", "3", "--K", "2", "--format", "csv"], 120),
    "finite_lp_json": (
        ["finite-lp", "--J", "2", "--K", "2", "--n", "10,20", "--format", "json"], 60
    ),
    # J*K*n at the exact cap; (1,1) n = 10000 is the slowest accepted exact input
    "finite_lp_exact_cap": (
        ["finite-lp", "--J", "2", "--K", "1", "--n", "5000", "--mode", "exact",
         "--format", "json"], 60
    ),
    "finite_lp_exact_cap_1_1": (
        ["finite-lp", "--J", "1", "--K", "1", "--n", "10000", "--mode", "exact",
         "--format", "json"], 60
    ),
    "simulate_csv": (
        ["simulate", "--J", "2", "--K", "2", "--n", "1000", "--trials", "2000", "--format", "csv"],
        60,
    ),
    "simulate_json": (
        ["simulate", "--J", "2", "--K", "2", "--n", "1000", "--trials", "2000", "--format", "json"],
        60,
    ),
    "sim_1": ([*SIM_ARGS, "--workers", "1"], 120),
    "sim_2": ([*SIM_ARGS, "--workers", "2"], 120),
    # K = 20 at n = 2^53 overflows unscaled float products
    "sim_k20": (
        ["simulate", "--J", "2", "--K", "20", "--n", "9007199254740992", "--trials", "300"],
        60,
    ),
}

# One command per subcommand, and dual-check's already rendered JSON, each
# run again as `<name>_file` with its output sent by --output to the file
# `<name>.out`.
WRITTEN = ["report", "thresholds_csv", "dual_check", "finite_lp_json", "simulate_csv",
           "dual_check_16_16"]
COMMANDS.update(
    {f"{name}_file": ([*COMMANDS[name][0], "--output", f"{name}.out"], COMMANDS[name][1])
     for name in WRITTEN}
)


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

    def run(argv, timeout, extra_env=None):
        cmd = [sys.executable, "-m", "secretary_lab.cli", *argv]
        return subprocess.run(cmd, cwd=cli_dir, env={**env, **(extra_env or {})},
                              capture_output=True, timeout=timeout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(run, *spec) for name, spec in COMMANDS.items()}
        return {name: f.result() for name, f in futures.items()}


def printed_theta_16(proc) -> Fraction:
    """The last theta a `thresholds_exact_16` run printed, read through
    Decimal, which no int-to-str limit binds."""
    assert (proc.returncode, proc.stderr) == (0, b"")
    numerator, denominator = json.loads(proc.stdout)["thetas"][-1].split("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator)))


def test_exact_theta_16_prints_in_full(ran):
    """theta_16 as printed is the exact rational."""
    assert printed_theta_16(ran["thresholds_exact_16"]) == (
        secretary_lab.theta.generate_thetas(16).thetas[-1]
    )


def test_exact_theta_16_prints_under_the_lowest_str_limit(ran):
    """With the int-to-str limit at 640 digits, the lowest Python accepts,
    theta_16 still prints in full and exactly."""
    assert printed_theta_16(ran["thresholds_exact_16_640"]) == (
        secretary_lab.theta.generate_thetas(16).thetas[-1]
    )


# SHA-256 of stdout as the Fraction recursion printed it (commit e2e8e92):
# every theta_1..theta_16 in full, and report's table
STDOUT_SHA256 = {
    "thresholds_exact_16": "d870d8d98f477f0985ca6b8ecbb8176bc9e31da172697bb908ac5b6ed8ddb7b3",
    "thresholds_exact_16_640": "d870d8d98f477f0985ca6b8ecbb8176bc9e31da172697bb908ac5b6ed8ddb7b3",
    "thresholds_exact_16_text": "d1c21c3031df2761bab1273a4e48fa50420ccdf9db6983129e06f46f52da2ab0",
    "report": "70781b50ac8cc98803923997d951e84bd93653c28c431daa5fe3f3af201c8ec2",
}
# ... and as the frozen dataclass records printed them (commit 3cfea5f):
# simulate's JSON and CSV, both from one SimReport, and the (3,2) solve's
# thresholds (numpy 2.4, CPython 3.11, Linux x86-64)
STDOUT_SHA256.update({
    "simulate_json": "9e70462ee007e8abea90f85cf91f3989e1da640e11ad82ad547edd663b3e96cd",
    "simulate_csv": "557e7f1bddcc624dd7511bd82fe85f69d9b21685374e4e55ec2a037c00579243",
    "thresholds_3_2_csv": "f415d8896497506ffc617ef6519b2c4080b6f212f14b7c43764f2104aef74581",
})
# ... and as the Fraction recursion printed it (commit bc4d9ab): exact P*_n
# is one rounding of a rational, so no platform may print other bytes
STDOUT_SHA256["finite_lp_exact_cap"] = (
    "d9b4cb83964b544d3b0a84b855cdb8ff08ea246e1a42aa17cab3923eaf6d4e4c"
)
# ... and as the integer recursion over n! printed it (commit affd68a)
STDOUT_SHA256["finite_lp_exact_cap_1_1"] = (
    "1eeef4dfcadf0046b9eab0fa955dbaeeadbb300c99e76538c6aba8dea2fe40b5"
)

# Three of them again on two other float legs (see tests/certify_envelope.py):
# numpy without its AVX-512 kernels, and OpenBLAS on its Haswell kernels.
# Each prints the same bytes there.  A leg runs only where numpy reports
# the feature it needs: X86_V4 kernels to turn off (numpy 1.x names none),
# or the AVX2 that the Haswell kernels execute.
FLOAT_LEGS = {
    "npy_avx2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}, "X86_V4"),
    "blas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "AVX2"),
}
LEG_RUNS = {
    f"{name}_{leg}": (name, leg)
    for name in ("thresholds_3_2_csv", "simulate_json", "report") for leg in FLOAT_LEGS
}
COMMANDS.update(
    {run: (*COMMANDS[name][:2], FLOAT_LEGS[leg][0]) for run, (name, leg) in LEG_RUNS.items()
     if __cpu_features__.get(FLOAT_LEGS[leg][1])}
)


@pytest.mark.parametrize("run", sorted(LEG_RUNS))
def test_float_legs_print_the_pinned_bytes(ran, run):
    name, leg = LEG_RUNS[run]
    if run not in ran:
        pytest.skip(f"numpy reports no {FLOAT_LEGS[leg][1]}, which the {leg} leg needs")
    proc = ran[run]
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_exact_output_bytes_are_pinned(ran, name):
    proc = ran[name]
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]


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


# Peak resident memory of `dual-check --J 16 --K 35 --format json`: 65 MB
# with 52 samples per q in the dump, 127 MB while a q over c cells
# got 2c + 1, 134 MB when the check and the dump first read per-cell
# arrays, 202 MB when they read J*K dual functions (CPython 3.11, numpy
# 2.4, Linux x86-64).
DUAL_CHECK_EDGE_MAX_RSS_MB = 96
# Peak resident memory of `dual-check --J 2 --K 2 --grid 1000000`: 63.0 to
# 63.2 MB, with the series evaluated cell by cell or by a gathered
# Clenshaw loop alike (the same platform).
DUAL_CHECK_GRID_MAX_RSS_MB = 64
# Peak resident memory of `thresholds --J 16 --K 35 --format json`, which
# builds and checks the certificate as dual-check does: 54 MB with
# value.solve's cells stacked once, 59 MB while construct_dual restacked
# them per cell (the same platform).
THRESHOLDS_EDGE_MAX_RSS_MB = 80
# Peak resident memory of `simulate --J 16 --K 35 --n 2**53 --trials 4096`:
# 38 MB with value.solve's cells solved in place, 44 MB while its per-cell
# arrays were stacked into copies (4 blocks of trials: no pool; the same
# platform).
SIMULATE_EDGE_MAX_RSS_MB = 64


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_thresholds_at_the_envelope_edge_stays_within_its_memory(tmp_path):
    argv = ["thresholds", "--J", "16", "--K", "35", "--format", "json"]
    code, peak = peak_rss_mb(tmp_path, argv)
    assert code == 0
    assert peak <= THRESHOLDS_EDGE_MAX_RSS_MB, f"peak {peak:.1f} MB"
    assert json.loads((tmp_path / "stdout").read_text())["verified"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_simulate_at_the_largest_input_stays_within_its_memory(tmp_path):
    argv = ["simulate", "--J", "16", "--K", "35", "--n", str(2**53), "--trials", "4096",
            "--format", "json"]
    code, peak = peak_rss_mb(tmp_path, argv)
    assert code == 0
    assert peak <= SIMULATE_EDGE_MAX_RSS_MB, f"peak {peak:.1f} MB"
    assert json.loads((tmp_path / "stdout").read_text())["trials"] == 4096


# The finite-n DP builds its weights a block of positions at a time: the
# peaks at n = 10 000 and n = 400 000 were both 32.7 MB (the same platform).
FINITE_LP_RSS_GROWTH_MB = 4


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_finite_lp_memory_stays_flat_in_n(tmp_path):
    argv = ["finite-lp", "--J", "1", "--K", "1", "--format", "json", "--n"]
    (small_code, small), (large_code, large) = (
        peak_rss_mb(tmp_path, [*argv, n]) for n in ("10000", "400000")
    )
    assert (small_code, large_code) == (0, 0)
    assert large - small <= FINITE_LP_RSS_GROWTH_MB, f"{small:.1f} -> {large:.1f} MB"


def test_failing_certificate_exits_4_and_prints_its_verdict(ran):
    proc = ran["perturb"]
    assert proc.returncode == 4
    assert b"FAIL" in proc.stdout


def refuse_constant(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


# Every subcommand with --format json; report writes CSV only.
JSON_COMMANDS = [
    "thresholds_exact_16", "thresholds_json", "dual_check_grid_1", "dual_check_grid_2",
    "dual_check_16_16", "dual_check_16_35", "finite_lp_json", "simulate_json",
]


@pytest.mark.parametrize("name", JSON_COMMANDS)
def test_json_output_is_strict(ran, name):
    """Each JSON output parses with Infinity and NaN refused, as jq and
    JavaScript's JSON.parse refuse them; a minimum over no checked point
    is null."""
    proc = ran[name]
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout, parse_constant=refuse_constant)
    if name.startswith("dual_check_grid_"):
        assert record["verification"]["min_inequality_slack"] is None


def test_output_file_gets_the_bytes_stdout_gets(ran, cli_dir):
    """main writes every subcommand's output, to stdout or to --output's
    file alike."""
    for name in WRITTEN:
        stdout, file = ran[name], ran[f"{name}_file"]
        assert (stdout.returncode, file.returncode, file.stdout) == (0, 0, b""), name
        assert stdout.stdout and stdout.stderr == file.stderr, name
        assert (cli_dir / f"{name}.out").read_bytes() == stdout.stdout, name


def test_simulation_output_is_identical_in_process_and_in_a_pool(ran):
    """The Binomial start at n = 2^53 and the largest seed, in-process and
    through a 2-process pool (40 blocks: both sides cross a group
    boundary, at different blocks)."""
    one, two = ran["sim_1"], ran["sim_2"]
    assert (one.returncode, two.returncode) == (0, 0)
    assert one.stdout and one.stdout == two.stdout


# The CLI in a child that prints, to stderr last, which of the modules a
# process pool needs it has imported.
POOL_MODULES_CHILD = """
import sys
from secretary_lab.cli import main
code = main(sys.argv[1:])
print([m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv", [[*SIM_ARGS, "--workers", "1"], ["dual-check", "--J", "2", "--K", "2"]]
)
def test_no_pool_module_is_imported_without_a_pool(tmp_path, argv):
    """The pool's modules cost a CLI process about 11 ms to import, so
    only a run that starts a pool imports them; SIM_ARGS would start one
    at --workers 2."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run([sys.executable, "-c", POOL_MODULES_CHILD, *argv], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == b"[]"


# A child that prints to stderr last, as JSON, whether `dataclasses` is
# loaded after `import secretary_lab` and after each command it runs.
DATACLASSES_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
import secretary_lab
seen = {"import": "dataclasses" in sys.modules}
from secretary_lab.cli import main
for line in sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        code = main(line.split())
    seen[line] = [code, "dataclasses" in sys.modules]
print(json.dumps(seen), file=sys.stderr)
"""


def test_no_command_imports_dataclasses(tmp_path):
    """The records are namedtuples, so neither the package's import nor
    any subcommand loads `dataclasses` (numpy does not either)."""
    lines = [
        "thresholds --J 3 --K 1 --exact", "thresholds --J 2 --K 2",
        "dual-check --J 2 --K 2 --format json", "finite-lp --J 2 --K 2 --n 10",
        "simulate --J 2 --K 2 --n 100 --trials 1000 --format json", "report",
    ]
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run([sys.executable, "-c", DATACLASSES_CHILD, *lines], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == {
        "import": False, **{line: [0, False] for line in lines}
    }


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
