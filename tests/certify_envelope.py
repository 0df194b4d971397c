"""Certify the whole (J, K) envelope: every pair with J <= MAX_J and
K <= MAX_K (560 pairs) must pass verify_certificate at dual-check's
defaults, and its dual-check JSON text, `certificate_json`, must equal
`json.dumps` of the oracle's record (tests/oracles.py) byte for byte,
and its cell ends `bps` must rise strictly from tau_{J,1} to 1 (value.solve
drops the cells of zero width).  Prints the worst equality residual and
the least inequality slack, with their pairs, the total time of each dump,
the first pair whose texts differ and the first pair whose cell ends do
not hold, and exits 1 naming each failing pair.

It also folds every pair's `certificate_json` text, in (J, K) order and
each followed by a newline, into one SHA-256 and prints it.  Float bits
depend on the whole float leg: the Python, numpy, whether numpy
dispatches its X86_V4 (AVX-512) kernels, and the core OpenBLAS picked for
its kernels.  On a leg in ENVELOPE_SHA256 the digest must equal the one
pinned there, or the sweep fails; on any other leg it is printed as
unpinned, since its float bits have not been recorded.

All four pinned legs were measured on one host: CPython 3.11.7 with
numpy 2.4.6 on an Intel CPU with AVX-512, whose OpenBLAS picks its
SkylakeX core.  The native leg is the host as it runs; the others are
made by NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR,
OPENBLAS_CORETYPE=Haswell or both.  Both together emulate an Intel
AVX2-only CPU, on which OpenBLAS picks Haswell; no such CPU has run it.
OpenBLAS may name an AMD CPU's core otherwise (Zen), so AMD legs stay
unpinned and unverified.  All 560 pairs pass on each pinned leg, with the
worst equality residual between 1.79e-12 and 2.76e-12.

Tier-1 covers only the edges (tests/test_dual.py::ENVELOPE_PAIRS).  The
sweep takes about 35-60 s on 2 vCPUs (35.2-62.2 s over thirteen runs on
five legs, CPython 3.11.7 with numpy 2.4), so CI runs it as its own step:

    python tests/certify_envelope.py

and, on its CPython 3.11 leg, again under each of the three variable
settings above, so that every pin is checked wherever the runner can
make its leg.  An AVX2-only runner can make the combined leg only.

About 40% of that time, 14.7-27.2 s, is json.dumps of the oracle's
record, the oracle's side of the byte comparison; certificate_json takes
5.0-8.5 s.  Timed apart in an earlier run of 35.3 s: construct_dual
9.7 s, verify_certificate 3.9 s and the oracle's record 2.8 s.
"""

import ctypes
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
from secretary_lab.dual import certificate_json, construct_dual, verify_certificate
from secretary_lab.value import MAX_J, MAX_K

from oracles import certificate_to_dict

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

# SHA-256 of the 560 certificate_json texts on each recorded float leg
_LEG = ("CPython", "3.11", "2.4")
ENVELOPE_SHA256 = {
    (*_LEG, True, "SkylakeX"): "0ffe38e6093d18fdab54eab0cbcac7d76c5d6c73148bfd1a380fd8b4a0e3aadd",
    (*_LEG, False, "SkylakeX"): "fd3880cb87293e3cc9d1ad0594d1f0af1f080deadf3f9c8aa184d8591f6fd3c4",
    (*_LEG, True, "Haswell"): "0dbb3724fc5c7601924bc393162bf9baff74ad5be23a2aa24865909c7bff60ab",
    (*_LEG, False, "Haswell"): "8edbaeaabc477c33fef8b85535f0cb5d81cfabcb96b1aedf6c40b5396a152224",
}


def blas_core() -> str:
    """The core OpenBLAS picked for its kernels, read from the library in
    numpy's wheel (numpy 2.x's symbol, then 1.x's), or "unknown"."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy loaded it: this is its handle
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def leg() -> tuple[str, str, str, bool, str]:
    """(implementation, Python major.minor, numpy major.minor, X86_V4
    dispatched, OpenBLAS core) of this run."""
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    return (platform.python_implementation(), "%d.%d" % sys.version_info[:2], numpy_minor,
            bool(__cpu_features__.get("X86_V4")), blas_core())


def main() -> int:
    start = time.perf_counter()
    worst_eq, least_slack, failed = (0.0, None), (float("inf"), None), []
    dump_s, oracle_s, mismatches, bad_ends = 0.0, 0.0, [], []
    digest = hashlib.sha256()
    for J in range(1, MAX_J + 1):
        for K in range(1, MAX_K + 1):
            cert = construct_dual(J, K)
            bps = cert.bps
            if not (bps[0] == cert.tau.threshold(J, 1) and bps[-1] == 1.0
                    and (bps[1:] > bps[:-1]).all()):
                bad_ends.append((J, K))
            report = verify_certificate(cert)
            if not report.ok:
                failed.append(f"({J},{K}): {report.first_violation}")
            worst_eq = max(worst_eq, (report.max_equality_residual, (J, K)))
            least_slack = min(least_slack, (report.min_inequality_slack, (J, K)))
            t = time.perf_counter()
            text = certificate_json(cert, report)
            dump_s += time.perf_counter() - t
            digest.update(text.encode() + b"\n")
            t = time.perf_counter()
            want = json.dumps(certificate_to_dict(cert, report))
            oracle_s += time.perf_counter() - t
            if text != want:
                mismatches.append((J, K))
    pairs = MAX_J * MAX_K
    print(f"{pairs - len(failed)}/{pairs} pairs pass in {time.perf_counter() - start:.1f} s")
    print(f"worst equality residual: {worst_eq[0]:.2e} at {worst_eq[1]}")
    print(f"least inequality slack: {least_slack[0]:.2e} at {least_slack[1]}")
    print(f"certificate_json: {dump_s:.1f} s; json.dumps of the oracle's record: {oracle_s:.1f} s")
    print(f"certificate_json digest: {digest.hexdigest()}")
    pinned = ENVELOPE_SHA256.get(leg())
    if pinned is None:
        print("digest unpinned on %s %s, numpy %s, X86_V4 %s, OpenBLAS core %s" % leg())
    elif digest.hexdigest() != pinned:
        failed.append(f"certificate_json digest differs from {pinned}")
    if mismatches:
        failed.append(f"{mismatches[0]}: certificate_json differs from json.dumps of the record"
                      f" ({len(mismatches)} pairs in all)")
    if bad_ends:
        failed.append(f"{bad_ends[0]}: bps do not rise strictly from tau_(J,1) to 1"
                      f" ({len(bad_ends)} pairs in all)")
    for line in failed:
        print(f"FAIL {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
