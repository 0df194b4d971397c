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
each followed by a newline, into one SHA-256 and prints it.  On CPython
3.11 with numpy 2.4 the digest must equal ENVELOPE_SHA256, or the sweep
fails; on any other (Python, numpy) leg it is printed as unpinned, since
float bits there may differ and have not been recorded.

Tier-1 covers only the edges (tests/test_dual.py::ENVELOPE_PAIRS).  The
sweep takes about 35-40 s on 2 vCPUs (35.3 s on CPython 3.11.7 with numpy
2.4), so CI runs it as its own step:

    python tests/certify_envelope.py

Where that time goes, timed apart over the 560 pairs in one more run:
construct_dual 9.7 s, verify_certificate 3.9 s, certificate_json 5.1 s,
and 14.7 s, about 40%, for the oracle's side of the byte comparison (its
record 2.8 s, json.dumps of the record 11.9 s).
"""

import hashlib
import json
import platform
import sys
import time

import numpy as np
from secretary_lab.dual import certificate_json, construct_dual, verify_certificate
from secretary_lab.value import MAX_J, MAX_K

from oracles import certificate_to_dict

# SHA-256 of the 560 certificate_json texts, taken on CPython 3.11.7 with numpy 2.4.6
ENVELOPE_SHA256 = "0ffe38e6093d18fdab54eab0cbcac7d76c5d6c73148bfd1a380fd8b4a0e3aadd"
PINNED_LEG = ("CPython", "3.11", "2.4")


def leg() -> tuple[str, str, str]:
    """(implementation, Python major.minor, numpy major.minor) of this run."""
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    return platform.python_implementation(), "%d.%d" % sys.version_info[:2], numpy_minor


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
    if leg() != PINNED_LEG:
        print("digest unpinned on %s %s with numpy %s: pinned only on %s %s with numpy %s"
              % (leg() + PINNED_LEG))
    elif digest.hexdigest() != ENVELOPE_SHA256:
        failed.append(f"certificate_json digest differs from {ENVELOPE_SHA256}")
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
