"""Certify the whole (J, K) envelope: every pair with J <= MAX_J and
K <= MAX_K (560 pairs) must pass verify_certificate at dual-check's
defaults, and its dual-check JSON text, `certificate_json`, must equal
`json.dumps` of the oracle's record (tests/oracles.py) byte for byte,
and its cell ends `bps` must rise strictly from tau_{J,1} to 1 (value.solve
drops the cells of zero width).  Prints the worst equality residual and
the least inequality slack, with their pairs, the total time of each dump,
the first pair whose texts differ and the first pair whose cell ends do
not hold, and exits 1 naming each failing pair.

Tier-1 covers only the edges (tests/test_dual.py::ENVELOPE_PAIRS); this
sweep takes about 47 s on 2 vCPUs, so CI runs it as its own step:

    python tests/certify_envelope.py
"""

import json
import sys
import time

from secretary_lab.dual import certificate_json, construct_dual, verify_certificate
from secretary_lab.value import MAX_J, MAX_K

from oracles import certificate_to_dict


def main() -> int:
    start = time.perf_counter()
    worst_eq, least_slack, failed = (0.0, None), (float("inf"), None), []
    dump_s, oracle_s, mismatches, bad_ends = 0.0, 0.0, [], []
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
