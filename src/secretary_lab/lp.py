"""Placeholder for the finite LP's names.

The finite LP and its exact simplex live in tests/simplex.py, a test
oracle for P*_n from `dp`.  Called by nothing: the benchmark's traced
passes wrap these names (ROADMAP item 1 drops them).
"""

build_lp = solve_lp = None
