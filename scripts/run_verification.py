#!/usr/bin/env python3
"""Run the full classification-verification harness and write a JSON report.

Reproduces every harness check over the default catalog, prints one line
per (claim, convention) pair, and summarizes the convention discrepancies
(the Strict-vs-Punctured divergences the reports track).
"""

import argparse
import sys
from pathlib import Path

from gpgraph.powergraph import VertexConvention
from gpgraph.verify import (
    VerifyConfig,
    format_report_line,
    punctured_counterexample_free,
    reports_to_json,
    run_all,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=64)
    parser.add_argument("--out", type=Path, default=Path("verification_report.json"))
    parser.add_argument(
        "--all-conventions", action="store_true",
        help="also run the identity-bearing conventions (strict-id, full)",
    )
    args = parser.parse_args()

    conventions = tuple(VertexConvention) if args.all_conventions else (
        VertexConvention.STRICT, VertexConvention.PUNCTURED
    )
    config = VerifyConfig(max_order=args.max_order, conventions=conventions)
    reports = run_all(config)

    for report in reports:
        print(format_report_line(report))

    discrepancies = [(r.theorem, r.convention, f) for r in reports for f in r.discrepancies]
    if discrepancies:
        print("\nconvention discrepancies (not counterexamples):")
        for theorem, convention, f in discrepancies:
            print(f"  {theorem} [{convention}] {f.group}: {f.observed}, classification says {f.expected}")

    args.out.write_text(reports_to_json(reports), encoding="utf-8")
    print(f"\nJSON report written to {args.out}")

    ok = punctured_counterexample_free(reports)
    print("punctured-convention verdicts clean:", "yes" if ok else "NO")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
