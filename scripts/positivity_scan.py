"""Scan the ratio-coordinate expansion for negative coefficients.

Orders up to four stay nonnegative as far as anyone has looked; the
order-five expansion picks up a -1 already at total degree five, at
a1*a2*a3^2*a4 (the default --step of 4 first reports it at degree eight).
The scan prints the running minimum so the first negative witness is easy
to spot when pushing the degree bound higher.
"""

import argparse
import time

from thomcalc import positivity_expansion


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-d", type=int, default=2)
    parser.add_argument("--max-d", type=int, default=5)
    parser.add_argument("--order", type=int, default=12, help="total degree bound")
    parser.add_argument(
        "--step", type=int, default=4, help="report at every multiple of this degree"
    )
    args = parser.parse_args()

    for d in range(args.min_d, args.max_d + 1):
        print(f"-- order {d}")
        for order in range(0, args.order + 1, args.step):
            start = time.perf_counter()
            report = positivity_expansion(d, order)
            elapsed = time.perf_counter() - start
            witness = f" at {report.witness}" if report.witness else ""
            print(
                f"  degree <= {order:3d}: {report.term_count:5d} terms, "
                f"minimum {report.minimum}{witness} ({elapsed:.2f}s)"
            )
        if not positivity_expansion(d, args.order).nonnegative:
            print("  negative coefficient found; the expansion is not a certificate")


if __name__ == "__main__":
    main()
