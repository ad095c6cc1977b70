#!/usr/bin/env python3
"""Tabulate how fast the conditional law approaches its limit.

For a sweep of horizons t the script prints the decaying mean M(t), the
total-variation distance between the conditional-on-survival law and the
limit law, and the ratio TV/M(t).  The ratio settling to a constant is
the numerical signature of the first-order convergence rate.
"""

import argparse
import math
import sys

from logbranch import (DomainError, ModelParams, NumericalDivergence,
                       PrecisionLoss, conditional_law_at, limit_law, tv_distance)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="offspring mixture weight (default 0.5)")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="per-individual event rate (default 1.0)")
    parser.add_argument("--t-start", type=float, default=1.0,
                        help="first horizon (default 1.0)")
    parser.add_argument("--doublings", type=int, default=5,
                        help="number of horizon doublings (default 5)")
    args = parser.parse_args()

    params = ModelParams(alpha=args.alpha, rate=args.rate)
    lim = limit_law(params)

    print(f"alpha={args.alpha}  rate={args.rate}  "
          f"decay rate={params.malthusian_rate:.6f}")
    print(f"{'t':>10} {'mean M(t)':>14} {'TV distance':>14} {'TV / M(t)':>12}")
    t = args.t_start
    for _ in range(args.doublings + 1):
        tp = params.at(t)
        tv = tv_distance(conditional_law_at(params, tp), lim)
        print(f"{t:>10.3f} {tp.mean:>14.6e} {tv:>14.6e} {tv / tp.mean:>12.6f}")
        t *= 2.0

    final = params.at(t / 2.0)
    print(f"\nextrapolated constant: TV ~ "
          f"{tv_distance(conditional_law_at(params, final), lim) / final.mean:.6f}"
          f" * M(t) as t -> infinity")


if __name__ == "__main__":
    # the CLI's contract: one error line, exit 2 for a bad input, 1 when the
    # numerics fail
    try:
        main()
    except (DomainError, NumericalDivergence, PrecisionLoss) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2 if isinstance(exc, DomainError) else 1)
