#!/usr/bin/env python3
"""Measure the convergence order of the backward integrator.

Integrates the generating-function ODE for the logarithmic-mixture
mechanism with a sequence of halved step sizes, compares each run with
the closed-form value, and prints the observed order (the log2 ratio of
successive errors).  Fourth-order behaviour shows as the column
settling near 4 until roundoff takes over.
"""

import argparse
import math
import sys

from logbranch import (DomainError, ModelParams, NumericalDivergence,
                       PrecisionLoss, pgf_at)
from logbranch.verify import integrate_backward, log_mixture_mechanism


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="offspring mixture weight (default 0.5)")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="per-individual event rate (default 1.0)")
    parser.add_argument("--s0", type=float, default=0.2,
                        help="evaluation point of the generating function")
    parser.add_argument("--t-end", type=float, default=2.0,
                        help="integration horizon (default 2.0)")
    parser.add_argument("--step", type=float, default=0.2,
                        help="coarsest step size (default 0.2)")
    parser.add_argument("--halvings", type=int, default=8,
                        help="number of step halvings (default 8)")
    args = parser.parse_args()

    params = ModelParams(alpha=args.alpha, rate=args.rate)
    mech = log_mixture_mechanism(params)
    reference = pgf_at(params, params.at(args.t_end), args.s0)

    print(f"alpha={args.alpha}  rate={args.rate}  s0={args.s0}  "
          f"t_end={args.t_end}  reference={reference:.17g}")
    print(f"{'step':>12} {'abs error':>14} {'observed order':>16}")

    prev_error = None
    step = args.step
    for _ in range(args.halvings + 1):
        # the integrator's time is rate * t
        value = integrate_backward(mech, args.s0, args.rate * args.t_end,
                                   args.rate * step).final
        error = abs(value - reference)
        if not prev_error or error == 0.0:  # no previous run, or an exact one
            order = ""
        else:
            order = f"{math.log2(prev_error / error):>16.3f}"
        print(f"{step:>12.6f} {error:>14.6e} {order:>16}")
        prev_error = error
        step /= 2.0


if __name__ == "__main__":
    # the CLI's contract: one error line, exit 2 for a bad input, 1 when the
    # numerics fail
    try:
        main()
    except (DomainError, NumericalDivergence, PrecisionLoss) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2 if isinstance(exc, DomainError) else 1)
