"""Smoke check of the benchmark: every workload once at its smallest size.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  For each workload in BENCHMARK.json
it runs one tiny deck (``--seconds 0``) once untraced and twice traced with
the same seed, and fails unless every run is correct, every metric
BENCHMARK.json names is present with its unit, and the counts below repeat
exactly.
"""

import json
import sys

import run

COUNTS = ("simulate.events_per_replicate", "simulate.events_per_replicate_max",
          "closed_form.pmf_calls", "verify.rk4_steps")


def _run(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0",
                           "--trace", str(trace), "--tiny"])
    _, result = run.run(args)
    return result


def _require_metrics(result: dict, listed: list, where: str) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{where}: run not correct: {result}")
    for metric in listed:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise SystemExit(f"{where}: metric {metric['name']} missing or not in "
                             f"{metric['unit']}: {got}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        name = workload["name"]
        _require_metrics(_run(name, 0), spec["end_to_end"], f"{name} untraced")
        first, second = _run(name, 1), _run(name, 1)
        _require_metrics(first, spec["per_layer"], f"{name} traced")
        for count in COUNTS:
            a, b = first["metrics"][count]["value"], second["metrics"][count]["value"]
            if a != b:
                raise SystemExit(f"{name}: {count} differs between runs: {a} != {b}")
        print(f"{name}: ok", {c: first["metrics"][c]["value"] for c in COUNTS}, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
