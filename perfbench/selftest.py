"""Self-test of the benchmark at a toy size (about a minute).

    python3 perfbench/selftest.py

Runs every workload shrunk (verify at n_max = 7, the smallest size that
still shards roots over the pool and writes a checkpoint; construct-check
with nu < 6), untraced and traced, and checks that:

- every metric that BENCHMARK.json names is emitted, with its unit, and
  nothing else;
- all outputs match the pinned values;
- a deliberately wrong expected value (a verdict, an edge count, a census
  count) turns into failed operations and correct = false, not a pass.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import golden
import run

SECONDS = 0.1  # the minimum number of repetitions per run


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wl = run.workloads(toy=True)
    check([w["name"] for w in spec["workloads"]] == list(wl), "workload names match BENCHMARK.json", problems)

    for name in wl:
        info, result = run.measure(name, wl, seed=1, seconds=SECONDS, trace=False)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == declared_e2e, f"{name}: end-to-end metrics and units", problems)
        check(all(v["value"] > 0 for v in result["metrics"].values()), f"{name}: metrics positive", problems)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{name}: all {result['attempted']} ops correct {info['failures']}", problems)

    info, result = run.measure(run.VERIFY, wl, seed=1, seconds=SECONDS, trace=True)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == declared_layer, "traced run: per-layer metrics and units", problems)
    check(result["correct"], f"traced run: census and outputs correct {info['failures']}", problems)
    census = [result["metrics"][f"census.n{n}"]["value"] for n in range(1, 8)]
    check(census == golden.CENSUS_D6[:7], f"traced run: census {census}", problems)

    poisoned = copy.deepcopy(wl)
    poisoned[run.VERIFY]["expected"]["verdicts"]["3"][1] += 1
    poisoned[run.PARALLEL]["expected"]["table"][0][3] = "D??"
    poisoned[run.CONSTRUCT]["expected"]["edges"]["6"][0] += 1
    for name in poisoned:
        info, result = run.measure(name, poisoned, seed=1, seconds=SECONDS, trace=False)
        check(not result["correct"] and result["failed"] > 0 and info["fail_ratio"] > 0,
              f"{name}: wrong expected value gives fail_ratio {info['fail_ratio']:.3f}", problems)

    saved = golden.CENSUS_D6
    golden.CENSUS_D6 = [1, 1, 2, 6, 20, 99, 567, 4323]
    try:
        info, result = run.measure(run.VERIFY, wl, seed=1, seconds=SECONDS, trace=True)
    finally:
        golden.CENSUS_D6 = saved
    check(not result["correct"] and result["failed"] > 0,
          f"traced run: wrong census count gives fail_ratio {info['fail_ratio']:.3f}", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
