"""Summarise the runs that ``run.py`` appended to ``perfbench/out/runs.jsonl``.

    python3 perfbench/report.py [--file perfbench/out/runs.jsonl]

For every workload and metric: the run count, the median, and the highest
whole percentile with at least ten runs beyond it (on the worse side of the
metric), or "-" while there are fewer than 21 runs.  Untraced runs give the
end-to-end metrics, traced runs the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import tail

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--file", default=str(HERE / "out" / "runs.jsonl"))
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = [json.loads(line) for line in Path(args.file).read_text().splitlines()
            if line.strip()]
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for w in bench["workloads"]:
            mine = [r for r in runs if r["workload"] == w["name"] and r["trace"] == trace]
            if not mine:
                continue
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            print(f"== {w['name']} ({'traced' if trace else 'untraced'}): "
                  f"{len(mine)} runs, seeds {sorted({r['seed'] for r in mine})}, "
                  f"fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
            for spec in specs:
                vals = [r["metrics"][spec["name"]] for r in mine]
                print(f"  {spec['name']:42s} n={len(vals):<3d} "
                      f"median {statistics.median(vals):<12.6g} "
                      f"{tail(vals, spec['better']) or '-':>18s} {spec['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
