"""The repository benchmark: one workload run, from the root of a checkout.

    python3 perfbench/run.py --workload alpha-search|density|cli-exact \
        [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``): runs the seed's job list in fresh interpreters,
one round each, until at least ``--seconds`` of timed work and
``MIN_ROUNDS`` rounds are done.  Every round gets the same inputs.  Every
time is taken at the reference speed of ``speed.py``, which takes out the
shared machine's changes of speed.  Each timed unit of the job list is
taken at its median over the rounds, and the times are built from those
medians: ``wall_s`` is their sum over the job list, ``op_p50_s`` their
median over the ops.  ``build_s`` is the median of every build sample.
Set-up time is the median over the rounds and ``SETUP_SAMPLES``
set-up-only starts.  The same figures as measured, unscaled, are printed
as comments and logged.

Traced (``--trace 1``): one untraced and one traced round on the same
inputs; prints the per-layer metrics of BENCHMARK.json, with the tracing
overhead as ``trace.overhead_frac``.

The first round runs the oracle after its timed phase; every later round
must give byte-identical answers.  The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run is also appended to ``perfbench/out/runs.jsonl`` with the machine
and source metadata; ``perfbench/report.py`` summarises that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_ROUNDS = 3
#: set-up-only starts per run, on top of one set-up per round
SETUP_SAMPLES = 5
#: a run must end within 180 s; no round starts once this much has passed
#: plus the mean round so far
RUN_DEADLINE_S = 150.0
ROUND_TIMEOUT_S = 170.0

#: every workload is developed on DEFAULT_SEED; a later performance claim
#: must also hold on HELDOUT_SEED, which no change is tuned on
DEFAULT_SEED = 1
HELDOUT_SEED = 1009


class RoundFailed(Exception):
    pass


def _env() -> dict:
    """The pinned environment every round runs in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["BURAU_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_round(workload: str, seed: int, deadline: float, check: bool = False,
                trace_out: Path | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, min(ROUND_TIMEOUT_S, deadline - time.monotonic()))
    t = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t)], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"a round exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"a round exited {proc.returncode}:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_answers(rounds: list[dict]) -> None:
    """Rounds after the checked one must answer exactly like it."""
    for r in rounds[1:]:
        if r["digest"] != rounds[0]["digest"]:
            r["failures"].append("outputs differ from the checked round")
            r["failed"] = r["attempted"]


def tail(values: list[float], better: str = "lower") -> str:
    """The highest whole percentile, on the worse side, with at least ten
    samples beyond it, as "p93 0.1299"; empty below 21 samples."""
    n = len(values)
    q = int(100 * (1 - 10 / n)) if n > 10 else 0
    if q <= 50:
        return ""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    if better == "higher":
        return f"p{100 - q} {cuts[100 - q - 1]:.6g}"
    return f"p{q} {cuts[q - 1]:.6g}"


def metadata() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_lines": src_lines,
            "env": {k: _env()[k] for k in ("BURAU_THREADS", "PYTHONHASHSEED")}}


def unit_medians(rounds: list[dict], key: str) -> list[float]:
    """Each timed unit's median over the rounds, from ``units`` (as
    measured) or ``units_ref`` (at the reference speed)."""
    return [statistics.median(times) for times in zip(*(r[key] for r in rounds))]


def timings(rounds: list[dict], setups: list[dict], key: str) -> dict:
    """The timed metrics, from the unit times under ``key``."""
    first = rounds[0]
    med = unit_medians(rounds, key)
    wall = sum(med[i] for i in first["job"])
    setup_key = "setup_ref_s" if key == "units_ref" else "setup_s"
    return {
        "setup_s": statistics.median(r[setup_key] for r in setups + rounds),
        "wall_s": wall,
        "ops_per_s": first["ops"] / wall,
        "op_p50_s": statistics.median(med[i] / first["per_op"]
                                      for i in first["op_units"]),
        "build_s": statistics.median(r[key][i] for r in rounds for i in r["build"]),
    }


def untraced(workload: str, seed: int, seconds: float, t0: float) -> tuple[dict, list]:
    """At least MIN_ROUNDS identical rounds, plus SETUP_SAMPLES set-ups."""
    deadline = t0 + ROUND_TIMEOUT_S
    setups = [spawn_round(workload, seed, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    rounds: list[dict] = []
    while True:
        rounds.append(spawn_round(workload, seed, deadline, check=not rounds))
        timed = sum(sum(r["units"]) for r in rounds)
        if len(rounds) >= MIN_ROUNDS and timed >= seconds:
            break
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / (len(rounds) + 1) > RUN_DEADLINE_S:
            break
    same_answers(rounds)
    letters = rounds[0]["answer_log10_letters"]
    metrics = {
        **timings(rounds, setups, "units_ref"),
        "approx_log10_letters": statistics.median(letters) if letters else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    print("# as measured, unscaled: " + ", ".join(
        f"{k} {v:.6g}" for k, v in timings(rounds, setups, "units").items()))
    return metrics, rounds


def traced(workload: str, seed: int, t0: float) -> tuple[dict, list]:
    """One untraced and one traced round on the same inputs."""
    deadline = t0 + ROUND_TIMEOUT_S
    base = spawn_round(workload, seed, deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.npz"
    run = spawn_round(workload, seed, deadline, check=True, trace_out=spans)
    rounds = [run, base]
    same_answers(rounds)
    if run["nesting_violations"]:
        run["failures"].append(f"{run['nesting_violations']} spans outside their parent")
        run["failed"] = max(run["failed"], 1)
    layers = dict(run["layers"])
    job = run["job"]
    layers["trace.overhead_frac"] = (sum(run["units_ref"][i] for i in job)
                                     / sum(base["units_ref"][i] for i in job) - 1)
    print(f"# traced: {run['spans']} spans written to {spans.relative_to(ROOT)}")
    return layers, rounds


def main(argv: list[str] | None = None) -> int:
    t0 = time.monotonic()
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "burau" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"no burau sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED}")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    try:
        if args.trace:
            values, rounds = traced(args.workload, args.seed, t0)
        else:
            values, rounds = untraced(args.workload, args.seed, args.seconds, t0)
    except RoundFailed as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    meta = metadata()
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "rounds": len(rounds), **meta}))
    for r in rounds:
        for f in r["failures"]:
            print(f"# FAIL: {f}")
    for spec in specs:
        print(f"{spec['name']:42s} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(f"{'fail_frac':42s} {failed / attempted:>14.6g} ratio "
          f"({failed}/{attempted})")
    if not args.trace:
        lat = [r["units_ref"][i] / r["per_op"] for r in rounds for i in r["op_units"]]
        print(f"# op latency over {len(lat)} op units in {len(rounds)} rounds: "
              f"p50 {statistics.median(lat):.6g} s"
              + (f", {tail(lat)} s" if tail(lat) else ""))

    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "seconds": args.seconds,
                             "metrics": values, "attempted": attempted,
                             "failed": failed, "meta": meta,
                             "rounds": [{k: v for k, v in r.items() if k != "layers"}
                                        for r in rounds]}) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
