"""One benchmark round, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --spawned-at T \
        [--setup-only | --check] [--trace-out spans.npz]

Pins itself to one CPU and starts the speed probe, makes the seed's inputs
(and stops there with ``--setup-only``), times each unit of the job list
and reads the peak RSS.  Every time is reported as measured and at the
probe's reference speed (``speed.py``).  After
the timed span it hashes the outputs and, with ``--check``, runs the
oracle.  With ``--trace-out`` it installs the tracer after the inputs are
made, adds the per-layer figures and writes every span.  Prints one JSON
object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402  (imports burau)


def _workload_figures(workload: str, inputs: dict, out: dict, tracer) -> dict:
    """Per-layer figures read from the outputs and the spans of one op."""
    fig = {"density.witnesses_kept": 0, "density.witness_yield": 0.0,
           "density.max_step_coeff_log10": 0.0,
           "search.candidates": 0, "search.trunc_evals": 0,
           "search.exact_evals": 0, "search.kept_hits": 0,
           "search.hit_yield": 0.0, "cli.stdout_bytes": 0}
    if workload == "density":
        kept = sum(len(v) for v in out["library"].per_degree.values())
        evals = tracer.calls("rep.eval_trunc", op=out["build"][0])
        fig["density.witnesses_kept"] = kept
        fig["density.witness_yield"] = kept / evals if evals else 0.0
        top = max((abs(c) for r in out["results"] if r is not None
                   for s in r.steps if s.degree >= 1 for c in s.coefficients),
                  default=0)
        fig["density.max_step_coeff_log10"] = math.log10(top) if top else 0.0
    elif workload == "alpha-search":
        outcome, search_op = out["outcome"], out["op_units"][0]
        exact = tracer.calls("rep.eval_exact", op=search_op)
        fig["search.candidates"] = outcome.candidates
        fig["search.trunc_evals"] = tracer.calls("rep.eval_trunc", op=search_op)
        fig["search.exact_evals"] = exact
        fig["search.kept_hits"] = len(outcome.hits)
        fig["search.hit_yield"] = len(outcome.hits) / exact if exact else 0.0
    elif workload == "cli-exact":
        fig["cli.stdout_bytes"] = sum(len(text.encode()) for _, text in out["calls"])
    return fig


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--check", action="store_true", help="run the oracle")
    p.add_argument("--setup-only", action="store_true",
                   help="make the inputs, report setup_s and exit")
    p.add_argument("--trace-out", help="write the spans here and report layers")
    args = p.parse_args(argv)

    speed.pin_to_one_cpu()
    probe = speed.Probe().start()
    t_inputs = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed, "full")
    setup_window = (t_inputs, time.perf_counter())
    if args.setup_only:
        setup_s = time.monotonic() - args.spawned_at
        probe.stop()
        print(json.dumps({"setup_s": setup_s,
                          "setup_ref_s": setup_s * probe.scale(*setup_window)}))
        return 0
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at
    out = workloads.run_ops(args.workload, inputs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    if tracer is not None:
        tracer.uninstall()

    failures = list(out["errors"])
    if args.check and not failures:
        failures = workloads.check(args.workload, inputs, out)
    attempted = out["ops"]
    result = {
        "setup_s": setup_s, "setup_ref_s": setup_s * probe.scale(*setup_window),
        "units": out["units"],
        "units_ref": [u * probe.scale(a, b)
                      for u, (a, b) in zip(out["units"], out["intervals"])],
        "job": out["job"], "build": out["build"],
        "op_units": out["op_units"], "per_op": out["per_op"], "ops": out["ops"],
        "peak_rss_mb": peak_rss_mb,
        "answer_log10_letters": workloads.answer_log10_letters(args.workload,
                                                                inputs, out),
        "attempted": attempted, "failed": min(len(failures), attempted),
        "failures": failures[:20],
        "digest": workloads.digest(args.workload, out),
    }
    if tracer is not None:
        tracer.save(args.trace_out)
        result["layers"] = {**tracer.layer_metrics(),
                            **_workload_figures(args.workload, inputs, out, tracer)}
        result["nesting_violations"] = tracer.nesting_violations()
        result["spans"] = len(tracer.start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
