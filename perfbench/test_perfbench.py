"""Self-check of the benchmark's tracer and oracle on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once at size "tiny" under the tracer.  Every boundary
must fire on the workloads it is mapped to, every child span must lie
inside its parent, the oracle must pass, and uninstalling must restore the
original functions.  The speed probe scales by the samples around a
unit.  The last test runs ``run.py`` in a directory holding
only BENCHMARK.json and the benchmark, where it must fail cleanly.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import burau.cli  # noqa: E402
import burau.density  # noqa: E402
import burau.laurent  # noqa: E402
import burau.rep  # noqa: E402
import burau.search  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_run(request):
    workload = request.param
    inputs = workloads.make_inputs(workload, 1, "tiny")
    t = tracing.Tracer()
    t.install()
    try:
        out = workloads.run_ops(workload, inputs, t)
    finally:
        t.uninstall()
    return workload, inputs, out, t


def test_every_mapped_boundary_fires(traced_run):
    workload, _, _, t = traced_run
    layers = t.layer_metrics()
    silent = [name for name, where in tracing.LAYER_WORKLOADS.items()
              if workload in where and layers[f"{name}.calls"] == 0]
    assert silent == []


def test_children_nest_inside_parents(traced_run):
    _, _, _, t = traced_run
    assert len(t.start) > 0
    assert t.nesting_violations() == 0
    assert (t.self_times() >= -1e-9).all()


def test_oracle_passes(traced_run):
    workload, inputs, out, _ = traced_run
    assert out["errors"] == []
    assert workloads.check(workload, inputs, out) == []


def test_rebinds_names_imported_from_rep():
    orig_trunc = burau.rep.burau_eval_trunc
    orig_mul = burau.laurent.LaurentPoly.__mul__
    t = tracing.Tracer()
    t.install()
    try:
        for mod in (burau.search, burau.density, burau.cli):
            assert mod.burau_eval_trunc is not orig_trunc
        assert burau.laurent.LaurentPoly.__rmul__ is burau.laurent.LaurentPoly.__mul__
    finally:
        t.uninstall()
    for mod in (burau.rep, burau.search, burau.density, burau.cli):
        assert mod.burau_eval_trunc is orig_trunc
    assert burau.laurent.LaurentPoly.__mul__ is orig_mul
    assert burau.laurent.LaurentPoly.__rmul__ is orig_mul


def test_tracer_covers_every_boundary_listed_in_benchmark():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    assert set(tracing.LAYER_WORKLOADS) == set(tracing.SPAN_NAMES)
    for span in tracing.SPAN_NAMES:
        assert f"{span}.self_s" in names


def test_speed_scale_uses_the_probes_around_a_unit():
    p = speed.Probe()
    p.at = [0.1 * i for i in range(40)]
    p.cpu = [speed.REFERENCE_S] * 20 + [2 * speed.REFERENCE_S] * 20
    assert p.scale(0.5, 1.0) == pytest.approx(1.0)
    assert p.scale(3.0, 3.5) == pytest.approx(0.5)
    # a window with too few samples widens to the nearest MIN_SAMPLES
    p.at, p.cpu = p.at[::10], p.cpu[::10]
    assert p.scale(0.0, 0.01) == pytest.approx(1 / 1.5)


def test_speed_probe_samples_while_running():
    p = speed.Probe().start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        speed.kernel()
    p.stop()
    assert len(p.cpu) >= speed.MIN_SAMPLES
    assert p.scale(t0, time.perf_counter()) > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "density", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
