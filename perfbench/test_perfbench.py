"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import layers
import run
import tracer
import workloads


def test_self_time_subtracts_the_union_of_clipped_children():
    # root [0, 100] has children a [10, 40], b [50, 70], c [60, 80] (overlaps
    # b) and d [90, 120] (sticks out of root); a has a child g [15, 25].
    start = [0, 10, 15, 50, 60, 90]
    end = [100, 40, 25, 70, 80, 120]
    parent = [-1, 0, 1, 0, 0, 0]
    assert tracer.self_times(start, end, parent) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]


def test_tracer_dump_round_trips_nesting(tmp_path):
    t = tracer.Tracer()
    outer = t.begin("outer")
    inner = t.begin("inner")
    t.finish(inner)
    t.count("hits", 3)
    t.gauge_max("bits", 7)
    t.gauge_max("bits", 5)
    t.finish(outer)
    t.dump(tmp_path / "t.json", import_s=0.5)
    back = tracer.load(tmp_path / "t.json")
    assert [back.names[i] for i in back.name_id] == ["outer", "inner"]
    assert list(back.parent) == [-1, 0]
    assert back.start[0] <= back.start[1] <= back.end[1] <= back.end[0]
    assert back.counts == {"hits": 3} and back.gauges == {"bits": 7}
    assert back.meta == {"import_s": 0.5}


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond_it():
    assert layers.tail(list(range(1000)))["tail_percentile"] == 99.0
    assert layers.tail(list(range(100)))["tail_percentile"] == 90.0
    assert layers.tail(list(range(20)))["tail_percentile"] == 50.0
    assert "tail_percentile" not in layers.tail(list(range(19)))
    assert layers.tail([]) == {"samples": 0, "median": 0.0}


def _snapshot(workload, inputs):
    files = {p.name: p.read_bytes() for p in sorted(inputs.iterdir())}
    ops = [(op.name, op.mode, [a.replace(str(inputs), "<in>") for a in op.args])
           for op in workload.operations]
    return files, ops


def test_generation_is_deterministic_for_a_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = _snapshot(workloads.generate(name, 7, tmp_path / name / "a"), tmp_path / name / "a")
        b = _snapshot(workloads.generate(name, 7, tmp_path / name / "b"), tmp_path / name / "b")
        c = _snapshot(workloads.generate(name, 8, tmp_path / name / "c"), tmp_path / name / "c")
        assert a == b, name
        assert a[0] != c[0], name


def test_every_generated_input_has_a_golden_entry():
    golden = workloads.load_golden()
    series = golden["series_invariants"]
    assert set(series["gd"]) == {x for stratum in workloads.GD_STRATA for x in stratum}
    assert set(series["mwu_exp"]) == {workloads.state_key(x) for x in workloads.MWU_POOL}
    assert set(series["rgd_sphere"]) == {workloads.state_key(x) for x in workloads.SPHERE_POOL}
    assert set(series["simulate"]) == set(workloads.SIMULATE_POOL)
    assert len(series["classify"]) == len(workloads.CLASSIFY_POOL) * len(workloads.CLASSIFY_SHIFTS)
    for kind in workloads.SCANS:
        assert set(golden["pair_scan"][kind]) == {str(s) for s in workloads.SCAN_SEEDS}
    # The pinned seed behaviour the checks are meant to keep visible.
    for entry in series["gd"].values():
        assert not entry["divergent"] and "nan" in entry["per_step_defect"]


def test_series_check_catches_moved_nan_and_changed_values():
    want = workloads.load_golden()["series_invariants"]["gd"]["0.60"]
    assert workloads.compare_series(want, want, "x") == []
    nudged = dict(want, value=want["value"] + 1e-6)
    assert workloads.compare_series(nudged, want, "x")
    defects = list(want["per_step_defect"])
    first_nan = defects.index("nan")
    defects[first_nan] = 0.0
    assert workloads.compare_series(dict(want, per_step_defect=defects), want, "x")
    assert workloads.compare_series(dict(want, divergent=True), want, "x")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_counts_repeat_across_traced_runs(tmp_path):
    workload = workloads.generate("series_invariants", 3, tmp_path / "inputs")
    gd_only = workloads.Workload(workload.name, workload.operations[:1], workload.setup_config)
    runner = run.Runner(tmp_path / "work", time.perf_counter())
    passes = [runner.run_pass(gd_only, f"pass{i}", traced=True) for i in range(2)]
    assert [p.problems for p in passes] == [[], []]
    first, second = (p.layers.metrics(p.output_bytes, 0.0)[0] for p in passes)
    counts = [m for m, unit in layers.PER_LAYER if unit in layers.EXACT_UNITS]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    # Three non-divergent states, each with 1 + 50 series evaluations.
    assert first["invariants.series_calls"] == 153
    assert first["invariants.top_level_series"] == 3
    assert first["dynamics.inverse_calls.gd"] > 0 and first["maps.step_calls"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

