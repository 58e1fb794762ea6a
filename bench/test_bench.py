"""Tests of the benchmark itself: inputs, oracle, tracer and clean-up.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload: str, seed: int, work: Path):
    work.mkdir()
    inputs = workloads.generate_inputs(workload, seed, ROOT, work)
    files = {name: Path(path).read_bytes() for name, path in inputs["configs"].items()}
    rounds = [[(op.label, json.dumps(op.payload, sort_keys=True))
               for op in workloads.make_round(inputs)] for _ in range(3)]
    return files, rounds


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload, tmp_path):
    assert workload in workloads.WORKLOADS
    first = _inputs(workload, 5, tmp_path / "a")
    assert _inputs(workload, 5, tmp_path / "b") == first
    assert _inputs(workload, 6, tmp_path / "c") != first


def test_oracle_does_not_import_the_library():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oracle; "
            "assert not any(m.startswith('risbeam') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, timeout=60)


def test_oracle_flags_one_perturbed_pattern_value(tmp_path):
    rb = workloads.import_library(ROOT / "src")
    config = ROOT / "configs" / "single_subregion.json"
    for command, out in (("design", "ref"), ("pattern", "out")):
        assert rb.cli.main([command, "--config", str(config),
                            "--out", str(tmp_path / out)]) == 0
    ref = oracle.Reference.load(config, tmp_path / "ref")
    path = tmp_path / "out" / "pattern.csv"
    lines = path.read_text().split("\n")
    rng = np.random.default_rng(0)
    points = oracle.sample_points(len(lines) - 2, lines[0].count(","), rng, 16)
    assert oracle.check_pattern(path, ref, rng, points) is None

    # Raise the strongest of the checked cells by 0.01 dB.
    r, c = max(points, key=lambda rc: float(lines[1 + rc[0]].split(",")[1 + rc[1]]))
    row = lines[1 + r].split(",")
    row[1 + c] = repr(float(row[1 + c]) + 0.01)
    lines[1 + r] = ",".join(row)
    path.write_text("\n".join(lines))
    assert f"pattern.csv[{r},{c}]" in oracle.check_pattern(path, ref, rng, points)


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    rb = workloads.import_library(ROOT / "src")
    originals = (rb.design.design_closed_form, rb.cli.heatmap_svg,
                 rb.arrays.sample_gains, rb.cli.main)
    slot = next(s for s in workloads.SWEEP_SLOTS
                if s["m"] == 32 and s["method"] == "search")
    job = workloads._sweep_job(np.random.default_rng(3), slot)
    runner = workloads.Runner({"configs": {}}, rb, tmp_path, 0)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert rb.design_closed_form is rb.design.design_closed_form \
            is rb.cli.design_closed_form is not originals[0]
        assert rb.metrics.sample_gains is rb.arrays.sample_gains is not originals[2]
        assert rb.cli.heatmap_svg is not originals[1]
        outcome = runner.run(workloads.Op("job", "search", job))
    finally:
        spans.uninstall()
    assert (rb.design.design_closed_form, rb.cli.heatmap_svg,
            rb.arrays.sample_gains, rb.cli.main) == originals
    assert rb.design_closed_form is originals[0]
    assert oracle.check_sweep_job(outcome) is None

    values = {k: v["value"] for k, v in spans.metrics(0.0).items()}
    assert values["design.eta_candidates"] == workloads.SEARCH_RESOLUTION ** 2
    own = spans.self_times()
    assert min(own) >= 0.0
    roots = sum(end - start for parent, _, start, end in spans.spans if parent < 0)
    assert sum(own) == pytest.approx(roots)

    spans.write_spans(tmp_path / "spans.jsonl")
    written = [json.loads(line) for line in
               (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(w["parent"], w["key"]) for w in written] == \
        [(parent, key) for parent, key, _, _ in spans.spans]
    assert all(w["parent"] < w["id"] for w in written)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _tree(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")
            if not {".git", ".bench_build"} & set(p.relative_to(root).parts)}


def test_run_checks_outputs_and_leaves_no_file_in_the_repo_tree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _tree(ROOT)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-paper",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_SAMPLES
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert _tree(ROOT) == before
    assert [p.name for p in (ROOT / ".bench_build").iterdir()] == ["pycache"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
