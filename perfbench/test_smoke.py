"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--toy")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def _renamed_away(monkeypatch, module, name):
    """As after a refactor that renames a function: callers keep working,
    but no public function of the layer has the traced name any more. Every
    package module that binds the name gets a callable that is not a
    function, which the tracer does not wrap."""
    fn = getattr(importlib.import_module(f"momentsearch.{module}"), name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("momentsearch.") and \
                getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, functools.partial(fn))


@pytest.mark.parametrize("workload, gone, zero_metrics", [
    ("didemo-exhaustive", [("enumeration", "enumerate_moments")],
     ["enumeration.enumerate_ms", "enumeration.calls_per_query"]),
    ("bench10k-approx", [("index", "corpus_clip_matrix"), ("index", "build_ivf")],
     ["index.clip_matrix_s", "index.kmeans_s"]),
])
def test_traced_run_reports_a_missing_function_as_absent(monkeypatch, tmp_path, workload, gone,
                                                         zero_metrics):
    import run
    import workloads

    w = workloads.WORKLOADS[workload]
    run.make_fixtures(w.name, 5, str(tmp_path), toy=True)
    for module, name in gone:
        _renamed_away(monkeypatch, module, name)
    result = workloads.run_workload(w, workloads.fixture_paths(str(tmp_path)), 5, 1.0,
                                    trace=True, toy=True)
    assert result.failed == 0
    for module, name in gone:
        assert f"{module}.{name}" in result.values["absent"]
    for metric in zero_metrics:
        assert result.values[metric] == 0.0, metric
    assert result.values["retrieval.nms_ms"] > 0.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(str(tmp_path), "--workload", WORKLOAD_NAMES[0], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
