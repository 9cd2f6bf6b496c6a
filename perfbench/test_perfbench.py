"""Smoke tests for the benchmark itself, at its smallest size.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced at ``--seconds 1``
(seed 0, whose fingerprint ``reference.json`` records).  The tests check
that every metric ``BENCHMARK.json`` names is printed with its unit,
that the traced and untraced phases agree bit for bit, and that the
answer and reference checks fail when one digest or one virtual metric
is perturbed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED, SECONDS = 0, 1


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]


@pytest.fixture(scope="module")
def phase(workload):
    env = workload.setup()
    return workload.measure(env, workload.inputs(SEED, SECONDS))


def _units(result) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_end_to_end_metrics_printed(workload):
    result, _lines = run.run(workload.name, SEED, SECONDS, trace=False)
    assert result["correct"], _lines
    assert result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_agrees_and_prints_layers(workload):
    result, lines = run.run(workload.name, SEED, SECONDS, trace=True)
    # ``correct`` covers "traced vs untraced" equality of answers,
    # virtual metrics and exact counts.
    assert result["correct"], lines
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_recorded_reference_matches(workload, phase):
    recorded = run.load_reference()["runs"][workload.name][str(SECONDS)][str(SEED)]
    assert run.compare("reference", run.fingerprint(phase), recorded) == []


def test_perturbed_virtual_metric_fails(workload, phase):
    recorded = copy.deepcopy(run.load_reference()["runs"][workload.name][str(SECONDS)][str(SEED)])
    recorded["virtual"]["sim_throughput_per_s"] *= 1.0 + 1e-12
    assert run.compare("reference", run.fingerprint(phase), recorded)


def test_perturbed_digest_fails(workload, phase):
    reference = copy.deepcopy(run.load_reference())
    answers = reference["answers"].get(workload.name)
    if answers is None:
        # TPC-C has no per-operation answer; its outcome digest stands in.
        recorded = reference["runs"][workload.name][str(SECONDS)][str(SEED)]
        recorded["outcomes"] = "0" * 16
        assert run.compare("reference", run.fingerprint(phase), recorded)
        return
    key = next(op.key.split("@")[0] for op in phase.ops if op.completed)
    answers[key] = "0" * 16
    assert run.check_answers(workload, copy.deepcopy(phase), reference)


def test_other_hash_seed_reproduces_reference(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tpcc_2pl",
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"], out.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "tpcc_2pl",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_sampler_maps_files_to_layers():
    from tracer import LayerSampler

    sampler = LayerSampler(run.LAYER_MODULES, trace_files=(run.__file__,))
    src = str(ROOT / "src" / "repro")
    assert sampler.layer_of(f"{src}/net/rdma.py") == "rdma"
    assert sampler.layer_of(f"{src}/tiers/stack.py") == "tiers"
    assert sampler.layer_of(f"{src}/engine/page.py") == "kernel"
    assert sampler.layer_of(f"{src}/sim/kernel.py") == "kernel"
    assert sampler.layer_of(run.__file__) == "trace"
    assert sampler.layer_of(str(HERE / "tracer.py")) == "trace"
    assert sampler.layer_of(str(HERE / "workloads.py")) == "kernel"
    sampler.files.update({f"{src}/net/rdma.py": 3, f"{src}/sim/kernel.py": 1})
    assert sampler.self_s(2.0) == {"rdma": 1.5, "kernel": 0.5}


def test_nominal_clock_drops_preemption_and_one_slow_probe():
    from hostclock import NOMINAL_PROBE_S, NominalClock

    clock = NominalClock()
    cpu = 0.0
    for k in range(6):
        # One probe a second of wall time; probe 3 ran at a third of the
        # speed, and the process was preempted for half of stretch 2.
        duration = NOMINAL_PROBE_S * (3 if k == 3 else 1)
        clock.probes.append((float(k), k + 0.01, cpu, cpu + duration))
        clock._wall_ends.append(k + 0.01)
        cpu += duration + (0.495 if k == 2 else 0.99)
    assert clock.seconds(0.01, 5.0) == pytest.approx(4 * 0.99 + 0.495)
    assert clock.seconds(2.01, 2.505) == pytest.approx(0.2475)
