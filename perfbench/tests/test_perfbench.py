"""Tests of the benchmark itself, on the toy inputs of `--smoke`.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


@pytest.fixture
def scratch():
    """A directory inside the checkout, removed afterwards."""
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_run"))
    yield path
    shutil.rmtree(path)


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--seconds", "0.3",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> tuple[dict, list[str]]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def counts(res) -> dict:
    return {k: m["value"] for k, m in res["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    proc = run("--workload", name, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res, lines = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())
    printed = {ln.split()[2] for ln in lines if ln.startswith("metric ")}
    assert printed >= set(want) | {"failed_frac", "wall_s.tail"}


@pytest.mark.parametrize("name", NAMES)
def test_traced_counters_repeat(name):
    first, second = (run("--workload", name, "--smoke", "--trace", "1")
                     for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    (a, lines_a), (b, lines_b) = result(first), result(second)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in a["metrics"].items()} == want
    assert counts(a) == counts(b)
    counters = [[ln for ln in lines if ln.startswith("counters ")]
                for lines in (lines_a, lines_b)]
    assert counters[0] and counters[0] == counters[1]


def test_sweep_counters_on_toy():
    res, _ = result(run("--workload", "sweep-full", "--smoke", "--trace", "1"))
    c = counts(res)
    assert c["kernel.leaves_examined"] + c["kernel.leaves_skipped"] == 3 ** 6
    assert c["kernel.survivors"] == 6 and c["kernel.calls"] == 1


@pytest.mark.parametrize("name", NAMES)
def test_checks_catch_a_wrong_result(name, scratch):
    wl = workloads.WORKLOADS[name](7, True)
    wl.prepare(scratch)
    good = wl.call()
    assert wl.check(good) == []
    if name.startswith("sweep-") and name != "sweep-parallel":
        bad = dataclasses.replace(good, iso_classes=good.iso_classes[1:])
    elif name == "sweep-parallel":
        doc = dict(good[0], wdrd_count=good[0]["wdrd_count"] + 1)
        bad = (doc, [])
    else:
        out, pairs = good
        item, verdicts, extra = out[0]
        flipped = [dict(verdicts[0], wdrd=not verdicts[0]["wdrd"])] + verdicts[1:]
        bad = ([(item, flipped, extra)] + out[1:], pairs)
    assert wl.check(bad)


def test_refuses_to_run_without_the_program(scratch):
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = run("--workload", "sweep-full", cwd=scratch,
               script=scratch / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
