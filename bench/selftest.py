"""Tests of the benchmark itself: every correctness check passes on real
outputs and rejects corrupted ones, and traced counts repeat exactly.

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py so that the repository's own test run does
not collect it: it runs every workload, which takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from geolqr.config import parse_config  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload run once: (config, output directory, OpResult)."""
    out = {}
    for wl in workloads.WORKLOADS:
        cfg = parse_config(json.dumps(workloads.config_dict(wl, SEED, run.CONFIGS)))
        op_dir = tmp_path_factory.mktemp(wl)
        out[wl] = (cfg, op_dir, workloads.run_operation(wl, cfg, op_dir))
    return out


def corrupted(op_dir: Path, tmp_path: Path, name: str, edit) -> Path:
    """Copy of an output directory with `edit(table)` applied to one CSV."""
    dst = tmp_path / "corrupt"
    shutil.copytree(op_dir, dst)
    table = checks.Table.read(dst / name)
    edit(table)
    (dst / name).write_text(table.dumps(), encoding="utf-8")
    return dst


def put(table: checks.Table, row: int, col: str, value: float) -> None:
    table.rows[row][table.header.index(col)] = repr(value)


def bump(table: checks.Table, row: int, col: str, delta: float) -> None:
    put(table, row, col, float(table.rows[row][table.header.index(col)]) + delta)


@pytest.mark.parametrize("wl", workloads.WORKLOADS)
def test_checks_pass_on_real_outputs(outputs, wl):
    cfg, op_dir, res = outputs[wl]
    assert run.check_outputs(wl, cfg, op_dir, res) == []


@pytest.mark.parametrize("wl", workloads.WORKLOADS)
def test_table_round_trips_bytes(outputs, wl):
    _, op_dir, _ = outputs[wl]
    text = (op_dir / "trajectory.csv").read_text(encoding="utf-8")
    assert checks.Table(text).dumps() == text


def swap_rotations(table, a, b):
    cols = [table.header.index(c) for c in checks.ROTATION_COLS]
    for j in cols:
        table.rows[a][j], table.rows[b][j] = table.rows[b][j], table.rows[a][j]


def swap_matrix_rows(table, i):
    for k in range(3):
        j1 = table.header.index(f"r1{k + 1}")
        j2 = table.header.index(f"r2{k + 1}")
        table.rows[i][j1], table.rows[i][j2] = table.rows[i][j2], table.rows[i][j1]


def drop_last_row(table):
    table.rows.pop()


def fill_empty_cell(table):
    table.rows[3][table.header.index("hamiltonian")] = "0"


CSV_CORRUPTIONS = {
    "track": {
        "perturbed rotation entry": lambda t: bump(t, 100, "r12", 1e-7),
        "swapped rotations between rows": lambda t: swap_rotations(t, 10, 20),
        "swapped rows inside a rotation": lambda t: swap_matrix_rows(t, 50),
        "perturbed distance": lambda t: bump(t, 4000, "dist", 1e-8),
        "perturbed final distance": lambda t: bump(t, -1, "dist", 1e-8),
        "dropped row": drop_last_row,
        "filled empty column": fill_empty_cell,
    },
    "regulate_dre": {
        "perturbed rotation entry": lambda t: bump(t, 100, "r33", 1e-7),
        "swapped rows inside a rotation": lambda t: swap_matrix_rows(t, 7),
        "perturbed lyap (gain schedule)": lambda t: bump(t, 500, "lyap", 1e-5),
        "dropped row": drop_last_row,
        "filled empty column": fill_empty_cell,
    },
    "avoid": {
        "nonzero terminal control": lambda t: bump(t, -1, "u1", 1e-5),
        "path through the obstacle centre": lambda t: (put(t, 20, "q1", -0.1),
                                                       put(t, 20, "q2", 0.28)),
        "costlier control": lambda t: [bump(t, i, "u2", 0.5) for i in range(50, 150)],
        "dropped row": drop_last_row,
    },
}
CASES = [(wl, name) for wl, cases in CSV_CORRUPTIONS.items() for name in cases]


@pytest.mark.parametrize("wl,case", CASES)
def test_checks_reject_corrupted_csv(outputs, tmp_path, wl, case):
    cfg, op_dir, res = outputs[wl]
    csv = "avoidance_path.csv" if wl == "avoid" else "trajectory.csv"
    bad = corrupted(op_dir, tmp_path, csv, CSV_CORRUPTIONS[wl][case])
    assert run.check_outputs(wl, cfg, bad, res) != []


@pytest.mark.parametrize("edit", ["hamiltonian", "dropped row"])
def test_avoid_checks_reject_corrupted_trajectory(outputs, tmp_path, edit):
    cfg, op_dir, res = outputs["avoid"]
    if edit == "hamiltonian":
        bad = corrupted(op_dir, tmp_path, "trajectory.csv",
                        lambda t: bump(t, 100, "hamiltonian", 2e-3))
    else:
        bad = corrupted(op_dir, tmp_path, "trajectory.csv", drop_last_row)
    assert run.check_outputs("avoid", cfg, bad, res) != []


@pytest.mark.parametrize("wl,key", [("track", "kP"), ("track", "kD"),
                                    ("regulate_dre", "kP"), ("regulate_dre", "kD")])
def test_checks_reject_shifted_gain(outputs, wl, key):
    cfg, op_dir, res = outputs[wl]
    gains = dict(res.summary.gains, **{key: res.summary.gains[key] + 1e-5})
    bad = dataclasses.replace(res, summary=dataclasses.replace(res.summary, gains=gains))
    assert run.check_outputs(wl, cfg, op_dir, bad) != []


def test_checks_reject_shifted_summary_distance(outputs):
    cfg, op_dir, res = outputs["track"]
    summary = dataclasses.replace(res.summary,
                                  final_distance=res.summary.final_distance + 1e-8)
    assert run.check_outputs("track", cfg, op_dir,
                             dataclasses.replace(res, summary=summary)) != []


def test_checks_reject_oracle_cost_gap(outputs):
    cfg, op_dir, res = outputs["avoid"]
    oracle = dataclasses.replace(res.oracle, cost=res.oracle.cost * 1.02)
    assert run.check_outputs("avoid", cfg, op_dir,
                             dataclasses.replace(res, oracle=oracle)) != []


def test_digest_sees_one_changed_byte(outputs, tmp_path):
    _, op_dir, res = outputs["regulate_dre"]
    bad = corrupted(op_dir, tmp_path, "trajectory.csv", lambda t: bump(t, 9, "wx", 1e-12))
    assert run.outputs_of(bad, res)[0] != run.outputs_of(op_dir, res)[0]


def test_traced_counts_repeat_between_runs(tmp_path):
    exact = [n for n, u in run.PER_LAYER.items() if u in run.EXACT_UNITS]
    for wl in workloads.WORKLOADS:
        a, b = (run.measure(wl, SEED, 0.0, trace=True, out_root=tmp_path / k)
                for k in ("a", "b"))
        assert a["correct"] and b["correct"]
        counts = {n: a["metrics"][n]["value"] for n in exact}
        assert counts == {n: b["metrics"][n]["value"] for n in exact}, wl
        assert counts["so3.exp_so3.calls" if wl != "avoid" else "pmp.rollouts"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_seconds_scale_by_mean_slice_rate():
    ref = calibration.REF_SLICE_S
    # (3 - 1) s at one slice of reference speed and one of twice the time.
    assert calibration.reference_seconds(3.0, [ref, 2 * ref], own=1.0) == pytest.approx(1.5)


def test_sampler_takes_slices_inside_the_block_only():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler() as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.slices) >= 5
    assert sum(sampler.slices) < sampler.wall
    assert sampler.reference_seconds() > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
