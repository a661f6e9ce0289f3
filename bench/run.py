"""geolqr benchmark: one workload, end to end or per module.

    python3 bench/run.py --workload {track,regulate_dre,avoid} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
`src/`. Operations repeat until S seconds have passed and at least MIN_OPS
have run. With --trace 0 the last line of stdout is the JSON result
with the end-to-end metrics; with --trace 1 the program is traced from
outside (see tracing.py) and the result carries the per-module metrics.
Untraced timings are in reference seconds (see calibration.py).
Outputs go to bench/out/<workload>/. See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures the single-threaded program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = BENCH / "out"

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 2
SETUP_PER_OP = 2
PARSE_REPEATS = 21

END_TO_END = {"scenario_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "so3.exp_so3.calls": "count", "so3.exp_so3.self_s": "s",
    "so3.log_so3.calls": "count", "so3.log_so3.self_s": "s",
    "dynamics.lie_euler_step.calls": "count", "dynamics.lie_euler_step.self_s": "s",
    "dynamics.simulate.self_s": "s", "dynamics.step_us": "us",
    "regulators.torque.calls": "count", "regulators.torque.self_s": "s",
    "regulators.reference_sample.calls": "count",
    "regulators.reference_sample.self_s": "s",
    "regulators.reference_build_s": "s",
    "riccati.dre_integrate_s": "s",
    "riccati.gain_lookup.calls": "count", "riccati.gain_lookup.self_s": "s",
    "riccati.are_solve_s": "s",
    "pmp.shooting_solve_s": "s", "pmp.newton_iterations": "count",
    "pmp.rollouts": "count", "pmp.rollout_ms": "ms",
    "pmp.costate_integrate_s": "s", "pmp.trajectory_cost_s": "s",
    "pmp.oracle_s": "s", "pmp.oracle_iterations": "count",
    "pmp.oracle_rollouts": "count",
    "scenarios.controller_cb.self_s": "s", "scenarios.diagnostics_cb.self_s": "s",
    "scenarios.csv_write_s": "s", "scenarios.csv_bytes": "bytes",
    "scenarios.csv_rows": "count",
    "config.parse_s": "s",
    "bench.traced_scenario_s": "s",
}
# Per-layer metrics that must read the same on every operation of a run.
EXACT_UNITS = ("count", "bytes")

# A fresh interpreter's `import geolqr` plus parse_config, timed inside it
# and scaled to the reference speed by calibration slices around it.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[3])
import calibration
before = [calibration.calibration_slice() for _ in range(calibration.BRACKET_SLICES)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import geolqr
from geolqr.config import parse_config
with open(sys.argv[2], encoding="utf-8") as f:
    parse_config(f.read())
elapsed = time.perf_counter() - t0
after = [calibration.calibration_slice() for _ in range(calibration.BRACKET_SLICES)]
if not geolqr.__file__.startswith(sys.argv[1]):
    sys.exit("geolqr imported from " + geolqr.__file__)
print(repr(calibration.reference_seconds(elapsed, before + after)))
"""


def import_program():
    """Import geolqr from this checkout's src/, or stop."""
    if not (SRC / "geolqr" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise SystemExit(f"bench: no geolqr source at {SRC} or no {CONFIGS}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import geolqr

    if Path(geolqr.__file__).resolve().parent != (SRC / "geolqr").resolve():
        raise SystemExit(f"bench: geolqr imported from {geolqr.__file__}, not {SRC}")
    return geolqr


def setup_seconds(config_path: Path) -> float:
    """Set-up time of one fresh interpreter, in reference seconds."""
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_CHILD, str(SRC), str(config_path),
         str(BENCH)],
        capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip())


def parse_seconds(text: str) -> float:
    from geolqr.config import parse_config

    values = []
    for _ in range(PARSE_REPEATS):
        t0 = time.perf_counter()
        parse_config(text)
        values.append(time.perf_counter() - t0)
    return statistics.median(values)


def outputs_of(op_dir: Path, res: workloads.OpResult):
    """Digest of everything an operation produced, and its CSV bytes and rows."""
    digest = hashlib.sha256()
    size = rows = 0
    for path in sorted(op_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0")
        rows -= 1  # header
        # In chunks, so that the benchmark adds no file-sized buffer to the
        # peak RSS it reports.
        with open(path, "rb") as f:
            while chunk := f.read(1 << 16):
                digest.update(chunk)
                size += len(chunk)
                rows += chunk.count(b"\n")
    if res.oracle is not None:
        digest.update(res.oracle.u.tobytes() + repr(res.oracle.cost).encode())
    return digest.hexdigest(), size, rows


def layer_metrics(tracer: tracing.Tracer, res: workloads.OpResult,
                  csv_bytes: int, csv_rows: int) -> dict:
    m = tracing.op_metrics(tracer.stats(), tracer.counters)
    m["pmp.newton_iterations"] = int(res.summary.iterations.get("newton", 0))
    m["pmp.oracle_iterations"] = int(res.oracle.iterations) if res.oracle else 0
    m["scenarios.csv_bytes"] = csv_bytes
    m["scenarios.csv_rows"] = csv_rows
    return m


def check_outputs(workload: str, cfg, op_dir: Path, res: workloads.OpResult) -> list[str]:
    """Every correctness check of a workload, on one operation's outputs."""
    traj = checks.Table.read(op_dir / "trajectory.csv")
    fails = []
    if workload == "avoid":
        scenario = workloads.avoidance_scenario(cfg)
        n_samples = max(1, int(round(scenario.horizon / cfg.sim.h))) + 1
        n_rows = checks.expected_rows(n_samples, cfg.output.decimation)
        path = checks.Table.read(op_dir / "avoidance_path.csv")
        fails += checks.check_trajectory_csv(traj, n_rows, checks.FILLED_COLUMNS[workload])
        fails += checks.check_path_csv(path, n_rows, scenario.dimension)
        return fails or checks.check_avoid(path, traj, res.summary, res.oracle, scenario)
    steps = int(round(cfg.sim.t_end / cfg.sim.h))
    n_rows = checks.expected_rows(steps + 1, cfg.output.decimation)
    fails += checks.check_trajectory_csv(traj, n_rows, checks.FILLED_COLUMNS[workload])
    fails = fails or checks.check_rotations(traj.rotations())
    if fails:
        return fails
    if workload == "track":
        fails += checks.check_are_gains(res.summary.gains, cfg)
        fails += checks.check_track_distance(traj, res.summary, cfg)
    else:
        fails += checks.check_dre_gains(res.summary.gains, traj, cfg)
    return fails


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_ops: int = MIN_OPS, out_root: Path = OUT) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import geolqr
    from geolqr.config import parse_config

    out = out_root / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_text = json.dumps(workloads.config_dict(workload, seed, CONFIGS), indent=2)
    config_path = out / "config.json"
    config_path.write_text(cfg_text, encoding="utf-8")
    metrics = {}
    if trace:
        metrics["config.parse_s"] = parse_seconds(cfg_text)
    cfg = parse_config(cfg_text)

    tracer = tracing.Tracer() if trace else None
    times, walls, per_op, digests, fails, setup = [], [], [], [], [], []
    first = None
    failed = 0
    # Operations alternate between (at most) two CPUs, so that every run
    # samples both; on a shared host their speeds differ for minutes at a time.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:2]
    with tracing.instrument(tracer) if trace else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            while len(times) + failed < min_ops or time.perf_counter() - start < seconds:
                os.sched_setaffinity(0, {cpus[(len(times) + failed) % len(cpus)]})
                if not trace:
                    # Set-up samples are spread over the run, so that their
                    # median sees the same machine as the operations.
                    setup += [setup_seconds(config_path) for _ in range(SETUP_PER_OP)]
                op_dir = out / ("first" if first is None else "repeat")
                if tracer is not None:
                    tracer.reset()
                # Traced operations take no calibration slices, which would
                # land in the self time of whatever span they interrupt.
                sampler = contextlib.nullcontext() if trace else calibration.Sampler()
                t0 = time.perf_counter()
                try:
                    with sampler:
                        res = workloads.run_operation(workload, cfg, op_dir)
                except geolqr.GeoLqrError as exc:
                    failed += 1
                    print(f"bench: operation failed: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    continue
                walls.append(time.perf_counter() - t0)
                times.append(walls[-1] if trace else sampler.reference_seconds())
                digest, csv_bytes, csv_rows = outputs_of(op_dir, res)
                digests.append(digest)
                if first is None:
                    first = res
                if tracer is not None:
                    per_op.append(layer_metrics(tracer, res, csv_bytes, csv_rows))
        finally:
            os.sched_setaffinity(0, allowed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is None:
        raise SystemExit(f"bench: all {failed} operations failed")

    if len(digests) < 2:
        fails.append("fewer than two operations; cannot compare repeated outputs")
    elif len(set(digests)) != 1:
        fails.append("repeated operations wrote different outputs")
    fails += check_outputs(workload, cfg, out / "first", first)

    if trace:
        tracer.save(out / "trace.npz")
        metrics["bench.traced_scenario_s"] = statistics.median(times)
        for name, unit in PER_LAYER.items():
            if name in metrics:
                continue
            values = [op[name] for op in per_op]
            if unit in EXACT_UNITS:
                if len(set(values)) != 1:
                    fails.append(f"{name} differs between operations: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        units = PER_LAYER
    else:
        metrics["scenario_s"] = statistics.median(times)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END

    for line in fails:
        print(f"bench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": len(times) + failed,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    # The result file also keeps each operation's wall time, and the times
    # the timing metric is the median of.
    result_file = out / ("result-traced.json" if trace else "result.json")
    result_file.write_text(json.dumps(dict(result, op_wall_s=walls, op_s=times)) + "\n",
                           encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
