"""Benchmark workloads: seeded scenario configs and the one operation each
workload repeats.

Only the initial attitude of `track` and `regulate_dre` depends on the seed:
a uniformly random axis and an angle drawn uniformly from [0.3, 2.5] rad.
Everything else comes from the shipped configs. `avoid` ignores the seed.

Print the config a workload runs, for example the generated
`regulate_dre` config (from configs/regulate.json with gain_source "dre"
and decimation 1):

    python3 bench/workloads.py regulate_dre --seed 0 > regulate_dre.json
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("track", "regulate_dre", "avoid")

# Initial attitude angle range, radians. The upper end stays clear of the
# scenarios' cut-locus guard (pi - 0.1).
ANGLE_RANGE = (0.3, 2.5)

# Oracle settings of acceptance criterion 09.
ORACLE_GRID = 201
ORACLE_MAX_ITER = 200


def initial_rotation(seed: int) -> np.ndarray:
    """Rotation by a seeded random axis and angle (Rodrigues formula)."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(*ANGLE_RANGE)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def config_dict(workload: str, seed: int, configs_dir: Path) -> dict:
    """The scenario config a workload runs for a seed."""
    if workload == "avoid":
        return json.loads((configs_dir / "avoid.json").read_text(encoding="utf-8"))
    base = "track.json" if workload == "track" else "regulate.json"
    obj = json.loads((configs_dir / base).read_text(encoding="utf-8"))
    obj.setdefault("initial", {})["rotation"] = initial_rotation(seed).reshape(9).tolist()
    if workload == "regulate_dre":
        obj.setdefault("controller", {})["gain_source"] = "dre"
        obj.setdefault("output", {})["decimation"] = 1
    return obj


def avoidance_scenario(cfg):
    """The pmp scenario `scenarios.run` builds for an avoid config."""
    from geolqr import pmp

    spec = cfg.avoidance
    return pmp.AvoidanceScenario(
        dimension=spec.dimension, alpha=cfg.cost.alpha, target=spec.target,
        horizon=spec.horizon, q0=spec.q0, v0=spec.v0,
        obstacles=tuple(pmp.SphereObstacle(o.center, o.radius)
                        for o in spec.obstacles))


@dataclass
class OpResult:
    """What one operation returned: the run summary and, for avoid, the
    transcription oracle's solution."""

    summary: object
    oracle: object = None


def run_operation(workload: str, cfg, out_dir: Path) -> OpResult:
    """One full scenario through the public entry points.

    avoid also runs the transcription oracle on the same scenario, as
    acceptance criterion 09 does.
    """
    from geolqr import pmp, scenarios

    summary, ok, _ = scenarios.run(cfg, str(out_dir))
    if not ok:
        raise RuntimeError(f"{workload}: scenarios.run reported failure")
    oracle = None
    if workload == "avoid":
        oracle = pmp.transcription_oracle(avoidance_scenario(cfg), ORACLE_GRID,
                                          max_iter=ORACLE_MAX_ITER)
    return OpResult(summary, oracle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print a workload's scenario config.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    configs = Path(__file__).resolve().parent.parent / "configs"
    print(json.dumps(config_dict(args.workload, args.seed, configs), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
