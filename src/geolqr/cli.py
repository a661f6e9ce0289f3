"""Command-line front end.

    geo-lqr <command> --config <path> [--out <dir>]

Commands: gains | regulate | track | avoid | check. The run summary is a
single JSON line on stdout (the gains command prints a human-readable gain
line first). Config problems exit 2, numerical failures exit 3, failed
checks exit 1, each with a one-line JSON reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import COMMANDS, default_config, parse_config
from .errors import ConfigError, GeoLqrError, ValidationError
from .scenarios import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geo-lqr",
        description="Geometric LQR attitude control scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "check"),
                       help="path to the scenario JSON file")
        p.add_argument("--out", default=None, help="output directory for CSV files")
    return parser


def _error_line(exc: Exception) -> str:
    payload = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, ValidationError):
        payload["path"] = exc.path
    return json.dumps(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            cfg = default_config("check")
        else:
            path = Path(args.config)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from None
            cfg = parse_config(text)
            if cfg.command != args.command:
                raise ValidationError(
                    "command",
                    f"config says {cfg.command!r} but the CLI invoked {args.command!r}")
        summary, ok, lines = run(cfg, args.out)
        summary_line = summary.to_json()
    except GeoLqrError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3

    for line in lines:
        print(line)
    if cfg.command == "gains" and summary.gains is not None:
        print(f"kP={summary.gains['kP']:.4f}, kD={summary.gains['kD']:.4f}")
    if not ok:
        print(json.dumps({"error": "CheckFailure",
                          "detail": "one or more invariant checks failed"}),
              file=sys.stderr)
        return 1
    print(summary_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
