"""Batch front end: parse flags, run verifications, emit reports.

Exit codes: 0 all bounds hold, 1 a verified property failed, 2 usage error,
3 output could not be written.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple

from .abelian import CapExceeded, ENUMERATION_CAP, parse_group_spec
from .bundlemodel import (
    DEFAULT_THRESHOLDS,
    DiffeoClass,
    VerificationReport,
    _class_reports,
    diffeo_class,
    document,
    level_for_base,
    render_csv,
    render_json,
    render_table,
    verify_level,
)
from .lattice import DEFAULT_ORACLE_CAP

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_RENDERERS = {"json": render_json, "csv": render_csv, "table": render_table}


class RunConfig(NamedTuple):
    manifold_class: str = "both"  # "0" | "1" | "both"
    n_max: int = 6
    mode: str = "both"  # oracle | structural | both
    oracle_cap: int = DEFAULT_ORACLE_CAP
    output_format: str = "table"  # json | csv | table
    output_path: str | None = None
    base_group: str | None = None
    seed: int = 0
    no_timestamps: bool = False

    @property
    def parities(self) -> tuple[int, ...]:
        return (0, 1) if self.manifold_class == "both" else (int(self.manifold_class),)


def parse_args(argv=None) -> RunConfig:
    """Parse CLI arguments; unknown flags and bad enums exit with code 2."""
    parser = argparse.ArgumentParser(
        prog="theta-jordan",
        description="Verify abelian-subgroup index bounds for the finite "
                    "theta-group family and emit Jordan-violation reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify", help="run the verification over a range of levels"
    )
    verify.add_argument(
        "--class", dest="manifold_class", choices=["0", "1", "both"],
        default="both", help="bundle diffeomorphism class (level parity)",
    )
    verify.add_argument(
        "--max-n", dest="n_max", type=int, default=6,
        help="largest level to verify (default 6)",
    )
    verify.add_argument(
        "--mode", choices=["oracle", "structural", "both"], default="both",
        help="exhaustive subgroup oracle, closed-form bound, or both",
    )
    verify.add_argument(
        "--oracle-cap", dest="oracle_cap", type=int, default=DEFAULT_ORACLE_CAP,
        help="largest group order the oracle may enumerate, at most "
             f"{ENUMERATION_CAP} (default %(default)s)",
    )
    verify.add_argument(
        "--format", dest="output_format", choices=["json", "csv", "table"],
        default="table", help="report format (default table)",
    )
    verify.add_argument(
        "--out", dest="output_path", default=None,
        help="write the report to this path instead of stdout",
    )
    verify.add_argument(
        "--base-group", dest="base_group", default=None, metavar="SPEC",
        help="verify the single theta group over this base (e.g. Z2xZ2) "
             "instead of the level family; overrides --class and --max-n",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed for the randomized group-law spot checks (default 0)",
    )
    verify.add_argument(
        "--no-timestamps", dest="no_timestamps", action="store_true",
        help="omit timestamps and timings for byte-reproducible output",
    )
    ns = parser.parse_args(argv)
    if ns.n_max < 1:
        parser.error(f"--max-n must be >= 1, got {ns.n_max}")
    if not 1 <= ns.oracle_cap <= ENUMERATION_CAP:
        parser.error(
            f"--oracle-cap must be in 1..{ENUMERATION_CAP} (the enumeration "
            f"cap), got {ns.oracle_cap}"
        )
    # every RunConfig field is the dest of the flag that sets it
    return RunConfig(*(getattr(ns, f) for f in RunConfig._fields))


# the report's name for each RunConfig field, in field order
_ECHO_KEYS = ("class", "max_n", "mode", "oracle_cap", "format", "out",
              "base_group", "seed", "no_timestamps")


def _config_echo(config: RunConfig) -> dict:
    return dict(zip(_ECHO_KEYS, config))


def _base_group_report(config: RunConfig):
    """Single-group run for --base-group, as ([report], violations); the
    bound target is |K|."""
    base = parse_group_spec(config.base_group)
    entry, violations = verify_level(
        level_for_base(base),
        mode=config.mode,
        oracle_cap=config.oracle_cap,
        seed=config.seed,
        with_timing=not config.no_timestamps,
    )
    return [VerificationReport(diffeo_class(base.order), (entry,), ())], violations


def run(config: RunConfig):
    """Execute the configured verification; returns (document, exit code).

    The report is rendered and written (stdout or --out) even when a
    violation was found, so failures stay auditable.
    """
    try:
        if config.base_group:
            reports, violations = _base_group_report(config)
        else:
            reports, violations = _class_reports(
                [DiffeoClass(p) for p in config.parities], config.n_max,
                config.mode, config.oracle_cap, DEFAULT_THRESHOLDS, config.seed,
                not config.no_timestamps)
    except (CapExceeded, ValueError) as exc:
        print(f"theta-jordan: {exc}", file=sys.stderr)
        return {}, EXIT_USAGE

    generated = None
    if not config.no_timestamps:
        from datetime import datetime, timezone  # only timestamped runs need it
        generated = datetime.now(timezone.utc).isoformat(timespec="seconds")
    doc = document(reports, _config_echo(config), violations, generated_at=generated)
    render = _RENDERERS[config.output_format]
    try:
        if config.output_path:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                render(doc, fh)
        else:
            render(doc, sys.stdout)
    except OSError as exc:
        print(f"theta-jordan: cannot write report: {exc}", file=sys.stderr)
        return doc, EXIT_IO
    return doc, EXIT_OK if not violations else EXIT_VIOLATION


def main(argv=None) -> int:
    config = parse_args(argv)
    _, code = run(config)
    return code
