"""The ``repro-lint`` command line.

Scans the given paths with the built-in rule battery and prints
findings as text (one per line, ``path:line rule message``), JSON (the
CI artifact schema), or SARIF 2.1.0 (``--sarif``, for code-review
ingestion).

Exit codes: ``0`` clean (or findings without ``--strict``), ``1``
findings — errors *or* warnings — under ``--strict``, ``2`` bad
invocation (unknown rule selector, missing path).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.engine import all_rules, analyze_paths, select_rules
from repro.analysis.sarif import report_to_sarif


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach repro-lint's arguments to *parser* (shared with `repro lint`)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="SELECTOR",
        help="restrict to rule ids or families (repeatable), "
        "e.g. --rules determinism --rules locks/lock-order",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        default=None,
        help="also write the report as SARIF 2.1.0 to FILE",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any finding (error or warning) remains after "
        "suppressions",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed repro-lint invocation; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:35s} {rule.description}")
        return 0

    try:
        rules = select_rules(args.rules) if args.rules else None
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    paths = [Path(raw) for raw in args.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    report = analyze_paths(paths, rules)
    elapsed = time.perf_counter() - started

    # Timing is injected here, not in to_dict(): the report itself stays
    # deterministic, so two runs over the same tree are byte-identical.
    payload = report.to_dict()
    payload["timing"] = {"seconds": round(elapsed, 3)}

    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    if args.sarif:
        sarif = report_to_sarif(report, rules if rules is not None else all_rules())
        Path(args.sarif).write_text(
            json.dumps(sarif, indent=2) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        if report.clean:
            status = "clean"
        else:
            status = (
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
        extras = [
            f"{report.files_scanned} file(s) scanned",
            f"{report.suppressed_count} finding(s) suppressed",
        ]
        print(f"repro-lint: {status} — {', '.join(extras)}")

    if report.findings and args.strict:
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-lint`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="static analysis for determinism, lock discipline, "
        "exception hygiene, and whole-program concurrency (lock-order "
        "cycles, async safety)",
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
