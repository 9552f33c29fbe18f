"""CLI: ``python -m repro.lint [--strict] src tests benchmarks``.

Exit codes: 0 — clean (every finding fixed or pragma'd); 1 — unsuppressed
findings, or in ``--strict`` mode also justification-free pragmas;
2 — usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.lint.engine import (
    Finding,
    PragmaError,
    iter_python_files,
    lint_file,
    parse_pragmas,
)
from repro.lint.rules import RULES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & protocol-safety static analysis "
        "(see docs/determinism.md for the rule table).",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on justification-free pragmas",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            print(f"{rule.id}  {rule.summary}")
            print(f"      fix: {rule.hint}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src tests benchmarks)")

    findings: List[Finding] = []
    pragma_problems: List[str] = []
    suppressed_count = 0
    failed = False
    for file_path in iter_python_files(args.paths):
        source = file_path.read_text(encoding="utf-8")
        try:
            file_findings = lint_file(file_path)
            pragmas = parse_pragmas(source)
        except PragmaError as error:
            print(f"{file_path}: {error}", file=sys.stderr)
            return 2
        except SyntaxError as error:
            print(f"{file_path}: syntax error: {error}", file=sys.stderr)
            return 2
        for pragma in pragmas:
            if not pragma.justification:
                pragma_problems.append(
                    f"{file_path}:{pragma.line}: pragma allow[{','.join(pragma.rules)}] "
                    "has no '-- justification'"
                )
        suppressed_count += sum(1 for f in file_findings if f.suppressed)
        findings.extend(f for f in file_findings if not f.suppressed)

    for finding in findings:
        print(finding.format())
    if findings:
        failed = True
        print(
            f"\n{len(findings)} unsuppressed finding(s) "
            f"({suppressed_count} pragma-suppressed)."
        )
    if args.strict:
        for problem in pragma_problems:
            print(problem)
        if pragma_problems:
            failed = True
    if not failed:
        print(
            f"repro.lint: clean — 0 unsuppressed findings "
            f"({suppressed_count} pragma-suppressed)."
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
