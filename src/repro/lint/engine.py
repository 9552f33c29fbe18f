"""Pragma-aware lint driver: parse, check, suppress, report.

Suppression pragmas
-------------------
A finding is suppressed by a pragma comment **on the same line** or on a
standalone comment line **directly above** it::

    frontier = time.time()  # lint: allow[D102] -- wall-clock progress log

    # lint: allow[P202] -- deliberate rebind the sanitizer must catch
    object.__setattr__(body, "operation", evil)

A module-wide waiver (for e.g. a wall-clock benchmark harness) goes at the
top of the file::

    # lint: allow-file[D102] -- this harness measures real elapsed time

Every pragma must carry a justification after ``--``; ``--strict`` treats
a justification-free pragma as a finding in its own right.  Unknown rule
ids in pragmas are rejected (they would silently rot).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.rules import RULES, check_module

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*(?P<scope>allow|allow-file)\[(?P<rules>[A-Za-z0-9, ]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True)
class Pragma:
    """One parsed suppression pragma."""

    line: int
    scope: str  # "allow" | "allow-file"
    rules: Tuple[str, ...]
    justification: Optional[str]


@dataclass
class Finding:
    """A finding after pragma processing, ready to report."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    suppressed_by: Optional[Pragma] = None

    @property
    def suppressed(self) -> bool:
        return self.suppressed_by is not None

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: {self.rule} "
            f"{self.message} [hint: {self.hint}]"
        )


class PragmaError(ValueError):
    """A malformed pragma (unknown rule id) — always an error."""


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every real comment — docstring mentions don't count."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except tokenize.TokenError:
        pass  # partial tokenization still yields the comments seen so far
    return comments


def parse_pragmas(source: str) -> List[Pragma]:
    pragmas: List[Pragma] = []
    for index, text in _comment_tokens(source):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            rule.strip() for rule in match.group("rules").split(",") if rule.strip()
        )
        unknown = [rule for rule in rules if rule not in RULES]
        if unknown:
            raise PragmaError(
                f"line {index}: pragma names unknown rule(s) {unknown}; "
                f"known rules: {sorted(RULES)}"
            )
        pragmas.append(
            Pragma(
                line=index,
                scope=match.group("scope"),
                rules=rules,
                justification=match.group("why"),
            )
        )
    return pragmas


def _pragma_for(
    finding_line: int,
    rule: str,
    line_pragmas: Dict[int, List[Pragma]],
    file_pragmas: List[Pragma],
    source_lines: Sequence[str],
) -> Optional[Pragma]:
    for pragma in file_pragmas:
        if rule in pragma.rules:
            return pragma
    for pragma in line_pragmas.get(finding_line, ()):
        if rule in pragma.rules:
            return pragma
    # The line-above form: walk up through the contiguous block of
    # standalone comment lines directly above the finding (a pragma
    # trailing *code* on a previous line covers only that line).
    candidate_line = finding_line - 1
    while (
        0 < candidate_line <= len(source_lines)
        and source_lines[candidate_line - 1].strip().startswith("#")
    ):
        for pragma in line_pragmas.get(candidate_line, ()):
            if rule in pragma.rules:
                return pragma
        candidate_line -= 1
    return None


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; returns all findings, suppressed ones
    carrying the pragma that covers them."""
    tree = ast.parse(source, filename=path)
    pragmas = parse_pragmas(source)
    lines = source.splitlines()
    file_pragmas = [p for p in pragmas if p.scope == "allow-file"]
    line_pragmas: Dict[int, List[Pragma]] = {}
    for pragma in pragmas:
        if pragma.scope == "allow":
            line_pragmas.setdefault(pragma.line, []).append(pragma)
    findings: List[Finding] = []
    for raw in check_module(tree, path):
        findings.append(
            Finding(
                rule=raw.rule,
                path=path,
                line=raw.line,
                col=raw.col,
                message=raw.message,
                hint=RULES[raw.rule].hint,
                suppressed_by=_pragma_for(
                    raw.line, raw.rule, line_pragmas, file_pragmas, lines
                ),
            )
        )
    return findings


def lint_file(path: Path) -> List[Finding]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directory trees)."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path))
    return findings


def unjustified_pragmas(source: str) -> List[Pragma]:
    """Pragmas missing the required ``-- justification`` tail."""
    return [p for p in parse_pragmas(source) if not p.justification]
