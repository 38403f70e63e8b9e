"""Analysis engine: runs rules over a project and reports findings.

The engine owns everything rule-independent: file collection, the
suppression protocol (``# repro: ignore[RA001]`` on the offending line,
``# repro: ignore-file[RA001]`` anywhere in a file, bare ``ignore`` for
a blanket waiver), deterministic ordering, and text/JSON rendering.
Rules only yield :class:`Finding` objects; they never decide whether a
finding is silenced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.project import Project, SourceFile, collect_files


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    relpath: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``path:line:col: RAxxx message`` — the text report line."""
        return f"{self.relpath}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        """JSON-safe form used by ``--format json``."""
        return {"path": self.relpath, "line": self.line, "col": self.col,
                "rule": self.rule_id, "message": self.message}

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (cache rehydration)."""
        return cls(payload["path"], payload["line"], payload["col"],
                   payload["rule"], payload["message"])


class Rule:
    """Base class for analysis rules.

    Subclasses set ``rule_id`` / ``description`` and override either
    :meth:`check` (project-wide rules such as the lock-order graph) or
    :meth:`check_file` (per-file rules).
    """

    rule_id = "RA000"
    description = "abstract rule"
    #: "file" — findings for a file depend only on that file (plus the
    #: shallow cross-file type index); "project" — findings depend on
    #: global structure (call graph, name registry).  The incremental
    #: cache reuses per-file results of file-scope rules and re-runs
    #: project-scope rules whenever anything changed.
    scope = "file"

    def check(self, project: Project) -> list[Finding]:
        """Run the rule over the whole project."""
        findings: list[Finding] = []
        for source in project.files:
            findings.extend(self.check_file(source, project))
        return findings

    def check_file(self, source: SourceFile, project: Project) -> list[Finding]:
        """Run the rule over one file (default: nothing)."""
        return []


@dataclass
class Report:
    """Outcome of one analysis run.

    ``baselined`` holds findings matched by an accepted-debt baseline
    file (:mod:`repro.analysis.baseline`): still rendered, never fatal.
    ``stats`` carries cache bookkeeping (files analyzed vs. reused) and
    is deliberately **excluded** from every report format so warm and
    cold runs stay byte-identical — the CLI prints it to stderr.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: list[str] = field(default_factory=list)
    unknown_suppressions: list[str] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def ok(self, strict: bool = False) -> bool:
        """Whether the run should exit zero."""
        if self.findings or self.errors:
            return False
        if strict and self.unknown_suppressions:
            return False
        return True

    def render_text(self, verbose: bool = False) -> str:
        """Human-readable report."""
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"error: {error}" for error in self.errors)
        lines.extend(
            f"warning: suppression names unknown rule: {entry}"
            for entry in self.unknown_suppressions)
        if verbose:
            lines.extend(f"suppressed: {finding.render()}"
                         for finding in self.suppressed)
            lines.extend(f"baselined: {finding.render()}"
                         for finding in self.baselined)
        summary = (
            f"repro.analysis: {self.files_scanned} files, "
            f"{len(self.rules_run)} rules, {len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed")
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report."""
        return json.dumps({
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "errors": list(self.errors),
            "files_scanned": self.files_scanned,
            "rules": list(self.rules_run),
            "unknown_suppressions": list(self.unknown_suppressions),
        }, indent=2, sort_keys=True)

    def to_payload(self) -> dict:
        """Full-fidelity form for the incremental cache."""
        return {
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "errors": list(self.errors),
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "unknown_suppressions": list(self.unknown_suppressions),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Report":
        """Rehydrate a cached report byte-identical to the original.

        ``baselined`` is intentionally absent: the cache stores the
        *pre-baseline* report and the CLI re-applies the baseline, so a
        cached run and a fresh run see the same baseline file state.
        """
        return cls(
            findings=[Finding.from_dict(f) for f in payload["findings"]],
            suppressed=[Finding.from_dict(f) for f in payload["suppressed"]],
            errors=list(payload["errors"]),
            files_scanned=payload["files_scanned"],
            rules_run=list(payload["rules_run"]),
            unknown_suppressions=list(payload["unknown_suppressions"]),
        )


@dataclass
class FileSlice:
    """Per-file results of the *file-scope* rules (cache unit)."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unknown_suppressions: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "unknown_suppressions": list(self.unknown_suppressions),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FileSlice":
        return cls(
            findings=[Finding.from_dict(f) for f in payload["findings"]],
            suppressed=[Finding.from_dict(f) for f in payload["suppressed"]],
            unknown_suppressions=list(payload["unknown_suppressions"]),
        )


@dataclass
class PartitionedRun:
    """A report plus the per-file slices the cache persists."""

    report: Report
    file_slices: dict[str, FileSlice]


class Analyzer:
    """Parses the target paths once and runs every selected rule."""

    def __init__(self, rules: list[Rule]) -> None:
        if not rules:
            raise ValueError("analyzer needs at least one rule")
        self.rules = rules

    def run_partitioned(self, project: Project,
                        errors: list[str] | None = None,
                        reuse: dict[str, FileSlice] | None = None,
                        ) -> PartitionedRun:
        """Run rules split by scope, optionally reusing cached slices.

        File-scope rules run per file and their results are captured as
        :class:`FileSlice` objects — a file whose relpath appears in
        ``reuse`` keeps its cached slice and is not re-checked.
        Project-scope rules always run over the full project (their
        findings depend on global structure, so the cache cannot
        soundly skip them).
        """
        reuse = reuse or {}
        report = Report(errors=list(errors or []),
                        files_scanned=len(project.files),
                        rules_run=[rule.rule_id for rule in self.rules])
        by_relpath = {source.relpath: source for source in project.files}
        known_rules = {rule.rule_id for rule in self.rules}
        file_rules = [rule for rule in self.rules if rule.scope == "file"]
        project_rules = [rule for rule in self.rules
                         if rule.scope == "project"]

        slices: dict[str, FileSlice] = {}
        for source in project.files:
            cached = reuse.get(source.relpath)
            if cached is not None:
                slices[source.relpath] = cached
                continue
            fresh = FileSlice()
            for rule in file_rules:
                for finding in rule.check_file(source, project):
                    if source.is_suppressed(finding.rule_id, finding.line):
                        fresh.suppressed.append(finding)
                    else:
                        fresh.findings.append(finding)
            for rule_id in sorted(source.suppression_rule_ids()):
                if rule_id not in known_rules:
                    fresh.unknown_suppressions.append(
                        f"{source.relpath}: {rule_id}")
            slices[source.relpath] = fresh

        for rule in project_rules:
            for finding in rule.check(project):
                source = by_relpath.get(finding.relpath)
                if source is not None and source.is_suppressed(
                        finding.rule_id, finding.line):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)

        for source in project.files:
            piece = slices[source.relpath]
            report.findings.extend(piece.findings)
            report.suppressed.extend(piece.suppressed)
            report.unknown_suppressions.extend(piece.unknown_suppressions)
        report.findings.sort()
        report.suppressed.sort()
        return PartitionedRun(report, slices)

    def run(self, paths: list[Path], root: Path | None = None,
            cache=None) -> Report:
        """Collect, parse and analyze every ``.py`` file under ``paths``.

        With a :class:`repro.analysis.cache.AnalysisCache`, unchanged
        trees rehydrate the previous report without re-parsing a single
        file, and partial edits only re-check the changed files plus
        their transitive dependents (see ``report.stats``).
        """
        root = root if root is not None else Path.cwd()
        if cache is not None:
            return cache.run(self, paths, root)
        files, errors = collect_files(paths, root)
        run = self.run_partitioned(Project(files), errors)
        run.report.stats = {"files_analyzed": len(files), "cache_hits": 0}
        return run.report
