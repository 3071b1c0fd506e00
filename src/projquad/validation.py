"""Violation records and machine-checkable reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class Violation:
    code: str
    cell_dim: Optional[int] = None
    cell_id: Optional[int] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "cell_dim": self.cell_dim,
            "cell_id": self.cell_id,
            "detail": self.detail,
        }


def _sort_key(v: Violation):
    return (
        v.cell_dim if v.cell_dim is not None else -1,
        v.cell_id if v.cell_id is not None else -1,
        v.code,
        v.detail,
    )


@dataclass(frozen=True)
class ValidationReport:
    """An empty report means the check passed."""

    violations: tuple[Violation, ...] = ()

    @classmethod
    def collect(cls, violations: Iterable[Violation]) -> "ValidationReport":
        return cls(tuple(sorted(violations, key=_sort_key)))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> list:
        return [v.to_json() for v in self.violations]


@dataclass(frozen=True)
class AuditEntry:
    """One named audit outcome inside a construction or verify report."""

    name: str
    ok: bool
    violations: tuple[Violation, ...] = ()
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "ok": self.ok}
        if self.violations:
            out["violations"] = [v.to_json() for v in self.violations]
        if self.info:
            out["info"] = self.info
        return out


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def entry(self, name: str) -> Optional[AuditEntry]:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def failing(self) -> list[str]:
        return [e.name for e in self.entries if not e.ok]

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


class AuditCollector:
    """Accumulates AuditEntry records in execution order."""

    def __init__(self) -> None:
        self._entries: list[AuditEntry] = []

    def add(self, name: str, report: ValidationReport, **info) -> bool:
        self._entries.append(AuditEntry(name, report.ok, report.violations, dict(info)))
        return report.ok

    def add_flag(self, name: str, ok: bool, detail: str = "", **info) -> bool:
        violations = () if ok else (Violation(code=name, detail=detail),)
        self._entries.append(AuditEntry(name, ok, violations, dict(info)))
        return ok

    def done(self) -> AuditReport:
        return AuditReport(tuple(self._entries))
