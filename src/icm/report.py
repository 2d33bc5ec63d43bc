"""Structured pass/fail reports returned by the verification operations."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{status:4s} {self.name}" + (f" -- {self.detail}" if self.detail else "")


class Report:
    """The checks of one verification, in the order they were made."""

    def __init__(self):
        self.checks: list[Check] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def __str__(self) -> str:
        return "\n".join(self.lines())
