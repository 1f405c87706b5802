"""Small pass/fail report structure shared by the verification suites."""

from __future__ import annotations

from typing import Callable, Iterable

from .scalars import _Value


class Check(_Value):
    __slots__ = ("name", "passed", "detail")  # str, bool, str
    _defaults = {"detail": str}
    __hash__ = None  # unhashable, as the report that holds it

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{tag} {self.name}{suffix}"


class CheckReport(_Value):
    __slots__ = ("title", "checks")  # str, list[Check]
    _defaults = {"checks": list}  # a list, so a report is unhashable

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(Check(name, passed, detail))

    def tally(self, name: str, instances: Iterable[tuple[bool, Callable[[], str]]], unit: str):
        """One check over every `(holds, label)` instance, in order: its detail
        is "<count> <unit>", or the label of the first failing instance, the
        only label called, before the next instance is drawn."""
        count, first = 0, None
        for count, (holds, label) in enumerate(instances, 1):
            if not holds and first is None:
                first = label()
        self.add(name, first is None, f"{count} {unit}" if first is None else first)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        body = [c.line() for c in self.checks]
        ok = sum(c.passed for c in self.checks)
        body.append(f"{self.title}: {ok}/{len(self.checks)} checks passed")
        return body

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
