"""Structured pass/fail results with symbolic witnesses.

Every verification in the package returns a CheckReport.  A failing check
always carries at least one witness: the identity that broke, the inputs it
broke on, and the nonzero symbolic difference, printed in normal form so
reports are byte-stable across runs.

A check whose cases are derived from frame values by a Leibniz lemma
(algebroid, dorfman, prolong, laops) hands a block of cases that the
lemma shows to vanish to Checker.passes in one call: no difference is
built, no input label is formatted, and the identity is marked exactly
as that many zero `record` calls would mark it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
ERROR = "error"


@dataclass
class Witness:
    identity: str
    inputs: str
    difference: str

    def to_dict(self) -> dict:
        return {"identity": self.identity, "inputs": self.inputs, "difference": self.difference}


@dataclass
class CheckReport:
    name: str
    statement: str
    status: str
    witnesses: List[Witness] = field(default_factory=list)
    details: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "status": self.status,
            "details": list(self.details),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    @property
    def passed(self) -> bool:
        return self.status == PASS


class Checker:
    """Accumulates sub-check outcomes into one CheckReport."""

    def __init__(self, name: str, statement: str):
        self.name = name
        self.statement = statement
        self.witnesses: List[Witness] = []
        self.details: List[str] = []
        self._sub_status: dict = {}
        self._errored = False

    def record(self, identity: str, inputs: str, difference) -> bool:
        """Record one equality outcome; difference must be zero to pass."""
        if difference.is_zero():
            self._sub_status.setdefault(identity, True)
            return True
        self._fail(identity, inputs, str(difference))
        return False

    def passes(self, identity: str, count: int, labels: Callable[[], List[str]]) -> None:
        """Record count cases of identity whose differences vanish, as count
        zero `record` calls would: they add no witness, and they mark the
        identity passing unless it failed before.  With count 0 nothing is
        marked, so a check that evaluated no case stays not-applicable.

        labels() gives the inputs of the count cases in the order in which
        `record` would have seen them.  Checker never calls it: the point of
        a block is that no label is formatted for a case that cannot be a
        witness.  A subclass that keeps every case (the oracle tests) calls
        it during this call, so labels may read the loop variables of its
        caller."""
        if count:
            self._sub_status.setdefault(identity, True)

    def record_block(self, identity: str, values: Sequence, labels: Callable[[], List[str]]
                     ) -> None:
        """Record values under the inputs labels() in order, or, when every
        value vanishes, the whole block by passes, without a label."""
        for value in values:
            if not value.is_zero():
                for inputs, case in zip(labels(), values):
                    self.record(identity, inputs, case)
                return
        self.passes(identity, len(values), labels)

    def require(self, identity: str, inputs: str, condition: bool, note: str = "violated") -> bool:
        if condition:
            self._sub_status.setdefault(identity, True)
        else:
            self._fail(identity, inputs, note)
        return condition

    def relay(self, identity: str, nested: CheckReport, inputs: str) -> None:
        """Record each witness of a nested report under identity, or one
        passing case on inputs when the nested report passed."""
        for witness in nested.witnesses:
            self.require(identity, witness.inputs, False, witness.difference)
        if nested.passed:
            self.require(identity, inputs, True)

    def error(self, identity: str, inputs: str, message: str) -> None:
        self._fail(identity, inputs, message)
        self._errored = True

    def note(self, line: str) -> None:
        self.details.append(line)

    def _fail(self, identity: str, inputs: str, text: str) -> None:
        self.witnesses.append(Witness(identity, inputs, text))
        self._sub_status[identity] = False

    def sub_passed(self, identity: str) -> bool:
        return self._sub_status.get(identity, True)

    def all_passed(self) -> bool:
        return all(self._sub_status.values()) and not self._errored

    def report(self, status: str | None = None) -> CheckReport:
        """The report; with no status given, a check that recorded no case
        at all is not-applicable, never a vacuous pass."""
        for identity in self._sub_status:
            self.details.append(f"{identity}: {'pass' if self._sub_status[identity] else 'FAIL'}")
        if status is None:
            if self._errored:
                status = ERROR
            elif not self._sub_status:
                status = NOT_APPLICABLE
                self.details.append("no cases evaluated")
            else:
                status = PASS if self.all_passed() else FAIL
        return CheckReport(self.name, self.statement, status, self.witnesses, self.details)
