"""The partial-failure contract: BatchReport and failure envelopes.

A batch of specs used to be all-or-nothing: one worker death aborted
``Executor.run`` and discarded every finished result.  The contract is
now per-spec:

* every spec resolves to either a :class:`~repro.api.spec.RunResult`
  or a :class:`SpecFailure` envelope (error text, type, attempt count,
  transient classification), in submission order;
* :class:`BatchReport` carries both; ``report.completed`` is every
  result that exists, ``report.failures`` everything that does not;
* callers that cannot use a partial grid (``Session.run_batch``,
  studies) call :meth:`BatchReport.raise_failures`, which raises
  :class:`BatchExecutionError` — *carrying the report*, so even the
  raising path discards nothing.

Both envelope types serialize to plain JSON, so failure detail crosses
process boundaries (queue workers, the HTTP job server) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import RunResult, RunSpec


@dataclass
class SpecFailure:
    """Why one spec produced no result, and how hard we tried.

    Args:
        spec: The failed spec.
        error: Human-readable error text (message, or a traceback for
            queue-worker failures).
        error_type: Exception class name (``"OSError"``).
        attempts: Execution attempts consumed (1-based).
        transient: The retry layer's classification of the final error —
            True means a healthy re-run could succeed (lease expiry,
            timeout), False means the spec itself is bad.
    """

    spec: "RunSpec"
    error: str
    error_type: str = "Exception"
    attempts: int = 1
    transient: bool = False

    @classmethod
    def from_exception(cls, spec: "RunSpec", exc: BaseException,
                       attempts: int = 1) -> "SpecFailure":
        from repro.reliability.retry import classify_transient

        return cls(spec=spec, error=str(exc) or type(exc).__name__,
                   error_type=type(exc).__name__, attempts=attempts,
                   transient=classify_transient(exc))

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "transient": self.transient,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpecFailure":
        from repro.api.spec import RunSpec

        return cls(spec=RunSpec.from_dict(data["spec"]),
                   error=data["error"],
                   error_type=data.get("error_type", "Exception"),
                   attempts=int(data.get("attempts", 1)),
                   transient=bool(data.get("transient", False)))

    def row(self) -> dict:
        """A flat row for failure tables (CLI, server job records)."""
        first_line = self.error.strip().splitlines()[-1] \
            if self.error.strip() else self.error_type
        return {
            "benchmark": self.spec.benchmark,
            "machine": self.spec.machine,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "transient": self.transient,
            "error": first_line,
        }


class BatchExecutionError(RuntimeError):
    """Some specs in a batch failed; the report (with every completed
    result) rides on the exception, so nothing is discarded even on the
    raising path."""

    def __init__(self, report: "BatchReport"):
        failures = report.failures
        lines = [f"{len(failures)} of {len(report.entries)} spec(s) failed "
                 f"({len(report.completed)} completed)"]
        for failure in failures[:5]:
            detail = failure.row()["error"]
            lines.append(f"  - {failure.spec.benchmark}/"
                         f"{failure.spec.machine} after "
                         f"{failure.attempts} attempt(s): "
                         f"{failure.error_type}: {detail}")
        if len(failures) > 5:
            lines.append(f"  ... and {len(failures) - 5} more")
        super().__init__("\n".join(lines))
        self.report = report


@dataclass
class BatchReport:
    """Everything one batch produced: results and failures, in order.

    ``entries`` is aligned with the submitted specs; each element is a
    :class:`~repro.api.spec.RunResult` or a :class:`SpecFailure`.
    """

    entries: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> "list[RunResult]":
        from repro.api.spec import RunResult

        return [e for e in self.entries if isinstance(e, RunResult)]

    @property
    def failures(self) -> list[SpecFailure]:
        return [e for e in self.entries if isinstance(e, SpecFailure)]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def results(self) -> "list[RunResult]":
        """All results, in spec order; raises unless every spec completed."""
        self.raise_failures()
        return list(self.entries)

    def raise_failures(self) -> None:
        if not self.ok:
            raise BatchExecutionError(self)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def result_for(self, spec: "RunSpec"):
        """The entry (result or failure) a spec resolved to, or None."""
        for entry in self.entries:
            if entry.spec == spec:
                return entry
        return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        from repro.api.spec import RunResult

        entries = []
        for entry in self.entries:
            if isinstance(entry, RunResult):
                entries.append({"result": entry.to_dict()})
            else:
                entries.append({"failure": entry.to_dict()})
        return {"entries": entries,
                "completed": len(self.completed),
                "failed": len(self.failures)}

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        from repro.api.spec import RunResult

        entries = []
        for entry in data["entries"]:
            if "result" in entry:
                entries.append(RunResult.from_dict(entry["result"]))
            else:
                entries.append(SpecFailure.from_dict(entry["failure"]))
        return cls(entries=entries)
