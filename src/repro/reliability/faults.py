"""Deterministic, seeded fault injection for the execution seams.

Robustness only counts when it is *tested*, and testing it requires
failures that are reproducible.  This module provides a
:class:`FaultInjector` driven by a declarative :class:`FaultPlan`: a
seed plus a list of :class:`FaultRule`\\ s naming *where* (an injection
site), *what* (crash, delay, ``OSError``, byte corruption), and *how
often* (deterministic pseudo-probability, firing budgets).  The same
plan against the same call sequence injects the same faults — which is
what lets the chaos-campaign tests assert bit-identical estimates for
every spec that survives.

Injection sites are threaded through the seams the repository already
owns (all cheap no-ops without an active plan — one module attribute
check plus one ``os.environ`` lookup):

===================  ====================================================
Site                 Where it fires
===================  ====================================================
``store.write``      :meth:`repro.store.ArtifactStore.write_path`
``store.read``       :meth:`repro.store.ArtifactStore.read_path`
``queue.claim``      :meth:`repro.backends.queue.FileWorkQueue.claim_next`
``queue.heartbeat``  :meth:`repro.backends.queue.FileWorkQueue.heartbeat`
``queue.requeue``    :meth:`FileWorkQueue.requeue_stale`
``worker.execute``   :func:`repro.backends.worker.execute_job`
``pool.task``        the local-pool worker, before executing a spec
``server.job``       :meth:`repro.server.jobs.JobQueue._execute` (the
                     server's job body, run by the shared worker loop)
===================  ====================================================

Activation is explicit: either the ``REPRO_FAULT_PLAN`` environment
variable (inline JSON, or a path to a JSON file — inherited by spawned
pool/queue workers, which is how faults reach them) or
:func:`install_plan` from a test fixture.  Fault *kinds*:

* ``"raise"`` — raise :class:`InjectedFault` (classified transient).
* ``"oserror"`` — raise a real ``OSError`` with a named errno
  (``EIO``, ``ENOSPC``, ...), exercising production error paths.
* ``"crash"`` — ``os._exit(code)``: abrupt process death, the shape a
  killed fork-pool or queue worker leaves behind.
* ``"kill"`` — ``SIGKILL`` the calling process (the hardest death).
* ``"delay"`` — sleep; models stalled I/O and wedged heartbeats.
* ``"corrupt"`` — flip bytes in data passing through
  :func:`corrupt_bytes` (store writes/reads); checksum framing and
  JSON parsing must catch it downstream.

Cross-process firing budgets (``scope="shared"`` with a plan
``state_dir``) are claimed through exclusive-create *fuse files*, so
"crash exactly once, then succeed" holds even when each attempt runs in
a fresh worker process.
"""

from __future__ import annotations

import errno as errno_module
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable carrying the active plan (inline JSON or path).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The injection sites the repository threads through its seams.
SITES = (
    "store.write", "store.read",
    "queue.claim", "queue.heartbeat", "queue.requeue",
    "worker.execute", "pool.task", "server.job",
)

#: The fault kinds a rule may request.
KINDS = ("raise", "oserror", "crash", "kill", "delay", "corrupt")


class InjectedFault(RuntimeError):
    """A fault raised by the injector; transient by default.

    Modeled as infrastructure trouble (a flaky disk, a dropped
    connection), so the retry layer classifies it transient unless the
    rule says otherwise.
    """

    def __init__(self, message: str, transient: bool = True):
        super().__init__(message)
        self.transient = transient


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: where, what, and how often.

    Args:
        site: Injection-site name (see :data:`SITES`).
        kind: Fault kind (see :data:`KINDS`).
        match: Substring the site's key (artifact filename, benchmark
            name, job id) must contain; ``""`` matches every key.
        probability: Deterministic firing probability per consideration
            — drawn from a seeded hash of (seed, site, key, rule,
            counter), never from global RNG state.
        times: Maximum firings (``None`` = unlimited).
        scope: ``"process"`` counts firings per process; ``"shared"``
            claims them through fuse files in the plan's ``state_dir``,
            making the budget hold across worker processes.
        errno_name: Errno for ``kind="oserror"`` (``"EIO"``,
            ``"ENOSPC"``, ...).
        delay: Seconds for ``kind="delay"``.
        exit_code: Status for ``kind="crash"``.
        transient: Classification carried by ``kind="raise"`` faults.
    """

    site: str
    kind: str
    match: str = ""
    probability: float = 1.0
    times: int | None = 1
    scope: str = "process"
    errno_name: str = "EIO"
    delay: float = 0.05
    exit_code: int = 137
    transient: bool = True

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"available: {list(SITES)}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"available: {list(KINDS)}")
        if self.scope not in ("process", "shared"):
            raise ValueError("scope must be 'process' or 'shared'")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-rule field(s) "
                             f"{sorted(unknown)}; known: {sorted(known)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "site": self.site, "kind": self.kind, "match": self.match,
            "probability": self.probability, "times": self.times,
            "scope": self.scope, "errno_name": self.errno_name,
            "delay": self.delay, "exit_code": self.exit_code,
            "transient": self.transient,
        }


@dataclass
class FaultPlan:
    """A seed, a rule list, and (optionally) shared fuse-file state."""

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0
    state_dir: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        rules = [rule if isinstance(rule, FaultRule)
                 else FaultRule.from_dict(rule)
                 for rule in data.get("rules", [])]
        return cls(rules=rules, seed=int(data.get("seed", 0)),
                   state_dir=data.get("state_dir"))

    @classmethod
    def from_raw(cls, raw: str) -> "FaultPlan":
        """Parse ``REPRO_FAULT_PLAN``: inline JSON or a JSON file path."""
        text = raw.strip()
        if not text.startswith("{"):
            text = Path(text).read_text()
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "state_dir": self.state_dir,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _fraction(seed: int, site: str, key: str, rule_index: int,
              counter: int) -> float:
    """Deterministic pseudo-uniform draw in [0, 1) for one consideration."""
    digest = hashlib.sha256(
        f"{seed}|{site}|{key}|{rule_index}|{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the injection sites."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Per-rule consideration counters (drives the seeded draws).
        self._considered: dict[int, int] = {}
        #: Per-rule firing counters (``scope="process"`` budgets).
        self._fired: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Budget accounting
    # ------------------------------------------------------------------
    def _claim_budget(self, index: int, rule: FaultRule) -> bool:
        """Consume one firing from the rule's budget; False = exhausted."""
        if rule.times is None:
            return True
        if rule.scope == "shared" and self.plan.state_dir:
            state = Path(self.plan.state_dir)
            state.mkdir(parents=True, exist_ok=True)
            for slot in range(rule.times):
                fuse = state / f"rule{index}-slot{slot}.fuse"
                try:
                    fd = os.open(fuse, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(fd)
                return True
            return False
        fired = self._fired.get(index, 0)
        if fired >= rule.times:
            return False
        self._fired[index] = fired + 1
        return True

    def _should_fire(self, index: int, rule: FaultRule, site: str,
                     key: str) -> bool:
        if rule.site != site or (rule.match and rule.match not in key):
            return False
        counter = self._considered.get(index, 0)
        self._considered[index] = counter + 1
        if rule.probability < 1.0 and _fraction(
                self.plan.seed, site, key, index, counter) >= rule.probability:
            return False
        return self._claim_budget(index, rule)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, site: str, key: str = "") -> None:
        """Evaluate every matching non-corrupt rule at one site."""
        for index, rule in enumerate(self.plan.rules):
            if rule.kind == "corrupt":
                continue
            if not self._should_fire(index, rule, site, key):
                continue
            if rule.kind == "delay":
                time.sleep(rule.delay)
            elif rule.kind == "raise":
                raise InjectedFault(
                    f"injected fault at {site} ({key or 'any'})",
                    transient=rule.transient)
            elif rule.kind == "oserror":
                code = getattr(errno_module, rule.errno_name, errno_module.EIO)
                raise OSError(code, f"injected {rule.errno_name} at {site} "
                                    f"({key or 'any'})")
            elif rule.kind == "crash":
                os._exit(rule.exit_code)
            elif rule.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)

    def corrupt(self, site: str, key: str, data: bytes) -> bytes:
        """Apply matching ``corrupt`` rules to bytes passing a site.

        Flips one byte (XOR ``0xFF``) at a seeded position.  For
        checksum-framed blobs the digest catches it; for the raw-ASCII
        JSON of the result cache a flipped byte is always an invalid
        UTF-8 sequence, so decoding catches it — either way the corrupt
        artifact can never be *served*, only rebuilt.
        """
        for index, rule in enumerate(self.plan.rules):
            if rule.kind != "corrupt" or not data:
                continue
            if not self._should_fire(index, rule, site, key):
                continue
            position = int(_fraction(self.plan.seed, site, key, index,
                                     len(data)) * len(data))
            mutated = bytearray(data)
            mutated[position] ^= 0xFF
            data = bytes(mutated)
        return data


# ----------------------------------------------------------------------
# Process-global activation
# ----------------------------------------------------------------------
_installed: FaultInjector | None = None
_env_injector: FaultInjector | None = None
_env_raw: str | None = None


def install_plan(plan: FaultPlan | dict | None) -> FaultInjector | None:
    """Install a plan directly (test fixtures); overrides the env var."""
    global _installed
    if plan is None:
        _installed = None
        return None
    if isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    _installed = FaultInjector(plan)
    return _installed


def clear_plan() -> None:
    """Remove any installed plan and drop the env-derived cache."""
    global _installed, _env_injector, _env_raw
    _installed = None
    _env_injector = None
    _env_raw = None


def active_injector() -> FaultInjector | None:
    """The injector in force, or None (the common, near-free case)."""
    if _installed is not None:
        return _installed
    raw = os.environ.get(PLAN_ENV)
    if not raw:
        return None
    global _env_injector, _env_raw
    if raw != _env_raw:
        _env_injector = FaultInjector(FaultPlan.from_raw(raw))
        _env_raw = raw
    return _env_injector


def inject(site: str, key: str = "") -> None:
    """The seam call: no-op without a plan, else evaluate it at ``site``."""
    injector = active_injector()
    if injector is not None:
        injector.fire(site, key)


def corrupt_bytes(site: str, key: str, data: bytes) -> bytes:
    """The corrupting seam call: identity without a plan."""
    injector = active_injector()
    if injector is None:
        return data
    return injector.corrupt(site, key, data)
