"""Spec execution: benchmark/machine resolution, caching, backends.

:func:`execute_spec` turns one :class:`~repro.api.spec.RunSpec` into a
:class:`~repro.api.spec.RunResult`.  :class:`Executor` runs batches of
specs, consulting the result namespace of the content-addressed
artifact store (:class:`~repro.store.ArtifactStore`) keyed by the
spec's content hash, and handing cache misses to a pluggable
:class:`~repro.backends.ExecutorBackend` — serial, local process pool,
or a file-based work queue drained by separate worker processes.  All
backends exchange plain dict payloads (the ``to_dict`` forms), so
nothing fancier than JSON-shaped data ever crosses a process boundary,
and all are bit-identical on ``estimates_dict()``.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path

from repro.checkpoint import CheckpointStore
from repro.config.machines import MachineConfig, get_config, scaled_16way, scaled_8way
from repro.isa.program import Program
from repro.store import ArtifactStore, register_artifact_kind
from repro.workloads.suite import get_benchmark, micro_benchmark
from repro.api.spec import RunResult, RunSpec

#: Bump when simulator behaviour changes in a way that invalidates
#: cached run results.  v3: functional warming mirrors the detailed
#: path's BTB recency updates (the path-independence fix the checkpoint
#: subsystem rests on), which perturbs warmed estimates slightly.
#: v4: truncated final units are excluded from CPI/EPI estimates and
#: serialized with a ``truncated`` flag, shifting estimates of runs
#: that sampled the stream end.
CACHE_VERSION = 4


def resolve_machine(name: str) -> MachineConfig:
    """Map a RunSpec machine name to a configuration.

    ``"8-way"`` and ``"16-way"`` resolve to the *scaled* Table 3
    configurations (the ones every workflow in this repository
    simulates); any other name is looked up in the full registry.
    """
    if name == "8-way":
        return scaled_8way()
    if name == "16-way":
        return scaled_16way()
    return get_config(name)


def resolve_benchmark(name: str, scale: float) -> Program:
    """Build the program for a RunSpec benchmark name."""
    if name == "micro.syn":
        return micro_benchmark().program
    return get_benchmark(name, scale=scale).program


def resolve_checkpoints(spec: RunSpec, program: Program | None = None,
                        machine: MachineConfig | None = None):
    """Load-or-build the checkpoint set a ``checkpoints="auto"`` spec uses.

    Returns None when the spec cannot use checkpoints: mode ``"off"``,
    a strategy without a unit size, or fast-forwarding without
    functional warming (snapshots capture *warmed* state, which a
    no-warming run must not see).
    """
    if spec.checkpoints != "auto":
        return None
    unit_size = getattr(spec.strategy, "unit_size", None)
    if unit_size is None:
        return None
    if not getattr(spec.strategy, "functional_warming", True):
        return None
    if program is None:
        program = resolve_benchmark(spec.benchmark, spec.scale)
    if machine is None:
        machine = resolve_machine(spec.machine)
    return CheckpointStore().get_or_build(program, machine, unit_size)


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion (no caching, current process)."""
    start = time.perf_counter()
    program = resolve_benchmark(spec.benchmark, spec.scale)
    machine = resolve_machine(spec.machine)
    checkpoints = resolve_checkpoints(spec, program, machine)
    length = spec.benchmark_length
    if length is None:
        if checkpoints is not None:
            # The checkpoint build pass already measured the program.
            length = checkpoints.benchmark_length
        else:
            length = CheckpointStore().get_or_measure(program)
    outcome = spec.strategy.run(
        program, machine, length,
        metric=spec.metric,
        epsilon=spec.epsilon,
        confidence=spec.confidence,
        seed=spec.seed,
        checkpoints=checkpoints,
    )
    return RunResult.from_outcome(spec, outcome,
                                  wall_seconds=time.perf_counter() - start)


def _execute_payload(payload: dict) -> dict:
    """Worker entry point: dict spec in, dict result out (picklable)."""
    return execute_spec(RunSpec.from_dict(payload)).to_dict()


# ----------------------------------------------------------------------
# On-disk result cache (the store's ``result`` namespace)
# ----------------------------------------------------------------------
register_artifact_kind("result", ".json", f"--v{CACHE_VERSION}.json")


class ResultCache:
    """JSON-file-per-spec result cache keyed by the spec content hash.

    A thin adapter over the artifact store's ``result`` namespace.
    Entries stay *raw* JSON (no checksum frame) so operators — and the
    hardening tests — can read cache files directly with ``json.loads``.
    """

    def __init__(self, directory: Path | None = None, enabled: bool = True,
                 store: ArtifactStore | None = None):
        if store is None:
            overrides = {"result": directory} if directory else None
            store = ArtifactStore(enabled=enabled, overrides=overrides)
        self.store = store
        self.directory = store.namespace_dir("result")
        self.enabled = enabled

    def path(self, spec: RunSpec) -> Path:
        safe = spec.benchmark.replace("/", "_")
        return self.directory / f"{safe}--{spec.key()}--v{CACHE_VERSION}.json"

    def get(self, spec: RunSpec) -> RunResult | None:
        if not self.enabled:
            return None
        data = self.store.read_path(self.path(spec))
        if data is None:
            return None
        try:
            result = RunResult.from_json(data.decode())
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None  # stale or corrupt entry: treat as a miss
        return result if result.spec == spec else None

    def put(self, result: RunResult) -> None:
        """Persist a result atomically; never raises on cache I/O failure.

        The store gives readers complete-entry-or-nothing semantics
        (per-writer tmp file + fsync + ``os.replace``; concurrent
        writers of the same spec last-rename-wins) — which is what lets
        many server worker threads/processes share one cache directory.
        An unwritable or full cache degrades to a warning: the computed
        result is still returned to the caller, it is just not memoized.
        """
        if not self.enabled:
            return
        path = self.path(result.spec)
        try:
            self.store.write_path(path, result.to_json().encode(),
                                  checksum=False)
        except OSError as exc:
            warnings.warn(f"result cache write to {path} failed ({exc}); "
                          f"continuing without caching", RuntimeWarning,
                          stacklevel=2)

    def stats(self) -> dict:
        """Entry counts and on-disk footprint, for service introspection.

        ``entries`` counts current-version result files; ``stale_files``
        everything else in the directory (older cache versions, orphaned
        tmp files from killed writers).
        """
        entries = stale = size_bytes = 0
        if self.directory.is_dir():
            for item in self.directory.iterdir():
                if not item.is_file():
                    continue
                try:
                    size_bytes += item.stat().st_size
                except OSError:
                    continue
                if item.name.endswith(f"--v{CACHE_VERSION}.json"):
                    entries += 1
                else:
                    stale += 1
        return {
            "directory": str(self.directory),
            "enabled": self.enabled,
            "version": CACHE_VERSION,
            "entries": entries,
            "stale_files": stale,
            "size_bytes": size_bytes,
        }


# ----------------------------------------------------------------------
# Batch executor
# ----------------------------------------------------------------------
class Executor:
    """Runs batches of RunSpecs with caching over a pluggable backend.

    ``backend`` accepts an :class:`~repro.backends.ExecutorBackend`
    instance, class, or registered name (``"serial"``, ``"local-pool"``,
    ``"queue"``).  When None, ``REPRO_BACKEND`` is consulted, and
    failing that the historical auto policy applies: ``max_workers``
    <= 1 (or None) or a single cache miss runs serially in-process,
    anything larger fans across the local process pool.  Results come
    back in spec order on every backend, and — because every spec is
    deterministic — with identical estimates on every backend.

    :meth:`run_report` is the partial-failure entry point: it returns a
    :class:`~repro.reliability.BatchReport` pairing completed results
    with per-spec :class:`~repro.reliability.SpecFailure` envelopes.
    :meth:`run` keeps the historical list-of-results signature by
    raising :class:`~repro.reliability.BatchExecutionError` when any
    spec failed — the exception carries the full report, so completed
    work is never discarded.
    """

    def __init__(self, max_workers: int | None = None,
                 cache: ResultCache | None = None,
                 backend=None):
        self.max_workers = max_workers
        self.cache = cache if cache is not None else ResultCache()
        self.backend = backend

    def _resolve_backend(self, n_misses: int, max_workers: int | None):
        from repro.backends import (LocalPoolBackend, SerialBackend,
                                    backend_from_env, resolve_backend)

        if self.backend is not None:
            return resolve_backend(self.backend)
        ambient = backend_from_env()
        if ambient is not None:
            return ambient
        if max_workers is None or max_workers <= 1 or n_misses == 1:
            return SerialBackend()
        return LocalPoolBackend()

    def run_report(self, specs: list[RunSpec],
                   max_workers: int | None = None) -> "BatchReport":
        """Run the batch; report every spec's outcome, never raise.

        Cache hits become completed entries without touching a backend;
        misses go through the resolved backend's envelope contract.
        Only genuine :class:`~repro.api.spec.RunResult` outcomes are
        written back to the cache.
        """
        from repro.reliability.report import BatchReport, SpecFailure

        if max_workers is None:
            max_workers = self.max_workers
        entries: list[RunResult | SpecFailure | None] = []
        misses: list[int] = []
        for i, spec in enumerate(specs):
            cached = self.cache.get(spec)
            entries.append(cached)
            if cached is None:
                misses.append(i)

        if misses:
            backend = self._resolve_backend(len(misses), max_workers)
            if backend.prebuild:
                # Build any missing checkpoint sets once, up front: the
                # artifact store is the sharing medium, so concurrent
                # workers (pool processes, queue workers on any host)
                # load by key instead of racing to rebuild the same
                # warming pass.  Only specs that actually got a set mark
                # their key as done — resolve_checkpoints declines some
                # auto specs (e.g. functional_warming=False), and such a
                # spec must not suppress the prebuild for an eligible
                # twin.  A failed prebuild must not kill the batch: the
                # affected spec will rebuild (or fail) inside its own
                # worker, where the per-spec envelope captures it.
                seen: set[tuple] = set()
                for i in misses:
                    spec = specs[i]
                    key = (spec.benchmark, spec.scale, spec.machine,
                           getattr(spec.strategy, "unit_size", None))
                    if key in seen:
                        continue
                    try:
                        if resolve_checkpoints(spec) is not None:
                            seen.add(key)
                    except Exception:  # noqa: BLE001 — deferred to worker
                        continue
            fresh = backend.run_specs([specs[i] for i in misses],
                                      max_workers=max_workers,
                                      use_cache=self.cache.enabled)
            for i, outcome in zip(misses, fresh):
                if isinstance(outcome, RunResult):
                    self.cache.put(outcome)
                entries[i] = outcome
        return BatchReport(entries=entries)  # type: ignore[arg-type]

    def run(self, specs: list[RunSpec],
            max_workers: int | None = None) -> list[RunResult]:
        """Run the batch and return results in spec order.

        Raises :class:`~repro.reliability.BatchExecutionError` if any
        spec failed; the exception's ``report`` attribute still carries
        every completed sibling's result.
        """
        return self.run_report(specs, max_workers=max_workers).results
