"""repro.api — the unified public entry point of the library.

This package is the supported surface for building workflows on the
SMARTS reproduction.  It provides:

* :class:`Session` — facade with caching and parallel batch execution,
* :class:`RunSpec` / :class:`RunResult` — declarative, JSON-serializable
  run contracts; a spec rejects what it cannot run with a
  :class:`SpecError`,
* the pluggable sampling strategies (:class:`SystematicStrategy`,
  :class:`AdaptiveStrategy`, :class:`RandomStrategy`,
  :class:`StratifiedStrategy`) and their registry,
* the declarative experiment layer — :class:`Study` /
  :class:`StudyReport` / :class:`StudyContext`, the study registry
  (every paper table/figure is a registered study; see
  :mod:`repro.api.studies`), and the :class:`ResultSet` container with
  filtering, group-by/aggregate, and tidy-row export,
* passthroughs for the supporting workflows the CLI and examples need
  (benchmark suite listing, reference simulation, the SimPoint baseline,
  and table formatting), so downstream code can import *only* from
  ``repro.api``.

See API.md at the repository root for a quickstart and migration notes
from direct ``SmartsEngine`` wiring.
"""

from __future__ import annotations

from repro.checkpoint import (
    DEFAULT_STRIDE,
    CheckpointStore,
    StaleCheckpointWarning,
)
from repro.backends import (
    BACKENDS,
    ExecutorBackend,
    LocalPoolBackend,
    QueueBackend,
    SerialBackend,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.procedure import estimate_metric
from repro.harness.reference import run_reference
from repro.harness.reporting import format_table
from repro.reliability import (
    BatchExecutionError,
    BatchReport,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SpecFailure,
)
from repro.simpoint.estimator import run_simpoint
from repro.store import ArtifactCorruptionWarning, ArtifactStore, fingerprint
from repro.workloads import EXTRA_NAMES, SUITE_NAMES, get_benchmark, suite_specs
from repro.api.spec import (
    BENCHMARK_NAMES,
    MACHINE_NAMES,
    RunResult,
    RunSpec,
    SpecError,
)
from repro.api.strategies import (
    STRATEGIES,
    AdaptiveStrategy,
    RandomStrategy,
    SamplingStrategy,
    StratifiedStrategy,
    StrategyOutcome,
    SystematicStrategy,
    get_strategy,
    register_strategy,
    strategy_from_dict,
)
from repro.api.executor import (
    Executor,
    ResultCache,
    execute_spec,
    resolve_benchmark,
    resolve_machine,
)
from repro.api.session import Session, run_spec
from repro.api.resultset import ResultSet, to_jsonable
from repro.api.study import (
    STUDIES,
    Study,
    StudyContext,
    StudyReport,
    default_context,
    get_study,
    register_study,
    study_names,
)

# Importing the definitions module populates the study registry with
# every paper table/figure (the import is for its registration side
# effect; the studies are reached through STUDIES / get_study).
import repro.api.studies  # noqa: E402,F401  (registry population)


def run_study(study, ctx=None, params: dict | None = None,
              max_workers: int | None = None) -> "StudyReport":
    """Run a study through the context's session (module-level shortcut).

    Equivalent to ``ctx.session.run_study(study, ctx=ctx, params=params)``
    with ``ctx`` defaulting to the process-wide :func:`default_context`
    — so REPRO_WORKERS / REPRO_CHECKPOINTS and the shared reference
    caches all apply.  ``max_workers`` overrides the context's worker
    count (and therefore REPRO_WORKERS) for this invocation only; note
    that parallel wall-clock speedup is host-dependent (a single-core
    host gains nothing), while estimates are bit-identical either way.
    """
    if ctx is None:
        ctx = default_context()
    return ctx.session.run_study(study, ctx=ctx, params=params,
                                 max_workers=max_workers)


__all__ = [
    "AdaptiveStrategy",
    "ArtifactCorruptionWarning",
    "ArtifactStore",
    "BACKENDS",
    "BENCHMARK_NAMES",
    "BatchExecutionError",
    "BatchReport",
    "CheckpointStore",
    "DEFAULT_STRIDE",
    "EXTRA_NAMES",
    "Executor",
    "ExecutorBackend",
    "FaultInjector",
    "FaultPlan",
    "LocalPoolBackend",
    "MACHINE_NAMES",
    "QueueBackend",
    "RandomStrategy",
    "ResultCache",
    "ResultSet",
    "RetryPolicy",
    "RunResult",
    "RunSpec",
    "STRATEGIES",
    "STUDIES",
    "SUITE_NAMES",
    "SamplingStrategy",
    "SerialBackend",
    "Session",
    "SpecError",
    "SpecFailure",
    "StaleCheckpointWarning",
    "StrategyOutcome",
    "StratifiedStrategy",
    "Study",
    "StudyContext",
    "StudyReport",
    "SystematicStrategy",
    "default_context",
    "estimate_metric",
    "execute_spec",
    "fingerprint",
    "format_table",
    "get_backend",
    "get_benchmark",
    "get_strategy",
    "get_study",
    "register_backend",
    "register_strategy",
    "register_study",
    "resolve_backend",
    "resolve_benchmark",
    "resolve_machine",
    "run_reference",
    "run_simpoint",
    "run_spec",
    "run_study",
    "strategy_from_dict",
    "study_names",
    "suite_specs",
    "to_jsonable",
]
