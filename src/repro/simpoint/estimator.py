"""The SimPoint baseline estimator (Section 5.3 of the SMARTS paper).

SimPoint picks a handful of large representative intervals by clustering
basic block vectors, simulates each chosen interval once in detail, and
forms a weighted CPI estimate.  Its key properties relative to SMARTS —
no warming requirement thanks to large intervals, early termination, but
no statistical confidence bound and potentially large error when
same-BBV regions behave differently on a given microarchitecture — are
what Figure 8 of the paper contrasts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config.machines import MachineConfig
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.energy.wattch import EnergyModel
from repro.functional.simulator import FunctionalCore
from repro.isa.program import Program
from repro.simpoint.bbv import BBVProfile, profile_bbv, project_vectors
from repro.simpoint.kmeans import KMeansResult, choose_clustering


@dataclass
class SimPoint:
    """One selected representative interval."""

    interval_index: int
    weight: float
    cpi: float = 0.0
    epi: float = 0.0
    instructions: int = 0


@dataclass
class SimPointResult:
    """Outcome of a SimPoint estimation run."""

    benchmark: str
    machine: str
    interval_size: int
    num_clusters: int
    simpoints: list[SimPoint] = field(default_factory=list)
    instructions_detailed: int = 0
    instructions_fastforwarded: int = 0
    seconds: float = 0.0

    @property
    def cpi(self) -> float:
        """Weighted CPI estimate over the chosen intervals."""
        total_weight = sum(p.weight for p in self.simpoints)
        if total_weight == 0:
            return 0.0
        return sum(p.cpi * p.weight for p in self.simpoints) / total_weight

    @property
    def epi(self) -> float:
        total_weight = sum(p.weight for p in self.simpoints)
        if total_weight == 0:
            return 0.0
        return sum(p.epi * p.weight for p in self.simpoints) / total_weight


def select_simpoints(profile: BBVProfile, max_clusters: int = 10,
                     projected_dimensions: int = 15, seed: int = 0
                     ) -> tuple[list[SimPoint], KMeansResult]:
    """Cluster a BBV profile and select one representative per cluster."""
    projected = project_vectors(profile, dimensions=projected_dimensions, seed=seed)
    clustering = choose_clustering(projected, max_k=max_clusters, seed=seed)
    weights_total = float(profile.interval_lengths.sum())
    simpoints: list[SimPoint] = []
    for cluster in range(clustering.k):
        member_indices = np.flatnonzero(clustering.labels == cluster)
        if member_indices.size == 0:
            continue
        centroid = clustering.centroids[cluster]
        distances = ((projected[member_indices] - centroid) ** 2).sum(axis=1)
        representative = int(member_indices[int(distances.argmin())])
        weight = float(
            profile.interval_lengths[member_indices].sum()) / weights_total
        simpoints.append(SimPoint(interval_index=representative, weight=weight))
    simpoints.sort(key=lambda p: p.interval_index)
    return simpoints, clustering


def run_simpoint(
    program: Program,
    machine: MachineConfig,
    interval_size: int,
    max_clusters: int = 10,
    seed: int = 0,
    measure_energy: bool = True,
    profile: BBVProfile | None = None,
) -> SimPointResult:
    """Full SimPoint flow: profile, cluster, simulate, weight.

    The chosen intervals are simulated in ascending order in a single
    forward pass: functional fast-forwarding (without warming — SimPoint
    relies on its large intervals to amortize cold state) between them,
    detailed simulation of each interval.  Simulation terminates after
    the last chosen interval (SimPoint's early-termination advantage).
    """
    errors = [{"field": name, "message": f"must be positive, got {value!r}"}
              for name, value in (("interval_size", interval_size),
                                  ("max_clusters", max_clusters))
              if value <= 0]
    if errors:
        from repro.api.spec import SpecError  # deferred: avoids cycle

        raise SpecError(errors)
    start = time.perf_counter()
    if profile is None:
        profile = profile_bbv(program, interval_size)
    simpoints, clustering = select_simpoints(
        profile, max_clusters=max_clusters, seed=seed)

    core = FunctionalCore(program)
    microarch = MicroarchState(machine)
    detailed = DetailedSimulator(machine, microarch)
    energy_model = EnergyModel(machine) if measure_energy else None

    result = SimPointResult(
        benchmark=program.name,
        machine=machine.name,
        interval_size=interval_size,
        num_clusters=clustering.k,
    )

    for point in simpoints:
        target = point.interval_index * interval_size
        gap = target - core.instructions_retired
        if gap > 0:
            executed = core.run(gap)
            result.instructions_fastforwarded += executed
            if executed < gap:
                break
        detailed.begin_period()
        counters = detailed.run(core, interval_size)
        if counters.instructions == 0:
            break
        point.instructions = counters.instructions
        point.cpi = counters.cpi
        if energy_model is not None:
            point.epi = energy_model.epi(counters)
        result.instructions_detailed += counters.instructions
        result.simpoints.append(point)
        if core.halted:
            break

    result.seconds = time.perf_counter() - start
    return result
