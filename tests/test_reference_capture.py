"""Tests for checkpoint capture during the reference pass.

The tentpole dedup contract: with ``capture_units`` set, ONE warm pass
over the instruction stream populates both the reference-trace and the
checkpoint namespaces of the artifact store — asserted by
instruction-count accounting — and the captured set is equivalent to a
functionally built one (bit-identical downstream estimates).  The
reference trace itself is bit-identical with capture on or off.
"""

import numpy as np
import pytest

from repro.api import RunSpec, SystematicStrategy
from repro.api.executor import execute_spec
from repro.checkpoint import CheckpointStore
from repro.harness.reference import run_reference
from repro.store import (
    instructions_by_kind,
    pass_events,
    reset_pass_log,
)

UNIT = 25


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


@pytest.fixture(autouse=True)
def clean_pass_log():
    reset_pass_log()
    yield
    reset_pass_log()


def test_one_pass_populates_both_namespaces(micro, machine_8way):
    store = CheckpointStore()
    assert store.get(micro.program, machine_8way, UNIT) is None

    ref = run_reference(micro.program, machine_8way, capture_units=UNIT)

    # Both artifacts exist after the single pass ...
    captured = store.get(micro.program, machine_8way, UNIT)
    assert captured is not None
    cached = run_reference(micro.program, machine_8way, capture_units=UNIT)
    assert cached.cycles == ref.cycles

    # ... and the ledger shows exactly one full-stream pass: the
    # reference simulation.  No separate functional build ever ran.
    kinds = [event.kind for event in pass_events()]
    assert kinds == ["reference"]
    assert instructions_by_kind()["reference"] == ref.instructions
    assert captured.benchmark_length == ref.instructions


def test_captured_set_matches_functional_build(micro, machine_8way, tmp_path):
    run_reference(micro.program, machine_8way, capture_units=UNIT)
    captured = CheckpointStore().get(micro.program, machine_8way, UNIT)

    built_store = CheckpointStore(directory=tmp_path / "functional")
    built = built_store.get_or_build(micro.program, machine_8way, UNIT)

    # Same grid, same metadata.
    assert captured.unit_size == built.unit_size
    assert captured.stride == built.stride
    assert captured.benchmark_length == built.benchmark_length
    assert [s.position for s in captured.snapshots] \
        == [s.position for s in built.snapshots]

    # Same downstream estimates: a checkpointed run restoring from the
    # captured set is bit-identical to one restoring from the built set
    # (which existing tests pin against the un-checkpointed run).
    spec = RunSpec(
        benchmark="micro.syn",
        strategy=SystematicStrategy(unit_size=UNIT, n_init=40, max_rounds=1,
                                    detailed_warming=50),
        checkpoints="auto",
    )
    length = captured.benchmark_length
    from_captured = spec.strategy.run(
        micro.program, machine_8way, length, checkpoints=captured)
    from_built = spec.strategy.run(
        micro.program, machine_8way, length, checkpoints=built)
    for a, b in zip(from_captured.runs, from_built.runs):
        assert a.units == b.units
        assert a.instructions_measured == b.instructions_measured
        assert a.instructions_restored == b.instructions_restored
    assert sum(run.checkpoint_restores
               for run in from_captured.runs) > 0


def test_executor_reuses_captured_set_without_build_pass(micro, machine_8way):
    """After a capturing reference pass, auto specs never build again."""
    run_reference(micro.program, machine_8way, capture_units=UNIT)
    reset_pass_log()

    result = execute_spec(RunSpec(
        benchmark="micro.syn",
        strategy=SystematicStrategy(unit_size=UNIT, n_init=40, max_rounds=1,
                                    detailed_warming=50),
        checkpoints="auto",
    ))
    assert result.checkpoint_restores > 0
    kinds = [event.kind for event in pass_events()]
    assert "checkpoint_build" not in kinds
    assert "measure_length" not in kinds  # length came from the set


def test_trace_bit_identical_with_capture_on_and_off(micro, machine_8way,
                                                     micro_reference,
                                                     tmp_path):
    """Splitting chunks at snapshot boundaries must not perturb the trace."""
    capturing = run_reference(
        micro.program, machine_8way, chunk_size=25, use_cache=False,
        capture_units=UNIT,
        checkpoint_store=CheckpointStore(directory=tmp_path / "capture"))
    assert capturing.instructions == micro_reference.instructions
    assert capturing.cycles == micro_reference.cycles
    assert capturing.energy == micro_reference.energy
    assert np.array_equal(capturing.chunk_cycles,
                          micro_reference.chunk_cycles)
    assert np.array_equal(capturing.chunk_energy,
                          micro_reference.chunk_energy)


def test_capture_skipped_when_set_exists(micro, machine_8way):
    store = CheckpointStore()
    built = store.get_or_build(micro.program, machine_8way, UNIT)
    reset_pass_log()
    run_reference(micro.program, machine_8way, capture_units=UNIT)
    kinds = [event.kind for event in pass_events()]
    assert kinds == ["reference"]  # no rebuild, no overwrite
    again = store.get(micro.program, machine_8way, UNIT)
    assert [s.position for s in again.snapshots] \
        == [s.position for s in built.snapshots]


def test_capture_respects_disabled_store(micro, machine_8way):
    disabled = CheckpointStore(enabled=False)
    ref = run_reference(micro.program, machine_8way, use_cache=False,
                        capture_units=UNIT, checkpoint_store=disabled)
    assert ref.instructions > 0
    assert CheckpointStore().get(micro.program, machine_8way, UNIT) is None


def test_one_detailed_call_per_snapshot_window(micro, machine_8way,
                                               monkeypatch):
    """The reference pass runs each snapshot window (or, without
    capture, each stretch of ``CALL_CHUNKS`` chunks) in one detailed
    call, with a window per trace chunk, and the trace is unchanged."""
    from repro.detailed.pipeline import DetailedSimulator
    from repro.harness import reference

    calls = []
    real = DetailedSimulator.run

    def counting(self, core, count, *args, **kwargs):
        calls.append(count)
        return real(self, core, count, *args, **kwargs)

    monkeypatch.setattr(DetailedSimulator, "run", counting)
    plain = run_reference(micro.program, machine_8way, use_cache=False)
    assert len(calls) == 1
    assert len(calls[0]) == reference.CALL_CHUNKS

    calls.clear()
    monkeypatch.setattr(reference, "CALL_CHUNKS", 64)
    batched = run_reference(micro.program, machine_8way, use_cache=False)
    assert len(calls) == -(-plain.instructions // (64 * 25))
    np.testing.assert_array_equal(batched.chunk_cycles, plain.chunk_cycles)
    np.testing.assert_array_equal(batched.chunk_energy, plain.chunk_energy)

    calls.clear()
    captured = run_reference(micro.program, machine_8way, use_cache=False,
                             capture_units=UNIT)
    snapshots = CheckpointStore().get(micro.program, machine_8way,
                                      UNIT).snapshots
    assert len(calls) == len(snapshots) + 1
    np.testing.assert_array_equal(captured.chunk_cycles, plain.chunk_cycles)
    np.testing.assert_array_equal(captured.chunk_energy, plain.chunk_energy)
