"""The correctness gate: per-spec digests and reference results.

``golden.json`` holds, per workload, the digest of every spec the
generator produces for seeds 0 and 1, and the full-detailed reference
CPI/EPI (``run_reference``) of every (benchmark, scale, machine) the
workloads simulate.  A digest is a fixed projection of a result -- the
estimate, its confidence interval, the sample size and the per-unit
instructions/cycles/energy -- so adding result fields never breaks it.

Refresh with ``python -m bench --refresh-golden`` after a change that is
*meant* to move estimates; the diff of this file is the review artifact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = (0, 1)
MACHINE = "8-way"


def digest(result: dict) -> str:
    """Digest of a ``RunResult.to_dict()`` / ``estimates_dict()`` payload."""
    projection = {
        "estimate": result["estimate_mean"],
        "ci": result["confidence_interval"],
        "n": result["sample_size"],
        "units": [[u["instructions"], u["cycles"], u["energy"]]
                  for u in result["units"]],
    }
    text = json.dumps(projection, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_key(benchmark: str, scale: float) -> str:
    return f"{benchmark}@{scale}@{MACHINE}"


def load(path: Path = GOLDEN) -> dict:
    if not path.exists():
        return {"digests": {}, "reference": {}}
    return json.loads(path.read_text())


def mismatches(golden: dict, workload: str, seed: int,
               results: list[dict]) -> list[str]:
    """Results whose digest differs from the golden one for this seed.

    Only seeds in the golden file are checked; a spec it does not know
    means the generator changed without a refresh.
    """
    expected = golden["digests"].get(workload, {}).get(str(seed))
    if expected is None:
        return []
    return [f"{r['name']}: digest {r['digest']} != golden "
            f"{expected.get(r['name'], '(not in golden.json)')}"
            for r in results if r["digest"] != expected.get(r["name"])]


def refresh(path: Path = GOLDEN) -> dict:
    """Recompute golden.json in this process (repro must be importable).

    Checkpointed specs are executed with checkpoints off, so the gate
    also holds restores to the bit-identity contract.
    """
    from repro.api import (RunSpec, Session, resolve_benchmark,
                           resolve_machine, run_reference)

    from bench.workloads import WORKLOADS, generate, specs_of

    session = Session(use_cache=False, backend="serial")
    golden: dict = {"digests": {}, "reference": {}}
    programs = set()
    for workload in WORKLOADS:
        golden["digests"][workload] = {}
        for seed in GOLDEN_SEEDS:
            entries = specs_of(generate(workload, seed))
            specs = [RunSpec.from_dict(e["spec"]).with_(checkpoints="off")
                     for e in entries]
            results = session.run_batch(specs)
            golden["digests"][workload][str(seed)] = {
                e["name"]: digest(r.to_dict())
                for e, r in zip(entries, results)}
            programs.update((s.benchmark, s.scale) for s in specs)
    for benchmark, scale in sorted(programs):
        ref = run_reference(resolve_benchmark(benchmark, scale),
                            resolve_machine(MACHINE), use_cache=False)
        golden["reference"][reference_key(benchmark, scale)] = {
            "cpi": ref.cpi, "epi": ref.epi}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return golden
