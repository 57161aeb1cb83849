"""The branch unit: direction predictor + BTB + RAS behind one interface.

The detailed simulator asks the unit whether a dynamic branch was
predicted correctly (direction *and* target); functional warming trains
the unit without asking for predictions.  Because the unit is shared
between modes, its state is continuously warm across fast-forwarding —
exactly the functional warming of Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.branch.predictors import CombinedPredictor
from repro.config.machines import BranchConfig
from repro.isa.instruction import DynInst
from repro.isa.opcodes import Opcode


def branch_kind(op: Opcode, is_conditional: bool) -> int:
    """The kind code :meth:`BranchUnit.resolve_at` takes: 0 = conditional,
    1 = JAL, 2 = JR, 3 = JUMP (the trace-compiled engine's encoding)."""
    if is_conditional:
        return 0
    return 1 if op == Opcode.JAL else 2 if op == Opcode.JR else 3


@dataclass
class BranchOutcome:
    """Result of consulting the branch unit for one dynamic branch."""

    predicted_taken: bool
    predicted_target: int | None
    mispredicted: bool


class BranchUnit:
    """Combined predictor, BTB, and return address stack."""

    def __init__(self, config: BranchConfig) -> None:
        self.config = config
        self.predictor = CombinedPredictor(config.table_entries, config.history_bits)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.branches = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    # Detailed-mode interface
    # ------------------------------------------------------------------
    def resolve(self, dyn: DynInst) -> BranchOutcome:
        """Predict the branch, compare to the actual outcome, and train."""
        kind = branch_kind(dyn.op, dyn.is_conditional)
        return BranchOutcome(*self.resolve_at(dyn.pc, kind, dyn.taken,
                                              dyn.next_pc))

    def resolve_at(self, pc: int, kind: int, taken, target: int
                   ) -> tuple[bool, int | None, bool]:
        """:meth:`resolve` for one branch given positionally.

        ``kind`` is the :func:`branch_kind` code; ``taken`` and
        ``target`` are the resolved outcome (``target`` is the next pc).
        Returns ``(predicted_taken, predicted_target, mispredicted)``.

        Mirrors SimpleScalar's per-branch flow: direction prediction for
        conditional branches, target prediction through the BTB (or RAS
        for returns), then training with the resolved outcome.

        This per-structure path is the specification the :meth:`bind`
        kernel is tested against.
        """
        btb = self.btb
        if kind == 0:
            predicted_taken = self.predictor.predict(pc)
            predicted_target = btb.lookup(pc) if predicted_taken else pc + 1
            self.predictor.update(pc, taken)
        elif kind == 2:  # JR
            predicted_taken = True
            predicted_target = self.ras.pop()
            if predicted_target is None:
                predicted_target = btb.lookup(pc)
        else:  # JAL, JUMP
            predicted_taken = True
            predicted_target = btb.lookup(pc)
            if kind == 1:
                self.ras.push(pc + 1)

        if taken:
            btb.update(pc, target)

        mispredicted = predicted_taken != bool(taken)
        if not mispredicted and taken:
            mispredicted = predicted_target != target

        self.branches += 1
        if mispredicted:
            self.mispredictions += 1
        return predicted_taken, predicted_target, mispredicted

    def bind(self):
        """A bound :meth:`resolve_at` kernel: ``(resolve, close)``.

        ``resolve(pc, kind, taken, target)`` has exactly the state effect
        of ``resolve_at`` with the same arguments and returns only its
        ``mispredicted`` flag, the one field the timing model reads.  It
        reads every counter table, mask and BTB/RAS container into
        closure locals once, checks a BTB set's MRU (last) entry before
        scanning it, and keeps global history and the branch, mispredict
        and BTB counters in locals; ``close()`` writes them back (call it
        exactly once, when done).  The BTB probe of a predicted-taken
        branch is fused with its taken install: after the probe the
        entry is already MRU, so the install only writes the target.

        As in the timing model, a JAL, JR or JUMP (kinds 1–3) is always
        taken, so ``taken`` is only read for a conditional branch.  A
        kernel is valid for one detailed ``run`` call or one
        :meth:`warm_many` call, until its ``close()``: a restore,
        :meth:`reset` or :meth:`reset_stats` replaces the tables and
        counters it holds.
        """
        predictor = self.predictor
        bim_table = predictor.bimodal.table
        bim_counters, bim_mask = bim_table.counters, bim_table.mask
        gsh = predictor.gshare
        gsh_counters, gsh_mask = gsh.table.counters, gsh.table.mask
        history, history_mask = gsh.history, gsh.history_mask
        meta_table = predictor.meta
        meta_counters, meta_mask = meta_table.counters, meta_table.mask
        taken_at = bim_table.TAKEN_THRESHOLD
        max_value = bim_table.MAX_VALUE
        btb = self.btb
        btb_sets, btb_nsets, btb_assoc = btb._sets, btb.num_sets, btb.assoc
        ras_stack, ras_entries = self.ras._stack, self.ras.entries
        branches = mispredictions = lookups = hits = 0

        def resolve(pc, kind, taken, target):
            nonlocal history, branches, mispredictions, lookups, hits
            branches += 1
            if kind == 0:
                bim_index = pc & bim_mask
                gsh_index = (pc ^ history) & gsh_mask
                bim_pred = bim_counters[bim_index] >= taken_at
                gsh_pred = gsh_counters[gsh_index] >= taken_at
                meta_index = pc & meta_mask
                value = meta_counters[meta_index]
                probe = gsh_pred if value >= taken_at else bim_pred
                # CombinedPredictor.update(pc, taken)
                if bim_pred != gsh_pred:
                    if gsh_pred == taken:
                        if value < max_value:
                            meta_counters[meta_index] = value + 1
                    elif value > 0:
                        meta_counters[meta_index] = value - 1
                value = bim_counters[bim_index]
                if taken:
                    if value < max_value:
                        bim_counters[bim_index] = value + 1
                    value = gsh_counters[gsh_index]
                    if value < max_value:
                        gsh_counters[gsh_index] = value + 1
                    history = ((history << 1) | 1) & history_mask
                else:
                    if value > 0:
                        bim_counters[bim_index] = value - 1
                    value = gsh_counters[gsh_index]
                    if value > 0:
                        gsh_counters[gsh_index] = value - 1
                    history = (history << 1) & history_mask
                    if probe:
                        # Predicted taken: the probe moves a hit to MRU.
                        lookups += 1
                        btb_set = btb_sets[pc % btb_nsets]
                        tag = pc // btb_nsets
                        if btb_set and btb_set[-1][0] == tag:
                            hits += 1
                        else:
                            for entry in btb_set:
                                if entry[0] == tag:
                                    hits += 1
                                    btb_set.remove(entry)
                                    btb_set.append(entry)
                                    break
                    mispredictions += probe
                    return probe
                if not probe:  # taken, predicted not taken: install only
                    mispredicted = True
                    probe = None
            elif kind == 2:  # JR: the RAS predicts; the BTB only on underflow
                if ras_stack:
                    predicted = ras_stack.pop()
                    mispredicted = predicted != target
                    probe = None
                else:
                    probe = True
            else:  # JAL, JUMP
                if kind == 1:
                    if len(ras_stack) >= ras_entries:
                        ras_stack.pop(0)
                    ras_stack.append(pc + 1)
                probe = True

            # A taken branch: probe the BTB if predicting through it, then
            # install or refresh its target (already MRU after a probe hit).
            btb_set = btb_sets[pc % btb_nsets]
            tag = pc // btb_nsets
            if btb_set and btb_set[-1][0] == tag:
                entry = btb_set[-1]
            else:
                for entry in btb_set:
                    if entry[0] == tag:
                        btb_set.remove(entry)
                        btb_set.append(entry)
                        break
                else:
                    entry = None
            if probe:
                lookups += 1
                if entry is None:
                    mispredicted = True
                else:
                    hits += 1
                    mispredicted = entry[1] != target
            if entry is None:
                if len(btb_set) >= btb_assoc:
                    btb_set.pop(0)
                btb_set.append([tag, target])
            else:
                entry[1] = target
            if mispredicted:
                mispredictions += 1
            return mispredicted

        def close():
            gsh.history = history
            btb.lookups += lookups
            btb.hits += hits
            self.branches += branches
            self.mispredictions += mispredictions

        return resolve, close

    # ------------------------------------------------------------------
    # Functional-warming interface
    # ------------------------------------------------------------------
    def warm(self, dyn: DynInst) -> None:
        """Train predictor structures without recording predictions.

        Used during functional warming so the direction tables, global
        history, BTB and RAS track the full instruction stream between
        sampling units.

        Warming applies the exact state mutations :meth:`resolve` would:
        for a conditional branch the detailed path consults the BTB only
        when the direction predictor says "taken", and that lookup moves
        the entry to the MRU position of its set.  Mirroring the lookup
        here keeps the BTB's recency order identical whether a stretch of
        the stream was functionally warmed or simulated in detail — the
        property the checkpoint subsystem relies on to restore
        bit-identical warm state.  (Every other ``resolve`` lookup is
        immediately followed by an ``update`` of the same entry, which
        masks the recency effect, so no mirroring is needed there.)
        """
        pc = dyn.pc
        op = dyn.op
        if dyn.is_conditional:
            if self.predictor.predict(pc):
                self.btb.lookup(pc)
            self.predictor.update(pc, dyn.taken)
        elif op == Opcode.JAL:
            self.ras.push(pc + 1)
        elif op == Opcode.JR:
            self.ras.pop()
        if dyn.taken:
            self.btb.update(pc, dyn.next_pc)

    def warm_many(self, events: list[int]) -> None:
        """Bulk :meth:`warm`: replay a stream of branch outcomes.

        ``events`` holds four ints per branch — ``kind, pc, taken,
        target`` in the :func:`branch_kind` encoding (JAL, JR and JUMP
        always taken), as the trace-compiled engine emits them.  It
        leaves exactly the state and BTB statistics of :meth:`warm` per
        branch: conditional branches run through one :meth:`bind`
        kernel, JAL/JR/JUMP through the RAS and BTB methods (which count
        no lookup, as :meth:`warm` does), and the kernel's branch and
        misprediction counts are dropped.

        Once ``history_bits + 3`` identical conditional events have run
        back to back, the rest of the run changes nothing: history is
        fixed, so three updates have saturated both counters at fixed
        indices, the meta table is not trained while they agree, and a
        taken entry is MRU.  Such a repeat only counts its BTB lookup and
        hit, if taken.  The rule reads no state, so it holds in any call.
        """
        resolve, close = self.bind()
        push, pop, update = self.ras.push, self.ras.pop, self.btb.update
        steady = self.predictor.gshare.history_bits + 3
        last_pc = last_taken = last_target = -1
        run = skipped = 0
        stream = iter(events)
        for kind, pc, taken, target in zip(stream, stream, stream, stream):
            if kind:
                last_pc = -1
                if kind == 1:
                    push(pc + 1)
                elif kind == 2:
                    pop()
                update(pc, target)
                continue
            if pc == last_pc and taken == last_taken and target == last_target:
                if run >= steady:
                    skipped += taken
                    continue
                run += 1
            else:
                last_pc, last_taken, last_target = pc, taken, target
                run = 1
            resolve(pc, 0, taken, target)
        branches, mispredictions = self.branches, self.mispredictions
        close()
        self.branches, self.mispredictions = branches, mispredictions
        self.btb.lookups += skipped
        self.btb.hits += skipped

    # ------------------------------------------------------------------
    # Statistics / state management
    # ------------------------------------------------------------------
    @property
    def misprediction_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.mispredictions / self.branches

    def reset(self) -> None:
        self.predictor.reset()
        self.btb.reset()
        self.ras.reset()
        self.branches = 0
        self.mispredictions = 0

    def reset_stats(self) -> None:
        self.predictor.reset_stats()
        self.branches = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def warm_state(self) -> dict:
        """Serializable copy of all prediction state (not statistics)."""
        return {
            "predictor": self.predictor.warm_state(),
            "btb": self.btb.warm_state(),
            "ras": self.ras.warm_state(),
        }

    def restore_warm_state(self, saved: dict) -> None:
        """Restore prediction state; accuracy counters are untouched."""
        self.predictor.restore_warm_state(saved["predictor"])
        self.btb.restore_warm_state(saved["btb"])
        self.ras.restore_warm_state(saved["ras"])
