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
        for returns), then training with the resolved outcome.  The
        combined predictor's predict-and-train of a conditional branch
        is inlined (tables hoisted into locals) because the detailed
        timing model calls this once per simulated branch.

        This per-structure path is the specification the detailed timing
        model's :meth:`bind` kernel is tested against.  A kernel is valid
        for one ``run`` call only: a restore, :meth:`reset` or
        :meth:`reset_stats` replaces the tables and counters it holds.
        """
        btb = self.btb
        if kind == 0:
            predictor = self.predictor
            bim = predictor.bimodal.table
            bim_counters = bim.counters
            bim_index = pc & bim.mask
            gsh = predictor.gshare
            gsh_counters = gsh.table.counters
            gsh_index = (pc ^ gsh.history) & gsh.table.mask
            meta = predictor.meta
            taken_at = bim.TAKEN_THRESHOLD
            max_value = bim.MAX_VALUE
            bim_pred = bim_counters[bim_index] >= taken_at
            gsh_pred = gsh_counters[gsh_index] >= taken_at
            meta_index = pc & meta.mask
            use_gshare = meta.counters[meta_index] >= taken_at
            predicted_taken = gsh_pred if use_gshare else bim_pred
            predicted_target = btb.lookup(pc) if predicted_taken else pc + 1
            # CombinedPredictor.update(pc, taken)
            if bim_pred != gsh_pred:
                value = meta.counters[meta_index]
                if gsh_pred == taken:
                    if value < max_value:
                        meta.counters[meta_index] = value + 1
                elif value > 0:
                    meta.counters[meta_index] = value - 1
            value = bim_counters[bim_index]
            if taken:
                if value < max_value:
                    bim_counters[bim_index] = value + 1
            elif value > 0:
                bim_counters[bim_index] = value - 1
            value = gsh_counters[gsh_index]
            if taken:
                if value < max_value:
                    gsh_counters[gsh_index] = value + 1
            elif value > 0:
                gsh_counters[gsh_index] = value - 1
            gsh.history = ((gsh.history << 1) | bool(taken)) & gsh.history_mask
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
        taken, so ``taken`` is only read for a conditional branch.  The
        kernel is valid until ``close()`` within one detailed ``run``
        call: a restore, :meth:`reset` or :meth:`reset_stats` replaces
        the tables and counters it holds.
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
        target`` with kind 0 = conditional, 1 = JAL, 2 = JR, 3 = JUMP
        (the encoding produced by the trace-compiled engine).  The state
        evolution — all three predictor tables, global history, BTB
        recency/contents (including the mirrored predicted-taken
        lookup), RAS, and BTB statistics — is exactly that of calling
        :meth:`warm` per branch; the per-structure logic is inlined with
        tables and masks hoisted into locals because this loop runs once
        per warmed branch.

        A conditional event identical to the previous event of the same
        call changes nothing when that event left history all ones, the
        bimodal and next gshare counters saturated (both predict taken,
        so the meta table is not trained) and its BTB entry MRU with the
        same target (a taken update puts it there) — or, not taken,
        history and both counters zero; such a steady repeat only counts
        its BTB lookup and hit, if taken.  The rule never looks back
        across calls: a detailed run or restore may change the state.
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
        btb_lookups = btb_hits = 0
        ras_stack, ras_entries = self.ras._stack, self.ras.entries

        i = 0
        count = len(events)
        last_pc = last_taken = last_target = -1
        while i < count:
            kind = events[i]
            pc = events[i + 1]
            taken = events[i + 2]
            target = events[i + 3]
            i += 4
            if kind == 0:  # conditional: predict (+BTB lookup), then train
                if (pc == last_pc and taken == last_taken
                        and target == last_target
                        and history == (history_mask if taken else 0)
                        and bim_counters[pc & bim_mask]
                        == gsh_counters[(pc ^ history) & gsh_mask]
                        == (max_value if taken else 0)):
                    # A steady repeat leaves the state as it is, so every
                    # identical event after it is one too.
                    j = i
                    while (j < count and events[j + 1] == pc
                           and events[j] == 0 and events[j + 2] == taken
                           and events[j + 3] == target):
                        j += 4
                    if taken:
                        btb_lookups += (j - i) // 4 + 1
                        btb_hits += (j - i) // 4 + 1
                    i = j
                    continue
                last_pc, last_taken, last_target = pc, taken, target
                gsh_index = (pc ^ history) & gsh_mask
                if meta_counters[pc & meta_mask] >= taken_at:
                    predicted = gsh_counters[gsh_index] >= taken_at
                else:
                    predicted = bim_counters[pc & bim_mask] >= taken_at
                if predicted:
                    btb_set = btb_sets[pc % btb_nsets]
                    tag = pc // btb_nsets
                    btb_lookups += 1
                    for j, entry in enumerate(btb_set):
                        if entry[0] == tag:
                            if j != len(btb_set) - 1:
                                btb_set.append(btb_set.pop(j))
                            btb_hits += 1
                            break
                # CombinedPredictor.update(pc, taken)
                bim_index = pc & bim_mask
                bim_pred = bim_counters[bim_index] >= taken_at
                gsh_pred = gsh_counters[gsh_index] >= taken_at
                if bim_pred != gsh_pred:
                    meta_index = pc & meta_mask
                    value = meta_counters[meta_index]
                    if gsh_pred == taken:
                        if value < max_value:
                            meta_counters[meta_index] = value + 1
                    elif value > 0:
                        meta_counters[meta_index] = value - 1
                value = bim_counters[bim_index]
                if taken:
                    if value < max_value:
                        bim_counters[bim_index] = value + 1
                elif value > 0:
                    bim_counters[bim_index] = value - 1
                value = gsh_counters[gsh_index]
                if taken:
                    if value < max_value:
                        gsh_counters[gsh_index] = value + 1
                elif value > 0:
                    gsh_counters[gsh_index] = value - 1
                history = ((history << 1) | taken) & history_mask
            else:
                last_pc = -1
                if kind == 1:  # JAL: push the return address
                    if len(ras_stack) >= ras_entries:
                        ras_stack.pop(0)
                    ras_stack.append(pc + 1)
                elif kind == 2:  # JR: consume the predicted return
                    if ras_stack:
                        ras_stack.pop()
            if taken:  # every taken branch installs/refreshes its target
                btb_set = btb_sets[pc % btb_nsets]
                tag = pc // btb_nsets
                for j, entry in enumerate(btb_set):
                    if entry[0] == tag:
                        entry[1] = target
                        if j != len(btb_set) - 1:
                            btb_set.append(btb_set.pop(j))
                        break
                else:
                    if len(btb_set) >= btb_assoc:
                        btb_set.pop(0)
                    btb_set.append([tag, target])

        gsh.history = history
        btb.lookups += btb_lookups
        btb.hits += btb_hits

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
