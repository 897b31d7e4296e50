"""Shared front-end precomputation for batched multi-variant sweeps.

All sweep variants in a Fig 6/7 grid consume the same dynamic µ-op
stream, and everything upstream of the value predictor is
variant-independent:

* the fetch-block grouping (``group_block_instances``);
* the folded branch/path history (``FoldedHistorySet`` evolves purely
  from the program-order outcome/target stream);
* BTB redirect detection (lookups/installs happen in program order at
  every taken branch, independent of pipeline timing);
* every table *index* hash — TAGE and D-VTAGE slots are functions of
  (pc/key, folded history at fetch), and the history at any µ-op is
  fixed by the trace.

This module runs that front end exactly once and materialises flat
per-µ-op tuples, per-fetch-group metadata, and the folded-history
*epoch* stream (the history only changes at branches, so each distinct
state gets one epoch id and one captured ``FoldedHistoryState``).
TAGE slots are computed eagerly (every conditional branch needs them);
D-VTAGE slots are memoised lazily per (epoch, block key) through
:class:`DVTAGESlotGeometry` so variants sharing a slot geometry share
the hashing work.

What is *not* shareable: TAGE table contents (training is deferred to
variant-dependent commit cycles), D-VTAGE state, and all pipeline
timing.  Those live in the fused per-variant walk
(:mod:`repro.batch.runner`).
"""

from __future__ import annotations

from typing import Sequence

from repro.branch.btb import BranchTargetBuffer
from repro.common.bits import fold_bits
from repro.common.history import FoldedHistorySet, FoldedHistoryState
from repro.isa.instruction import LatencyClass
from repro.pipeline.core import group_block_instances
from repro.predictors.base import table_index, tagged_index, tagged_tag
from repro.predictors.vtage import geometric_history_lengths
from repro.workloads.trace import Trace

# TAGE geometry mirrors TAGEBranchPredictor defaults (branch/tage.py).
TAGE_COMPONENTS = 12
TAGE_INDEX_BITS = 10
TAGE_ENTRIES = 1 << TAGE_INDEX_BITS
TAGE_BIMODAL_BITS = 12
TAGE_TAG_BITS = tuple(min(8 + i // 2, 15) for i in range(TAGE_COMPONENTS))
TAGE_HISTORY = geometric_history_lengths(TAGE_COMPONENTS, 8, 640)

# Execution-latency constants mirror pipeline/core.py (_LATENCY and the
# eole_4_60 functional-unit pools).
_LATENCY = {
    LatencyClass.ALU: 1,
    LatencyClass.MUL: 3,
    LatencyClass.DIV: 25,
    LatencyClass.FP: 3,
    LatencyClass.FPMUL: 5,
    LatencyClass.FPDIV: 10,
    LatencyClass.BRANCH: 1,
    LatencyClass.NONE: 1,
    LatencyClass.MEM: 1,
}
_POOL = {
    LatencyClass.ALU: 4,
    LatencyClass.BRANCH: 4,
    LatencyClass.NONE: 4,
    LatencyClass.MUL: 1,
    LatencyClass.FP: 2,
    LatencyClass.FPMUL: 2,
}
# Distinct small id per latency class for packed (cycle << 4) | cid
# functional-unit occupancy keys in the fused walk.
_CID = {cls: i for i, cls in enumerate(LatencyClass)}

# lat_kind discriminator in the per-µ-op tuple.
KIND_NORMAL = 0
KIND_DIV = 1
KIND_FPDIV = 2
KIND_MEM = 3

# Per-µ-op tuple field indices (see precompute_front_end).
U_SEQ = 0
U_PC = 1
U_BLOCK_PC = 2
U_BOUNDARY = 3
U_DEST = 4
U_SRCS = 5
U_VALUE = 6
U_IS_LOAD = 7
U_IS_STORE = 8
U_IS_LOAD_IMM = 9
U_MEM_ADDR = 10
U_IS_BRANCH = 11
U_IS_COND = 12
U_TAKEN = 13
U_IS_LAST = 14
U_ELIGIBLE = 15
U_EARLY_OK = 16
U_LAT_KIND = 17
U_CID = 18
U_POOL = 19
U_LAT = 20
U_TAGE = 21
U_BTB_MISS = 22
U_EPOCH = 23


def tage_fold_pairs() -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(index, tag) folded-history register pairs for the default TAGE."""
    idx = tuple((length, TAGE_INDEX_BITS) for length in TAGE_HISTORY)
    tag = tuple(zip(TAGE_HISTORY, TAGE_TAG_BITS))
    return idx, tag


def dvtage_fold_pairs(config) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(index, tag) folded-history register pairs for a BlockDVTAGEConfig."""
    lengths = geometric_history_lengths(
        config.components, config.min_history, config.max_history
    )
    tagged_index_bits = config.tagged_entries.bit_length() - 1
    idx = tuple((length, tagged_index_bits) for length in lengths)
    tag = tuple(
        (length, config.first_tag_bits + i) for i, length in enumerate(lengths)
    )
    return idx, tag


def geometry_key(config) -> tuple:
    """Slot-geometry identity of a BlockDVTAGEConfig (npred-independent)."""
    return (
        config.base_entries,
        config.tagged_entries,
        config.components,
        config.first_tag_bits,
        config.lvt_tag_bits,
        config.min_history,
        config.max_history,
    )


class DVTAGESlotGeometry:
    """Lazy memo of D-VTAGE slots keyed by (history epoch, block key).

    A slot bundle is a flat tuple ``(lvt_index, lvt_tag, idx0, tag0,
    idx1, tag1, ...)`` where component ``c`` reads index ``[2 + 2*c]``
    and tag ``[3 + 2*c]``.  Tagged indices are pre-offset by
    ``c * tagged_entries`` into the flat component bank.  Shared across
    every variant (and every refetch replay) with the same geometry.
    """

    __slots__ = (
        "components",
        "tagged_entries",
        "base_index_bits",
        "tagged_index_bits",
        "lvt_tag_mask",
        "tag_bits",
        "history_lengths",
        "states",
        "_memo",
    )

    def __init__(self, config, states: Sequence[FoldedHistoryState]) -> None:
        self.components = config.components
        self.tagged_entries = config.tagged_entries
        self.base_index_bits = config.base_entries.bit_length() - 1
        self.tagged_index_bits = config.tagged_entries.bit_length() - 1
        self.lvt_tag_mask = (1 << config.lvt_tag_bits) - 1
        self.tag_bits = tuple(
            config.first_tag_bits + i for i in range(config.components)
        )
        self.history_lengths = geometric_history_lengths(
            config.components, config.min_history, config.max_history
        )
        self.states = states
        self._memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def slots(self, epoch: int, key: int) -> tuple[int, ...]:
        memo_key = (epoch, key)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        state = self.states[epoch]
        flat = [
            table_index(key, self.base_index_bits),
            (key >> self.base_index_bits) & self.lvt_tag_mask,
        ]
        entries = self.tagged_entries
        index_bits = self.tagged_index_bits
        for comp, length in enumerate(self.history_lengths):
            flat.append(comp * entries + tagged_index(key, state, length, index_bits))
            flat.append(tagged_tag(key, state, length, self.tag_bits[comp]))
        result = tuple(flat)
        self._memo[memo_key] = result
        return result


class FrontEnd:
    """Precomputed variant-independent streams for one trace."""

    __slots__ = ("trace", "uops", "groups", "group_meta", "states")

    def __init__(
        self,
        trace: Trace,
        uops: list[tuple],
        groups: list[tuple[int, int]],
        group_meta: list[tuple],
        states: list[FoldedHistoryState],
    ) -> None:
        self.trace = trace
        self.uops = uops
        self.groups = groups
        self.group_meta = group_meta
        self.states = states


def precompute_front_end(
    trace: Trace,
    extra_idx_pairs: Sequence[tuple[int, int]] = (),
    extra_tag_pairs: Sequence[tuple[int, int]] = (),
) -> FrontEnd:
    """Run the shared front end once over ``trace``.

    ``extra_*_pairs`` register additional folded-history widths (one
    per distinct D-VTAGE geometry in the batch); FoldedHistorySet
    dedupes per (length, width), so a union registration yields
    bit-identical folds for every consumer.
    """
    tage_idx, tage_tag = tage_fold_pairs()
    hists = FoldedHistorySet(
        640, 64, tage_idx + tuple(extra_idx_pairs), tage_tag + tuple(extra_tag_pairs)
    )
    btb = BranchTargetBuffer()
    source = trace.uops
    states: list[FoldedHistoryState] = []
    uops: list[tuple] = []
    epoch = 0
    bim_mask = (1 << TAGE_BIMODAL_BITS) - 1
    # Memoised PC-only halves of the TAGE hashes (hot branches repeat):
    # tagged_index = pc_idx ^ idx_fold, tagged_tag = pc_tag ^ tag_fold,
    # with the component bank offset added after the XOR (both fold terms
    # stay below the index width, so the offset is unaffected).
    idx_w_mask = TAGE_ENTRIES - 1
    idx_fkeys = tuple(
        (TAGE_HISTORY[c] << 7) | TAGE_INDEX_BITS for c in range(TAGE_COMPONENTS)
    )
    tag_fkeys = tuple(
        (TAGE_HISTORY[c] << 7) | TAGE_TAG_BITS[c] for c in range(TAGE_COMPONENTS)
    )
    comp_base = tuple(c * TAGE_ENTRIES for c in range(TAGE_COMPONENTS))
    pc_parts_memo: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for uop in source:
        if len(states) == epoch:
            states.append(hists.state())
        is_branch = uop.is_branch
        is_cond = uop.is_cond_branch
        taken = uop.branch_taken
        tage = None
        if is_cond:
            state = states[epoch]
            pc = uop.pc
            parts = pc_parts_memo.get(pc)
            if parts is None:
                pc_idx = table_index(pc, TAGE_INDEX_BITS) ^ (
                    (pc >> TAGE_INDEX_BITS) & idx_w_mask
                )
                parts = pc_parts_memo[pc] = (
                    (pc_idx,) * TAGE_COMPONENTS,
                    tuple(
                        fold_bits(pc * 0x9E3779B9, 64, TAGE_TAG_BITS[c])
                        for c in range(TAGE_COMPONENTS)
                    ),
                )
            pc_idxs, pc_tags = parts
            idxf = state.idx_folds
            tagf = state.tag_folds
            flat = []
            for comp in range(TAGE_COMPONENTS):
                flat.append(
                    comp_base[comp] + (pc_idxs[comp] ^ idxf[idx_fkeys[comp]])
                )
                flat.append(pc_tags[comp] ^ tagf[tag_fkeys[comp]])
            tage = ((pc >> 2) & bim_mask, tuple(flat))
        btb_miss = False
        if is_branch and taken:
            target = btb.lookup(uop.pc)
            if target != uop.branch_target:
                btb_miss = True
                btb.install(uop.pc, uop.branch_target)
        lat_class = uop.latency_class
        if lat_class is LatencyClass.DIV:
            lat_kind = KIND_DIV
            pool = 0
        elif lat_class is LatencyClass.FPDIV:
            lat_kind = KIND_FPDIV
            pool = 0
        elif lat_class is LatencyClass.MEM:
            lat_kind = KIND_MEM
            pool = 2 if uop.is_load else 1
        else:
            lat_kind = KIND_NORMAL
            pool = _POOL[lat_class]
        early_ok = (
            (lat_class is LatencyClass.ALU or lat_class is LatencyClass.NONE)
            and not uop.is_load
            and not uop.is_store
        )
        uops.append(
            (
                uop.seq,
                uop.pc,
                uop.block_pc,
                uop.boundary,
                uop.dest,
                uop.srcs,
                uop.value,
                uop.is_load,
                uop.is_store,
                uop.is_load_imm,
                uop.mem_addr,
                is_branch,
                is_cond,
                taken,
                uop.is_last_uop,
                uop.is_vp_eligible,
                early_ok,
                lat_kind,
                _CID[lat_class],
                pool,
                _LATENCY[lat_class],
                tage,
                btb_miss,
                epoch,
            )
        )
        pushed = False
        if is_cond:
            hists.push_outcome(taken)
            pushed = True
        if is_branch and taken:
            hists.push_path(uop.branch_target)
            pushed = True
        if pushed:
            epoch += 1
    groups = group_block_instances(source)
    group_meta: list[tuple] = []
    wtag_memo: dict[int, int] = {}
    for start, end in groups:
        block_pc = source[start].block_pc
        wtag = wtag_memo.get(block_pc)
        if wtag is None:
            wtag = wtag_memo[block_pc] = fold_bits(block_pc >> 4, 60, 15)
        elig = tuple(
            (i - start, uops[i][U_BOUNDARY])
            for i in range(start, end)
            if uops[i][U_ELIGIBLE]
        )
        boundaries = tuple(b for _, b in elig)
        group_meta.append((wtag, block_pc >> 4, elig, boundaries))
    return FrontEnd(trace, uops, groups, group_meta, states)
