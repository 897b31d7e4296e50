"""Block-based D-VTAGE (papers §II-§III combined).

The predictor is keyed on the fetch-block PC.  Per block entry it holds
``npred`` prediction slots:

* the **LVT** (direct-mapped, 5-bit block tags) stores ``npred`` retired
  last values and the per-slot byte-index tags used for attribution;
* **VT0** (the base stride component) stores ``npred`` strides with their
  FPC confidence;
* six partially tagged components store ``npred`` strides + FPC per slot,
  a 13..18-bit block tag and one per-block usefulness bit, indexed VTAGE
  style by block PC and folded global branch/path history.

``read`` performs the fetch-time table reads and provider selection;
composing predictions (last value + stride per slot) is left to the caller
because the last values may come from the speculative window rather than the
LVT.  ``update`` implements the block-based training of §III-D-b: byte tags
evolve under the monotonic rule, the provider's per-slot strides/confidence
train on the retired results, and on any wrong slot a new tagged entry is
allocated with the provider's confidence counters *propagated* so the
correct slots of the block keep their coverage.

Table state lives in :mod:`repro.common.tables` banks with *vector*
fields: the per-slot arrays (last values, byte tags, strides, confidence)
are ``width == npred`` columns addressed ``entry * npred + slot``, and the
tagged components share one flat bank addressed
``comp * tagged_entries + index``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import mask, to_signed, to_unsigned
from repro.common.rng import XorShift64
from repro.common.errors import (
    ConfigError,
    require_positive,
    require_power_of_two,
)
from repro.common.tables import Field, TableBank
from repro.predictors.base import (
    HistoryState,
    table_index,
    tagged_index,
    tagged_tag,
)
from repro.predictors.confidence import FPCPolicy
from repro.predictors.vtage import geometric_history_lengths
from repro.bebop.attribution import FREE_TAG, update_tag_assignment


@dataclass(frozen=True)
class BlockDVTAGEConfig:
    """Geometry of a block-based D-VTAGE (Table III rows are instances)."""

    npred: int = 6
    base_entries: int = 2048        # LVT + VT0 entries
    tagged_entries: int = 256       # per tagged component
    components: int = 6
    first_tag_bits: int = 13
    lvt_tag_bits: int = 5
    byte_tag_bits: int = 4          # log2(16-byte fetch block)
    stride_bits: int = 64
    min_history: int = 2
    max_history: int = 64
    useful_reset_period: int = 8192
    propagate_confidence: bool = True
    #: §II-B1's "greater tag never replaces a lesser" rule; False is the
    #: always-overwrite ablation (DESIGN.md §7).
    monotonic_byte_tags: bool = True

    def __post_init__(self) -> None:
        """Reject impossible geometries, listing every violation at once
        (one :class:`~repro.common.errors.ConfigError`, same contract
        as :class:`~repro.pipeline.config.CoreConfig`)."""
        violations: list[str] = []
        require_positive(
            violations, self,
            "npred", "base_entries", "tagged_entries", "components",
            "first_tag_bits", "lvt_tag_bits", "byte_tag_bits",
            "stride_bits", "min_history", "max_history",
            "useful_reset_period",
        )
        require_power_of_two(violations, self, "base_entries",
                             "tagged_entries")
        if self.stride_bits > 64:
            violations.append(
                f"stride_bits must be <= 64, got {self.stride_bits}"
            )
        if 0 < self.max_history <= self.min_history:
            violations.append(
                f"min_history ({self.min_history}) must be smaller than "
                f"max_history ({self.max_history})"
            )
        if violations:
            raise ConfigError("BlockDVTAGEConfig", violations)


class BlockReadout:
    """Everything the fetch-time read produced, kept for update time."""

    __slots__ = (
        "block_pc",
        "hist",
        "lvt_index",
        "lvt_tag",
        "lvt_hit",
        "lvt_last",
        "byte_tags",
        "provider",         # 0 = VT0, i+1 = tagged component i
        "provider_index",   # VT0 entry, or flat index into the tagged bank
        "provider_tag",
        "strides",          # provider strides (raw stored form)
        "conf",             # provider confidence levels at read time
        "alt_strides",
        "last_used",        # last values the adders consumed (may be spec)
        "values",           # composed predictions, filled by compose()
    )

    def __init__(self) -> None:
        self.values: list[int] = []
        self.last_used: list[int] = []


def dvtage_bank_fields(
    npred: int,
) -> tuple[tuple[Field, ...], tuple[Field, ...], tuple[Field, ...]]:
    """(lvt, vt0, tagged) field declarations for an ``npred``-wide D-VTAGE.

    The single source of truth for the predictor's bank layout — the
    batched sweep engine allocates each variant's banks from the same
    declarations, so they are indistinguishable from the banks a scalar
    predictor would build.
    """
    lvt = (
        Field("tag", default=-1),
        Field("last", width=npred, unsigned=True),
        Field("byte_tags", default=FREE_TAG, width=npred),
    )
    vt0 = (
        Field("strides", width=npred, unsigned=True),
        Field("conf", width=npred),
    )
    tagged = (
        Field("tag", default=-1),
        Field("strides", width=npred, unsigned=True),
        Field("conf", width=npred),
        Field("useful"),
        # Generation the useful bit was last written in; a stale
        # generation reads as useful == 0 (O(1) periodic reset).
        Field("useful_gen"),
    )
    return lvt, vt0, tagged


class BlockDVTAGE:
    """The block-based Differential VTAGE predictor."""

    def __init__(
        self,
        config: BlockDVTAGEConfig | None = None,
        fpc: FPCPolicy | None = None,
        seed: int = 0xBEB0,
    ) -> None:
        self.config = config if config is not None else BlockDVTAGEConfig()
        c = self.config
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self.base_index_bits = c.base_entries.bit_length() - 1
        self.tagged_index_bits = c.tagged_entries.bit_length() - 1
        self.tag_bits = tuple(c.first_tag_bits + i for i in range(c.components))
        self.history_lengths = geometric_history_lengths(
            c.components, c.min_history, c.max_history
        )
        lvt_fields, vt0_fields, tagged_fields = dvtage_bank_fields(c.npred)
        self._lvt = TableBank(c.base_entries, lvt_fields)
        self._vt0 = TableBank(c.base_entries, vt0_fields)
        self._tagged = TableBank(c.components * c.tagged_entries, tagged_fields)
        self._l_tag = self._lvt.col("tag")
        self._l_last = self._lvt.col("last")
        self._v_strides = self._vt0.col("strides")
        self._v_conf = self._vt0.col("conf")
        self._t_tag = self._tagged.col("tag")
        self._t_strides = self._tagged.col("strides")
        self._t_conf = self._tagged.col("conf")
        self._t_useful = self._tagged.col("useful")
        self._t_ugen = self._tagged.col("useful_gen")
        self._rng = XorShift64(seed)
        self._updates_since_reset = 0
        self._useful_gen = 0

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) for the pipeline's folded-history set."""
        idx = tuple(
            (length, self.tagged_index_bits) for length in self.history_lengths
        )
        tag = tuple(zip(self.history_lengths, self.tag_bits))
        return idx, tag

    # -- indexing ------------------------------------------------------------

    @staticmethod
    def _key(block_pc: int) -> int:
        return block_pc >> 4

    def _lvt_slot(self, key: int) -> tuple[int, int]:
        index = table_index(key, self.base_index_bits)
        tag = (key >> self.base_index_bits) & mask(self.config.lvt_tag_bits)
        return index, tag

    def _component_slot(
        self, comp: int, key: int, hist: HistoryState
    ) -> tuple[int, int]:
        """(flat index into the tagged bank, tag)."""
        length = self.history_lengths[comp]
        index = tagged_index(key, hist, length, self.tagged_index_bits)
        tag = tagged_tag(key, hist, length, self.tag_bits[comp])
        return comp * self.config.tagged_entries + index, tag

    def _stride_value(self, stored: int) -> int:
        return to_signed(stored, self.config.stride_bits)

    def _truncate(self, stride: int) -> int:
        return to_unsigned(to_signed(stride, self.config.stride_bits),
                           self.config.stride_bits)

    # -- fetch-time read -----------------------------------------------------

    def read(self, block_pc: int, hist: HistoryState) -> BlockReadout:
        """Read LVT and stride components for a fetch block."""
        key = self._key(block_pc)
        c = self.config
        out = BlockReadout()
        out.block_pc = block_pc
        out.hist = hist
        lvt_index, lvt_tag = self._lvt_slot(key)
        out.lvt_index = lvt_index
        out.lvt_tag = lvt_tag
        out.lvt_hit = bool(self._l_tag[lvt_index] == lvt_tag)
        if out.lvt_hit:
            out.lvt_last = self._lvt.read_vec("last", lvt_index)
            out.byte_tags = self._lvt.read_vec("byte_tags", lvt_index)
        else:
            out.lvt_last = [0] * c.npred
            out.byte_tags = [FREE_TAG] * c.npred
        hits: list[tuple[int, int, int]] = []
        t_tag = self._t_tag
        for comp in range(c.components):
            index, tag = self._component_slot(comp, key, hist)
            if t_tag[index] == tag:
                hits.append((comp, index, tag))
        if hits:
            comp, index, tag = hits[-1]
            out.provider = comp + 1
            out.provider_index = index
            out.provider_tag = tag
            out.strides = self._tagged.read_vec("strides", index)
            out.conf = self._tagged.read_vec("conf", index)
            if len(hits) > 1:
                _alt_comp, alt_index, _ = hits[-2]
                out.alt_strides = self._tagged.read_vec("strides", alt_index)
            else:
                out.alt_strides = self._vt0.read_vec(
                    "strides", table_index(key, self.base_index_bits)
                )
        else:
            index = table_index(key, self.base_index_bits)
            out.provider = 0
            out.provider_index = index
            out.provider_tag = 0
            out.strides = self._vt0.read_vec("strides", index)
            out.conf = self._vt0.read_vec("conf", index)
            out.alt_strides = list(out.strides)
        return out

    def compose(self, readout: BlockReadout, last_values: list[int]) -> list[int]:
        """Predictions = last values (LVT or speculative window) + strides."""
        readout.last_used = list(last_values)
        readout.values = [
            to_unsigned(last_values[m] + self._stride_value(readout.strides[m]), 64)
            for m in range(self.config.npred)
        ]
        return readout.values

    def is_confident(self, readout: BlockReadout, slot: int) -> bool:
        return self.fpc.is_confident(readout.conf[slot])

    # -- retire-time update ---------------------------------------------------

    def update(
        self,
        readout: BlockReadout,
        retired: list[tuple[int, int]],
    ) -> dict[int, int]:
        """Train the predictor with a retired block.

        ``retired`` holds ``(boundary, actual_value)`` for every VP-eligible
        result-producing µ-op of the block instance, in retire order.
        Returns the per-slot actual values (slot -> value), which the engine
        uses to correct the retired instance's speculative-window entry.
        """
        if not retired:
            return {}
        c = self.config
        npred = c.npred
        key = self._key(readout.block_pc)
        lvt_index, lvt_tag = self._lvt_slot(key)
        lvt_base = lvt_index * npred
        fresh = bool(self._l_tag[lvt_index] != lvt_tag)
        boundaries = [boundary for boundary, _ in retired]
        byte_tags = self._lvt.read_vec("byte_tags", lvt_index)
        assignment, new_tags = update_tag_assignment(
            byte_tags if not fresh else [FREE_TAG] * npred,
            boundaries,
            fresh_allocation=fresh,
            monotonic=c.monotonic_byte_tags,
        )
        retagged = [
            s
            for s in range(npred)
            if not fresh and new_tags[s] != byte_tags[s]
        ]

        # Locate the provider entry (it may have been reallocated since the
        # read; in that case only the LVT is trained).
        if readout.provider == 0:
            provider_live = True
            p_strides, p_conf = self._v_strides, self._v_conf
        else:
            provider_live = bool(
                self._t_tag[readout.provider_index] == readout.provider_tag
            )
            p_strides, p_conf = self._t_strides, self._t_conf
        p_base = readout.provider_index * npred

        l_last = self._l_last
        any_wrong = False
        any_useful = False
        observed: dict[int, int] = {}
        slot_actuals: dict[int, int] = {}
        correct_slots: set[int] = set()
        for (boundary, actual), slot in zip(retired, assignment):
            if slot is None:
                continue  # more results than prediction slots: coverage lost
            slot_actuals[slot] = actual
            prev_last = l_last[lvt_base + slot]
            observed[slot] = self._truncate(actual - prev_last)
            predicted = readout.values[slot] if readout.values else None
            correct = (not fresh) and predicted is not None and predicted == actual
            if correct:
                correct_slots.add(slot)
                if readout.alt_strides[slot] != readout.strides[slot]:
                    any_useful = True
            else:
                any_wrong = True
            if fresh:
                # First contact with this block: install the last values
                # below; there is no meaningful stride to train yet.
                l_last[lvt_base + slot] = actual
                continue
            if provider_live and slot not in retagged:
                if correct:
                    p_conf[p_base + slot] = self.fpc.advance(
                        p_conf[p_base + slot]
                    )
                else:
                    p_conf[p_base + slot] = self.fpc.reset_level()
                    p_strides[p_base + slot] = observed[slot]
            elif provider_live:
                # The slot now belongs to a different instruction: retrain.
                p_conf[p_base + slot] = self.fpc.reset_level()
                p_strides[p_base + slot] = observed[slot]
            l_last[lvt_base + slot] = actual

        # Per-block usefulness (§III-D-b): one bit for the whole entry.
        if provider_live and readout.provider > 0:
            if any_wrong:
                self._t_useful[readout.provider_index] = 0
                self._t_ugen[readout.provider_index] = self._useful_gen
            elif any_useful:
                self._t_useful[readout.provider_index] = 1
                self._t_ugen[readout.provider_index] = self._useful_gen

        self._l_tag[lvt_index] = lvt_tag
        self._lvt.write_vec("byte_tags", lvt_index, new_tags)

        if any_wrong and not fresh:
            self._allocate(key, readout, observed, correct_slots)
        self._tick_useful_reset()
        return slot_actuals

    def _allocate(
        self,
        key: int,
        readout: BlockReadout,
        observed: dict[int, int],
        correct_slots: set[int],
    ) -> None:
        """Allocate a longer-history entry, propagating confidence
        (§III-D-b): correct slots keep the provider's counters and strides,
        wrong slots get the observed stride with reset confidence."""
        c = self.config
        gen = self._useful_gen
        t_useful, t_ugen = self._t_useful, self._t_ugen
        candidates = []
        slots = []
        for comp in range(readout.provider, c.components):
            index, tag = self._component_slot(comp, key, readout.hist)
            slots.append((comp, index, tag))
            if t_useful[index] == 0 or t_ugen[index] != gen:
                candidates.append((comp, index, tag))
        if not candidates:
            for _comp, index, _tag in slots:
                t_useful[index] = 0
                t_ugen[index] = gen
            return
        _comp, index, tag = candidates[self._rng.next_below(len(candidates))]
        self._t_tag[index] = tag
        t_useful[index] = 0
        t_ugen[index] = gen
        base = index * c.npred
        t_strides, t_conf = self._t_strides, self._t_conf
        for m in range(c.npred):
            if m in correct_slots:
                t_strides[base + m] = readout.strides[m]
                t_conf[base + m] = (
                    readout.conf[m] if c.propagate_confidence else 0
                )
            elif m in observed:
                t_strides[base + m] = observed[m]
                t_conf[base + m] = 0
            else:
                # Slot not exercised by this instance: inherit the provider.
                t_strides[base + m] = readout.strides[m]
                t_conf[base + m] = (
                    readout.conf[m] if c.propagate_confidence else 0
                )

    def _tick_useful_reset(self) -> None:
        # O(1) periodic reset: bumping the generation makes every entry's
        # stale useful bit read as 0 without walking the tables.
        self._updates_since_reset += 1
        if self._updates_since_reset >= self.config.useful_reset_period:
            self._updates_since_reset = 0
            self._useful_gen += 1

    # -- reporting -------------------------------------------------------------

    def _current_useful_gen(self) -> int:
        return self._useful_gen

    def table_banks(self) -> tuple[dict, ...]:
        """Bank descriptions for :class:`repro.obs.BankTelemetry`
        (kwargs dicts its ``register()`` accepts): the LVT, the VT-0 base
        component, and the flat tagged bank sliced per component, with
        useful-bit mass gated by the live generation counter."""
        return (
            {
                "name": "lvt",
                "bank": self._lvt,
                "tag_field": "tag",
                "tag_invalid": -1,
            },
            {"name": "vt0", "bank": self._vt0},
            {
                "name": "tagged",
                "bank": self._tagged,
                "components": self.config.components,
                "tag_field": "tag",
                "tag_invalid": -1,
                "useful_field": "useful",
                "useful_gen_field": "useful_gen",
                "gen": self._current_useful_gen,
            },
        )

    def storage_bits(self) -> int:
        """Bit-exact Table III accounting (without the speculative window —
        see :meth:`repro.bebop.spec_window.SpeculativeWindow.storage_bits`)."""
        c = self.config
        lvt_entry = c.npred * (64 + c.byte_tag_bits) + c.lvt_tag_bits
        vt0_entry = c.npred * (c.stride_bits + self.fpc.bits)
        bits = c.base_entries * (lvt_entry + vt0_entry)
        for comp in range(c.components):
            tagged_entry = (
                c.npred * (c.stride_bits + self.fpc.bits)
                + self.tag_bits[comp]
                + 1
            )
            bits += c.tagged_entries * tagged_entry
        return bits
