"""Fast-path kernel for timestamp LRU.

Replays :class:`~repro.policies.lru.LRUPolicy` exactly: per-set logical
clock, per-way timestamps, first-minimum victim selection.  Not valid for
``MRUPolicy`` (different victim rule), which therefore stays on the
reference engine.

The batch executor replaces the per-access ``row.index(tag)`` probe with
one block-map dict lookup and keeps the statistic counters in locals,
folded into the kernel's deltas at the end of every chunk; one loop
serves the I-cache stream and the fused BTB stream.
"""

from __future__ import annotations

from repro.cache.set_assoc import _INVALID_TAG
from repro.kernel.base import FILL, HIT, StreamKernel, batch_kernel
from repro.policies.lru import LRUPolicy

__all__ = ["LRUKernel"]


@batch_kernel(LRUPolicy)
class LRUKernel(StreamKernel):
    """LRU on aliased timestamp rows; never bypasses, never predicts dead."""

    def __init__(self, cache, policy: LRUPolicy):
        super().__init__(cache)
        self.policy = policy
        self._last_use = policy._last_use
        self._clock = policy._clock

    def state_digest(self) -> dict:
        return {
            **self._base_digest(),
            "last_use": self._last_use,
            "clock": self._clock,
        }

    def access(self, block: int, pc: int) -> int:
        set_index = (block >> self._offset_bits) & self._index_mask
        tag = block >> self._tag_shift
        row = self._tags[set_index]
        clock = self._clock
        try:
            way = row.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            self._d_hits += 1
            tick = clock[set_index] + 1
            clock[set_index] = tick
            self._last_use[set_index][way] = tick
            self.set_index = set_index
            self.way = way
            if self._obs_on:
                self.obs.inc(self._m_hits)
            return HIT

        # Miss: fill the first invalid way, else evict the LRU way.
        try:
            way = row.index(_INVALID_TAG)
        except ValueError:
            recency = self._last_use[set_index]
            way = recency.index(min(recency))
            self._d_evictions += 1
            if self._obs_on:
                self._emit_eviction(set_index, way, row, block, pc)
        row[way] = tag
        self._d_misses += 1
        tick = clock[set_index] + 1
        clock[set_index] = tick
        self._last_use[set_index][way] = tick
        self.set_index = set_index
        self.way = way
        if self._obs_on:
            self.obs.inc(self._m_misses)
        return FILL

    # ------------------------------------------------------------------
    # Batch executor (I-cache and fused BTB streams)
    # ------------------------------------------------------------------
    def _stream_window(self, blocks, sets, tags, ends, targets, btarget, wrapper):
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        cursor = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor
            end = ends[hi - 1] if hi > 0 else 0
            i = start = cursor
            if i >= end:
                return
            bmget = bm.get
            misses = evictions = target_misp = 0
            set_index = way = 0
            while i < end:
                block = blocks[i]
                set_index = sets[i]
                way = bmget(block, -1)
                if way >= 0:
                    if targets is not None:
                        trow = targets[set_index]
                        if trow[way] != btarget[i]:
                            target_misp += 1
                            trow[way] = btarget[i]
                else:
                    row = rows[set_index]
                    if _INVALID_TAG in row:
                        way = row.index(_INVALID_TAG)
                    else:
                        recency = last_use[set_index]
                        way = recency.index(min(recency))
                        evictions += 1
                        del bm[(row[way] << tag_shift) | (set_index << offset_bits)]
                    row[way] = tags[i]
                    bm[block] = way
                    misses += 1
                    if targets is not None:
                        targets[set_index][way] = btarget[i]
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][way] = tick
                i += 1
            cursor = end
            self._end_span(
                end - start, misses, evictions, set_index, way, wrapper, target_misp
            )

        return span, None
