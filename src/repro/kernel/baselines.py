"""Fast-path kernels for the paper's non-predictive baselines: Random and SRRIP.

- :class:`RandomKernel` replays :class:`~repro.policies.random_policy.
  RandomPolicy`: a full-set miss evicts ``policy._rng.randrange(ways)``.
  The kernel draws from the policy's own :class:`~repro.util.rng.
  DeterministicRng` with the same call, so it consumes exactly the bits
  the reference does (``randrange`` rejection-samples, so the number of
  bits per draw varies).  Each structure owns its RNG, so running the
  I-cache and BTB streams chunk by chunk keeps both draw sequences intact.
- :class:`SRRIPKernel` replays :class:`~repro.policies.srrip.SRRIPPolicy`
  on the policy's aliased RRPV rows: a hit sets RRPV 0, a fill sets
  ``rrpv_max - 1``, the victim is the first way at ``rrpv_max`` after
  aging the set.  BRRIP and DRRIP subclass SRRIP with different fills;
  registration is by exact class, so they stay on the reference engine.

Both keep the scalar ``access`` path (wrong-path fetch, sentinel
bisection, fault injection) and one window loop that serves the I-cache
and the fused BTB stream (:class:`~repro.kernel.base.StreamKernel`).
"""

from __future__ import annotations

from repro.cache.set_assoc import _INVALID_TAG
from repro.kernel.base import FILL, HIT, StreamKernel, batch_kernel
from repro.policies.random_policy import RandomPolicy
from repro.policies.srrip import SRRIPPolicy

__all__ = ["RandomKernel", "SRRIPKernel"]


def _srrip_victim(rrpvs: list[int], rrpv_max: int) -> int:
    """``SRRIPPolicy.select_victim`` on one aliased RRPV row.

    The reference ages every way by one (saturating) until some way is
    distant.  With no way distant every value is below ``rrpv_max``, so
    it ages exactly ``rrpv_max - max(rrpvs)`` times and never saturates:
    one addition per way gives the same row.
    """
    if rrpv_max not in rrpvs:
        age = rrpv_max - max(rrpvs)
        rrpvs[:] = [value + age for value in rrpvs]
    return rrpvs.index(rrpv_max)


@batch_kernel(RandomPolicy)
class RandomKernel(StreamKernel):
    """Random replacement drawing from the policy's own RNG."""

    def __init__(self, cache, policy: RandomPolicy):
        super().__init__(cache)
        self.policy = policy
        self._rng = policy._rng
        self._ways = cache.geometry.associativity

    def state_digest(self) -> dict:
        return {**self._base_digest(), "rng_state": self._rng.getstate()}

    def access(self, block: int, pc: int) -> int:
        set_index = (block >> self._offset_bits) & self._index_mask
        tag = block >> self._tag_shift
        row = self._tags[set_index]
        self.set_index = set_index
        try:
            self.way = row.index(tag)
        except ValueError:
            pass
        else:
            self._d_hits += 1
            if self._obs_on:
                self.obs.inc(self._m_hits)
            return HIT
        if _INVALID_TAG in row:
            way = row.index(_INVALID_TAG)
        else:
            way = self._rng.randrange(self._ways)
            self._d_evictions += 1
            if self._obs_on:
                self._emit_eviction(set_index, way, row, block, pc)
        row[way] = tag
        self._d_misses += 1
        self.way = way
        if self._obs_on:
            self.obs.inc(self._m_misses)
        return FILL

    def _stream_window(self, blocks, sets, tags, ends, targets, btarget, wrapper):
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        randrange = self._rng.randrange
        ways = self._ways
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
                        way = randrange(ways)
                        evictions += 1
                        del bm[(row[way] << tag_shift) | (set_index << offset_bits)]
                    row[way] = tags[i]
                    bm[block] = way
                    misses += 1
                    if targets is not None:
                        targets[set_index][way] = btarget[i]
                i += 1
            cursor = end
            self._end_span(
                end - start, misses, evictions, set_index, way, wrapper, target_misp
            )

        return span, None


@batch_kernel(SRRIPPolicy)
class SRRIPKernel(StreamKernel):
    """SRRIP-HP on the policy's aliased RRPV rows."""

    def __init__(self, cache, policy: SRRIPPolicy):
        super().__init__(cache)
        self.policy = policy
        self._rrpv = policy._rrpv
        self._rrpv_max = policy.rrpv_max

    def state_digest(self) -> dict:
        return {**self._base_digest(), "rrpv": self._rrpv}

    def access(self, block: int, pc: int) -> int:
        set_index = (block >> self._offset_bits) & self._index_mask
        tag = block >> self._tag_shift
        row = self._tags[set_index]
        rrpvs = self._rrpv[set_index]
        self.set_index = set_index
        try:
            way = row.index(tag)
        except ValueError:
            pass
        else:
            rrpvs[way] = 0
            self._d_hits += 1
            self.way = way
            if self._obs_on:
                self.obs.inc(self._m_hits)
            return HIT
        if _INVALID_TAG in row:
            way = row.index(_INVALID_TAG)
        else:
            way = _srrip_victim(rrpvs, self._rrpv_max)
            self._d_evictions += 1
            if self._obs_on:
                self._emit_eviction(set_index, way, row, block, pc)
        row[way] = tag
        rrpvs[way] = self._rrpv_max - 1
        self._d_misses += 1
        self.way = way
        if self._obs_on:
            self.obs.inc(self._m_misses)
        return FILL

    def _stream_window(self, blocks, sets, tags, ends, targets, btarget, wrapper):
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        rrpv = self._rrpv
        rrpv_max = self._rrpv_max
        insert = rrpv_max - 1
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
                    rrpv[set_index][way] = 0
                    if targets is not None:
                        trow = targets[set_index]
                        if trow[way] != btarget[i]:
                            target_misp += 1
                            trow[way] = btarget[i]
                else:
                    row = rows[set_index]
                    rrpvs = rrpv[set_index]
                    if _INVALID_TAG in row:
                        way = row.index(_INVALID_TAG)
                    else:
                        way = _srrip_victim(rrpvs, rrpv_max)
                        evictions += 1
                        del bm[(row[way] << tag_shift) | (set_index << offset_bits)]
                    row[way] = tags[i]
                    rrpvs[way] = insert
                    bm[block] = way
                    misses += 1
                    if targets is not None:
                        targets[set_index][way] = btarget[i]
                i += 1
            cursor = end
            self._end_span(
                end - start, misses, evictions, set_index, way, wrapper, target_misp
            )

        return span, None
