"""The ``BatchKernel`` protocol, registry, and base cache/BTB kernels.

A *kernel* replays one replacement policy's event protocol (hit / bypass /
victim / evict / fill) against the reference cache's own state arrays.
Kernels implement the declarative :class:`BatchKernel` protocol:

- :meth:`~BatchKernel.tokenize_requirements` names the token streams the
  kernel consumes (see :mod:`repro.kernel.tokenizer`);
- :meth:`~BatchKernel.begin_window` binds the kernel to one tokenized
  window and returns the chunk executor :meth:`~BatchKernel.run_chunk`
  drives;
- :meth:`~BatchKernel.sync` flushes delta counters and window-local
  scalar state back into the reference objects (idempotent, called at
  every chunk barrier);
- :meth:`~BatchKernel.state_digest` exports canonical state for the
  sentinel layer (safe mid-update).

Registering a kernel with :func:`batch_kernel` **is** the fast-path
opt-in: there is no separate ``supports_fast_path`` flag.  Registration
is by **exact** policy class: a subclass with different semantics (e.g.
MRU subclassing LRU) must register its own kernel or fall back to the
reference engine.

Kernels also keep a scalar ``access(block, pc)`` path — the default
chunk executor simply loops it, the sentinel's single-record bisection
windows use it, and fault injection wraps it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

from repro.cache.set_assoc import _INVALID_TAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.btb.btb import BranchTargetBuffer
    from repro.cache.policy_api import ReplacementPolicy
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.core.ghrp import GHRPPredictor
    from repro.kernel.tokenizer import TraceTokens

__all__ = [
    "HIT",
    "FILL",
    "BYPASS",
    "BatchKernel",
    "WindowPlan",
    "CacheKernel",
    "StreamKernel",
    "BTBKernel",
    "KernelContext",
    "batch_kernel",
    "batch_kernel_for",
    "registered_batch_kernels",
]

# access() return codes (int compares are cheaper than enum members).
HIT = 1
FILL = 0
BYPASS = -1

_BATCH_KERNELS: dict[type, type["BatchKernel"]] = {}


def batch_kernel(policy_cls: type):
    """Class decorator registering a :class:`BatchKernel` for one exact
    policy class.  Registration is the *only* fast-path opt-in: a policy
    with a registered kernel batches; one without runs on the reference
    engine.
    """

    def decorate(kernel_cls: type["BatchKernel"]) -> type["BatchKernel"]:
        if policy_cls in _BATCH_KERNELS:
            raise ValueError(
                f"policy {policy_cls.__name__} already has a kernel "
                f"({_BATCH_KERNELS[policy_cls].__name__})"
            )
        _BATCH_KERNELS[policy_cls] = kernel_cls
        kernel_cls.policy_class = policy_cls
        return kernel_cls

    return decorate


def batch_kernel_for(policy: "ReplacementPolicy") -> type["BatchKernel"] | None:
    """The kernel registered for ``policy``'s exact class, or None.

    Deliberately not subclass-aware: a policy subclass may override any
    event callback, which would silently diverge from the parent's kernel.
    """
    return _BATCH_KERNELS.get(type(policy))


def registered_batch_kernels() -> dict[type, type["BatchKernel"]]:
    """A copy of the policy-class → kernel-class registry."""
    return dict(_BATCH_KERNELS)


class WindowPlan:
    """Everything a kernel needs to bind to one tokenized window.

    ``stream`` names the token subsequence this kernel executes over
    (``"icache"`` for the fetch-block stream, ``"btb"`` for taken
    non-return branches).  ``icache_kernel``/``btb_kernel`` carry the
    sibling kernels of the same front end so a coupled pair (GHRP
    Section III-E) can build one fused executor over both structures.
    """

    __slots__ = ("tokens", "stream", "icache_kernel", "btb_kernel")

    def __init__(
        self,
        tokens: "TraceTokens",
        stream: str,
        icache_kernel=None,
        btb_kernel=None,
    ):
        self.tokens = tokens
        self.stream = stream
        self.icache_kernel = icache_kernel
        self.btb_kernel = btb_kernel


class BatchKernel(abc.ABC):
    """Declarative protocol every fast-path kernel implements.

    The engine drives a window as::

        span = kernel.begin_window(plan)   # bind token views, build executor
        span(lo, hi)                       # per chunk (== kernel.run_chunk)
        kernel.sync()                      # at each barrier

    ``begin_window`` returns the chunk executor directly so the engine's
    chunk loop can call the bound closure without method dispatch;
    :meth:`run_chunk` is the equivalent protocol-level entry point.
    """

    #: Matching reference policy class, set by ``batch_kernel``.
    policy_class: ClassVar[type | None] = None

    @classmethod
    def tokenize_requirements(cls) -> frozenset[str]:
        """Token streams this kernel consumes (names from the tokenizer:
        ``fetch-stream``, ``btb-stream``, ``cond-stream``)."""
        return frozenset({"fetch-stream"})

    @abc.abstractmethod
    def begin_window(self, plan: WindowPlan):
        """Bind to one tokenized window; return the chunk executor."""

    @abc.abstractmethod
    def run_chunk(self, lo: int, hi: int) -> None:
        """Execute this kernel's work for records ``[lo, hi)``.

        Chunks must partition the window in order: each call continues
        where the previous one stopped (kernels track their own stream
        cursors).
        """

    @abc.abstractmethod
    def sync(self) -> None:
        """Flush window-local state into the reference objects (idempotent)."""

    @abc.abstractmethod
    def state_digest(self) -> dict:
        """Canonical export of the kernel's live state for the sentinel.

        Feeds divergence-bundle manifests and crash capture, and — unlike
        :meth:`sync` — must be safe to call when the kernel may be
        mid-update, so it reads without flushing (delta counters may
        under-report work buffered in an open window).
        """


class KernelContext:
    """Build-time state shared between the kernels of one front end.

    Its one job today is deduplicating GHRP scalar state: when the I-cache
    and BTB policies share a :class:`~repro.core.ghrp.GHRPPredictor`
    (Section III-E), both kernels must read and advance the *same* path
    history, so they share one ``GHRPKernelState``.
    """

    def __init__(self) -> None:
        # (predictor, state) pairs, matched by identity.  A front end has
        # at most two predictors, so a linear scan beats any keyed lookup
        # (and id()-keyed dicts are banned by the determinism lint).
        self._ghrp_states: list[tuple[object, object]] = []

    def ghrp_state(self, predictor: "GHRPPredictor"):
        from repro.kernel.ghrp import GHRPKernelState

        for known, state in self._ghrp_states:
            if known is predictor:
                return state
        state = GHRPKernelState(predictor)
        self._ghrp_states.append((predictor, state))
        return state

    def reload(self) -> None:
        for _, state in self._ghrp_states:
            state.reload()

    def sync(self) -> None:
        for _, state in self._ghrp_states:
            state.sync()

    def recover_history_for(self, predictor: "GHRPPredictor") -> bool:
        """Squash wrong-path history on the kernel state of ``predictor``.

        Returns False when no kernel aliases that predictor (the caller
        must then recover the reference object directly).
        """
        for known, state in self._ghrp_states:
            if known is predictor:
                state.recover()
                return True
        return False


class CacheKernel(BatchKernel):
    """Flattened twin of one ``SetAssociativeCache`` + its policy.

    ``access(block, pc)`` takes a **block-aligned** address (callers align;
    the fetch stream and the BTB wrapper already produce aligned blocks)
    and returns :data:`HIT`, :data:`FILL`, or :data:`BYPASS`, leaving the
    touched set/way in :attr:`set_index`/:attr:`way` for wrappers (the BTB)
    that keep side arrays.

    Statistic counters accumulate in kernel-local deltas; :meth:`sync`
    flushes them into the reference ``CacheStats`` and is idempotent, so
    engines may sync mid-run (warm-up boundary) and again at the end.

    Subclasses plug into batching by overriding :meth:`_make_window`; the
    default executor loops the scalar ``access`` path, so any registered
    kernel batches correctly even before it grows a specialized span.
    """

    def __init__(self, cache: "SetAssociativeCache"):
        self.cache = cache
        self._tags = cache._tags  # aliased per-set rows
        self._offset_bits = cache._offset_bits
        self._index_mask = cache._index_mask
        self._tag_shift = cache._tag_shift
        obs = cache.obs
        self.obs = obs
        self._obs_on = obs.enabled
        scope = cache.obs_scope
        self.scope = scope
        self._m_hits = scope + ".hits"
        self._m_misses = scope + ".misses"
        self._m_bypasses = scope + ".bypasses"
        self._m_evictions = scope + ".evictions"
        self._m_dead_evictions = scope + ".dead_evictions"
        self._d_hits = 0
        self._d_misses = 0
        self._d_bypasses = 0
        self._d_evictions = 0
        self._d_dead_evictions = 0
        # Outcome of the most recent access().
        self.set_index = 0
        self.way: int | None = None
        # Raised by the engine while fetching down a mispredicted path;
        # only wrong-path-aware kernels (GHRP) read it.
        self.wrong_path = False
        # Batch-window bindings (begin_window) and the derived
        # block-address → way map specialized spans maintain.
        self._window_span = None
        self._window_flush = None
        self._blockmap: dict[int, int] | None = None

    @classmethod
    def build(
        cls, cache: "SetAssociativeCache", policy, context: KernelContext
    ) -> "CacheKernel":
        """Construct a kernel; override to pull shared state from ``context``."""
        return cls(cache, policy)

    @abc.abstractmethod
    def access(self, block: int, pc: int) -> int:
        """One demand access to the aligned ``block`` driven by ``pc``."""

    def reload(self) -> None:
        """Re-capture scalar state from the reference objects (run start)."""
        self.wrong_path = False
        self._window_span = None
        self._window_flush = None
        self._blockmap = None

    # ------------------------------------------------------------------
    # BatchKernel protocol
    # ------------------------------------------------------------------
    def begin_window(self, plan: WindowPlan):
        """Bind token views for one window; returns the chunk executor."""
        made = self._make_window(plan)
        span, flush = made if made is not None else (None, None)
        if span is None:
            span = self._generic_window_span(plan)
            flush = None
            # The scalar loop does not maintain the block map; drop it so
            # a later specialized window rebuilds from the live tags.
            self._blockmap = None
        self._window_span = span
        self._window_flush = flush
        return span

    def run_chunk(self, lo: int, hi: int) -> None:
        span = self._window_span
        if span is None:
            raise RuntimeError(
                "run_chunk() outside an active window; call begin_window() first"
            )
        span(lo, hi)

    def _make_window(self, plan: WindowPlan):
        """Hook for specialized executors: return ``(span, flush)``.

        ``span(lo, hi)`` executes records ``[lo, hi)``; ``flush()`` (or
        None) writes closure-buffered deltas back onto the kernel so
        :meth:`sync` sees them.  Returning None (the default) selects the
        generic scalar-loop executor.
        """
        return None

    def _generic_window_span(self, plan: WindowPlan):
        """Fallback executor: loop the scalar ``access`` path.

        Looks ``access`` up per chunk (not per window) so a fault wrapper
        armed mid-run still intercepts every call.
        """
        tokens = plan.tokens
        blocks, pcs, acc_end = tokens.access_view(1 << self._offset_bits)
        cursor = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor
            access = self.access
            end = acc_end[hi - 1] if hi > 0 else 0
            for i in range(cursor, end):
                access(blocks[i], pcs[i])
            cursor = end

        return span

    def begin_btb_window(self, plan: WindowPlan, wrapper: "BTBKernel"):
        """Fused BTB-stream executor, or None for the wrapper's generic
        per-access loop.  Specialized kernels override this to handle the
        target array inline (see :class:`BTBKernel.begin_window`)."""
        return None

    def _build_blockmap(self) -> dict[int, int]:
        """block address → way for every valid line (specialized spans
        replace the per-access ``row.index(tag)`` probe with one dict
        get, maintaining the map incrementally on fill/evict)."""
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        blockmap: dict[int, int] = {}
        for set_index, row in enumerate(self._tags):
            base = set_index << offset_bits
            for way, tag in enumerate(row):
                if tag != _INVALID_TAG:
                    blockmap[(tag << tag_shift) | base] = way
        return blockmap

    def state_digest(self) -> dict:
        """Canonical export of the kernel's live state for the sentinel.

        Every registered kernel must implement this (enforced by the
        ``contract-fast-path`` lint rule): it feeds divergence-bundle
        manifests and crash capture, and — unlike :meth:`sync` — must be
        safe to call when the kernel may be mid-update, so it reads
        without flushing.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state_digest(); "
            "every registered kernel must export its canonical state"
        )

    def _base_digest(self) -> dict:
        """The state every kernel shares: tags, deltas, outcome scalars."""
        return {
            "kernel": type(self).__name__,
            "tags": self._tags,
            "deltas": {
                "hits": self._d_hits,
                "misses": self._d_misses,
                "bypasses": self._d_bypasses,
                "evictions": self._d_evictions,
                "dead_evictions": self._d_dead_evictions,
            },
            "set_index": self.set_index,
            "way": self.way,
            "wrong_path": self.wrong_path,
            "blockmap": (
                sorted(self._blockmap.items()) if self._blockmap is not None else None
            ),
        }

    def sync(self) -> None:
        """Flush statistic deltas into the reference cache's counters."""
        flush = self._window_flush
        if flush is not None:
            flush()
        stats = self.cache.stats
        hits = self._d_hits
        misses = self._d_misses
        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.bypasses += self._d_bypasses
        stats.evictions += self._d_evictions
        stats.dead_evictions += self._d_dead_evictions
        # The reference engine ticks ``now`` once per access.
        self.cache.now += hits + misses
        self._d_hits = 0
        self._d_misses = 0
        self._d_bypasses = 0
        self._d_evictions = 0
        self._d_dead_evictions = 0

    # ------------------------------------------------------------------
    # Shared slow-path helpers (miss path only)
    # ------------------------------------------------------------------
    def _find_invalid_way(self, row: list[int]) -> int:
        """First invalid way of ``row``, or -1 when the set is full."""
        try:
            return row.index(_INVALID_TAG)
        except ValueError:
            return -1

    def _victim_address(self, row: list[int], set_index: int, way: int) -> int:
        return (row[way] << self._tag_shift) | (set_index << self._offset_bits)

    def _emit_eviction(
        self,
        set_index: int,
        way: int,
        row: list[int],
        block: int,
        pc: int,
        predicted_dead: bool = False,
        **telemetry,
    ) -> None:
        """Reference ``_emit_eviction``; ``telemetry`` is the policy's
        ``victim_telemetry`` payload.  Only called with observability
        on, before the fill overwrites ``row[way]``."""
        obs = self.obs
        obs.inc(self._m_evictions)
        if predicted_dead:
            obs.inc(self._m_dead_evictions)
        obs.event(
            "eviction",
            structure=self.scope,
            set=set_index,
            way=way,
            victim_address=self._victim_address(row, set_index, way),
            predicted_dead=predicted_dead,
            incoming_address=block,
            pc=pc,
            cause="demand",
            **telemetry,
        )


class StreamKernel(CacheKernel):
    """A cache kernel whose one window loop serves both token streams.

    The I-cache fetch-block stream and the BTB stream differ only in
    their token arrays and in the BTB's per-way target array, so a kernel
    with no cross-structure coupling implements :meth:`_stream_window`
    once: ``targets``/``btarget`` are None for the I-cache and the BTB's
    aliased target rows and per-lookup targets for the fused BTB window.
    """

    def _make_window(self, plan: WindowPlan):
        tokens = plan.tokens
        block_size = 1 << self._offset_bits
        blocks, _pcs, ends = tokens.access_view(block_size)
        sets, tags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        return self._stream_window(blocks, sets, tags, ends, None, None, None)

    def begin_btb_window(self, plan: WindowPlan, wrapper: "BTBKernel"):
        tokens = plan.tokens
        blocks, sets, tags = tokens.btb_geometry_view(
            wrapper.btb.geometry.block_size,
            self._offset_bits,
            self._index_mask,
            self._tag_shift,
        )
        return self._stream_window(
            blocks, sets, tags, tokens.btb_end, wrapper._targets, tokens.btarget, wrapper
        )

    @abc.abstractmethod
    def _stream_window(self, blocks, sets, tags, ends, targets, btarget, wrapper):
        """Build ``(span, None)`` over one access stream.

        ``blocks``/``sets``/``tags`` are the stream's per-access arrays
        and ``ends[r]`` the number of accesses through record ``r``.  For
        the BTB stream, ``targets`` are the aliased per-set target rows
        and ``btarget`` the per-lookup branch targets.  Each span call
        ends with :meth:`_end_span`, so nothing is left to flush.
        """

    def _end_span(
        self,
        accesses: int,
        misses: int,
        evictions: int,
        set_index: int,
        way: int,
        wrapper: "BTBKernel | None",
        target_mispredictions: int,
    ) -> None:
        """Fold one span's counts into the delta counters.

        These policies never bypass, so every access that did not miss
        hit; the span loop counts only misses.
        """
        self._d_hits += accesses - misses
        self._d_misses += misses
        self._d_evictions += evictions
        self.set_index = set_index
        self.way = way
        if wrapper is not None:
            wrapper._d_target_mispredictions += target_mispredictions


class BTBKernel(BatchKernel):
    """Fast-path twin of :class:`~repro.btb.btb.BranchTargetBuffer`.

    Wraps the inner cache kernel (which replays the BTB's replacement
    policy) and adds the per-way target array plus target-misprediction
    accounting.  ``access`` returns True exactly when the reference
    ``BTBResult`` would have ``hit and not target_correct`` — the only bit
    the front end consumes.

    For batching, the wrapper asks the inner kernel for a *fused*
    BTB-stream executor (:meth:`CacheKernel.begin_btb_window`) so the
    target handling runs inline with the replacement decision; kernels
    without one fall back to the wrapper's scalar ``access`` loop.
    """

    __slots__ = (
        "btb",
        "inner",
        "_targets",
        "_block_mask",
        "_d_target_mispredictions",
        "obs",
        "_obs_on",
        "_window_span",
        "_window_flush",
    )

    def __init__(self, btb: "BranchTargetBuffer", inner: CacheKernel):
        self.btb = btb
        self.inner = inner
        self._targets = btb._targets  # aliased per-set rows
        self._block_mask = ~(btb.geometry.block_size - 1)
        self._d_target_mispredictions = 0
        self.obs = btb.obs
        self._obs_on = btb.obs.enabled
        self._window_span = None
        self._window_flush = None

    @classmethod
    def tokenize_requirements(cls) -> frozenset[str]:
        return frozenset({"btb-stream"})

    def access(self, pc: int, target: int) -> bool:
        inner = self.inner
        status = inner.access(pc & self._block_mask, pc)
        if status == HIT:
            row = self._targets[inner.set_index]
            way = inner.way
            stored = row[way]
            if stored != target:
                self._d_target_mispredictions += 1
                row[way] = target
                if self._obs_on:
                    self.obs.inc("btb.target_mispredictions")
                    self.obs.event(
                        "btb_target_update", pc=pc, stale_target=stored, target=target
                    )
                return True
        elif status == FILL:
            self._targets[inner.set_index][inner.way] = target
        return False

    def reload(self) -> None:
        self.inner.reload()
        self._window_span = None
        self._window_flush = None

    # ------------------------------------------------------------------
    # BatchKernel protocol
    # ------------------------------------------------------------------
    def begin_window(self, plan: WindowPlan):
        made = self.inner.begin_btb_window(plan, self)
        span, flush = made if made is not None else (None, None)
        if span is None:
            tokens = plan.tokens
            bpc = tokens.bpc
            btarget = tokens.btarget
            btb_end = tokens.btb_end
            cursor = 0

            def span(lo: int, hi: int) -> None:
                nonlocal cursor
                access = self.access
                end = btb_end[hi - 1] if hi > 0 else 0
                for j in range(cursor, end):
                    access(bpc[j], btarget[j])
                cursor = end

            flush = None
        self._window_span = span
        self._window_flush = flush
        return span

    def run_chunk(self, lo: int, hi: int) -> None:
        span = self._window_span
        if span is None:
            raise RuntimeError(
                "run_chunk() outside an active window; call begin_window() first"
            )
        span(lo, hi)

    def state_digest(self) -> dict:
        return {
            "kernel": type(self).__name__,
            "targets": self._targets,
            "delta_target_mispredictions": self._d_target_mispredictions,
            "inner": self.inner.state_digest(),
        }

    def sync(self) -> None:
        flush = self._window_flush
        if flush is not None:
            flush()
        self.inner.sync()
        self.btb.target_mispredictions += self._d_target_mispredictions
        self._d_target_mispredictions = 0
