"""The batched front-end engine.

:class:`FastFrontEnd` subclasses the reference :class:`~repro.frontend.
engine.FrontEnd` — same constructor, same ``run`` signature, same
``SimulationResult`` — but replaces the per-access call chain with cache
kernels.  Every simulation decision is replicated exactly (the
differential suite asserts bit-identical statistics *and* internal
state), including the warm-up boundary, wrong-path episodes, and the
observability events the reference engine emits.

Two execution strategies share the kernels:

- the **scalar loop** (:meth:`FastFrontEnd._run_window_scalar`) iterates
  records with the fetch-stream reconstruction inlined, calling each
  kernel's ``access`` path per event — always available, and required
  for wrong-path simulation, indirect prediction, observability, and
  fault injection;
- the **chunked batch loop** (:meth:`FastFrontEnd._run_window_batch`)
  pre-tokenizes the window (:mod:`repro.kernel.tokenizer`), binds each
  kernel's window executor via the :class:`~repro.kernel.base.BatchKernel`
  protocol, and runs whole chunks of records per structure between
  engine events.  Chunk boundaries land exactly on the records where the
  scalar loop would fire the warm-up snapshot, a telemetry sample, or
  the instruction limit, and every ``_sync_kernels`` barrier flushes the
  open window first — so sentinels, telemetry intervals, and warm-up
  snapshots observe identical state at identical points.

The fast path is all-or-nothing per front end: both the I-cache and BTB
policies must have registered batch kernels, and features that are not
kernelized (prefetching, cache-efficiency tracking) force the reference
engine.  :func:`fast_path_unsupported_reason` is the single gate,
consulted by :func:`repro.frontend.engine.build_frontend`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.branch.perceptron import HashedPerceptronPredictor
from repro.frontend.engine import FrontEnd, _RunState
from repro.frontend.options import RunOptions, resolve_run_options
from repro.frontend.results import SimulationResult
from repro.kernel.base import BTBKernel, KernelContext, WindowPlan, batch_kernel_for
from repro.kernel.direction import HashedPerceptronKernel
from repro.kernel.ghrp import GHRPBTBKernel, GHRPCacheKernel, ghrp_batch_ready
from repro.kernel.tokenizer import TraceTokens, tokenize_trace
from repro.policies.ghrp_policy import GHRPBTBPolicy
from repro.traces.record import BranchRecord, BranchType
from repro.traces.reconstruct import _MAX_SEQUENTIAL_GAP

__all__ = ["FastFrontEnd", "fast_path_unsupported_reason"]

# Windows below this many records run the scalar loop: tokenizing has a
# fixed numpy-dispatch cost that only amortizes over real windows (the
# sentinel's single-record bisection replays stay scalar).
_MIN_BATCH_RECORDS = 64


def fast_path_unsupported_reason(icache, btb, prefetcher) -> str | None:
    """Why this configuration cannot run on the kernel engine (None = it can).

    The fast path requires a :func:`~repro.kernel.base.batch_kernel`
    registration for every policy's exact class — registering the kernel
    *is* the opt-in; prefetching and efficiency tracking are
    reference-only features.
    """
    if prefetcher is not None:
        return "prefetching is not kernelized"
    if icache.efficiency is not None or btb.efficiency is not None:
        return "efficiency tracking requires the reference engine"
    for label, policy in (("icache", icache.policy), ("btb", btb.policy)):
        if batch_kernel_for(policy) is None:
            return f"{label} policy {policy.name!r} has no registered batch kernel"
    btb_policy = btb.policy
    if (
        isinstance(btb_policy, GHRPBTBPolicy)
        and btb_policy.icache_policy is not None
        and btb_policy.icache_policy.attached_cache is None
    ):
        return "coupled GHRP BTB policy's I-cache policy is not attached"
    return None


class FastFrontEnd(FrontEnd):
    """The reference front end with kernels fused into the hot loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        reason = fast_path_unsupported_reason(
            icache=self.icache, btb=self.btb, prefetcher=self.prefetcher
        )
        if reason is not None:
            raise ValueError(f"fast engine unsupported: {reason}")
        context = KernelContext()
        self._context = context
        icache_policy = self.icache.policy
        self._icache_kernel = batch_kernel_for(icache_policy).build(
            self.icache, icache_policy, context
        )
        btb_cache = self.btb._cache
        inner = batch_kernel_for(btb_cache.policy).build(
            btb_cache, btb_cache.policy, context
        )
        self._btb_kernel = BTBKernel(self.btb, inner)
        # Only the exact stock predictor class is kernelized; subclasses or
        # other predictors run through their reference objects (still fast
        # enough — the cache path dominates).
        self._direction_kernel = (
            HashedPerceptronKernel(self.direction)
            if type(self.direction) is HashedPerceptronPredictor
            else None
        )

    # ------------------------------------------------------------------
    # Kernel synchronization
    # ------------------------------------------------------------------
    def _reload_kernels(self) -> None:
        self._icache_kernel.reload()
        self._btb_kernel.reload()
        if self._direction_kernel is not None:
            self._direction_kernel.reload()
        self._context.reload()

    def _sync_kernels(self) -> None:
        self._icache_kernel.sync()
        self._btb_kernel.sync()
        if self._direction_kernel is not None:
            self._direction_kernel.sync()
        self._context.sync()

    # ------------------------------------------------------------------
    # Wrong-path speculation (kernelized)
    # ------------------------------------------------------------------
    def _simulate_wrong_path(self, wrong_next_pc: int) -> None:
        obs = self.obs
        depth = self.wrong_path_depth
        if obs.enabled:
            obs.inc("frontend.wrong_path_episodes")
            obs.event("wrong_path_enter", pc=wrong_next_pc, depth=depth)
        kernel = self._icache_kernel
        kernel.wrong_path = True
        block_size = self.icache.geometry.block_size
        block = wrong_next_pc & ~(block_size - 1)
        access = kernel.access
        for _ in range(depth):
            access(block, wrong_next_pc if wrong_next_pc > block else block)
            block += block_size
        self.wrong_path_accesses += depth
        kernel.wrong_path = False
        if self.ghrp is not None:
            if not self._context.recover_history_for(self.ghrp):
                # No kernel aliases this predictor; recover it directly.
                self.ghrp.recover_history()
        if obs.enabled:
            obs.event("wrong_path_exit", accesses=depth)
            if self.ghrp is not None:
                obs.inc("frontend.history_recoveries")
                obs.event("history_recovery", pc=wrong_next_pc)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        records: Iterable[BranchRecord],
        options: RunOptions | None = None,
        *,
        warmup_instructions: int | None = None,
        max_instructions: int | None = None,
    ) -> SimulationResult:
        """Batched twin of :meth:`FrontEnd.run` (same results, same events)."""
        options = resolve_run_options(options, warmup_instructions, max_instructions)
        self._setup_telemetry(options)
        self._reload_kernels()
        rs = _RunState(
            warmup_boundary=options.warmup_instructions,
            instruction_limit=options.max_instructions,
        )
        rs.phase_span = self.obs.start_span("warm-up")
        if options.verify == "off":
            if options.inject_kernel_fault is not None:
                from repro.sentinel.faults import arm_kernel_fault

                # Armed but unverified: the corruption runs to completion
                # silently — exactly the failure mode the sentinel layer
                # exists to catch (and what its tests demonstrate).
                arm_kernel_fault(self, options.inject_kernel_fault)
            self._run_window(records, rs)
            return self._finish_run(rs)
        from repro.sentinel.verifier import run_verified

        return run_verified(self, records, rs, options)

    # ------------------------------------------------------------------
    # Window dispatch: batch when eligible, scalar otherwise
    # ------------------------------------------------------------------
    def _batch_supported(self) -> bool:
        """Whether this window may run on the chunked batch loop.

        Checked per window (fault arming and GHRP history convergence can
        change between runs).  Wrong-path simulation, indirect prediction,
        and observability need the per-record scalar loop; an armed fault
        wrapper must see every scalar ``access`` call.  The GHRP cases
        guard the cross-structure couplings: a coupled BTB needs the fused
        record-ordered executor (its probes read live I-cache state), and
        a standalone BTB sharing its predictor with the I-cache would
        interleave history updates no per-structure chunking preserves.
        """
        if self.wrong_path_depth > 0:
            return False
        if self.indirect is not None:
            return False
        if self.obs.enabled:
            return False
        icache_kernel = self._icache_kernel
        inner = self._btb_kernel.inner
        if "access" in icache_kernel.__dict__ or "access" in inner.__dict__:
            return False  # fault wrapper armed on the scalar path
        if isinstance(inner, GHRPBTBKernel):
            if not inner.standalone:
                if not (
                    isinstance(icache_kernel, GHRPCacheKernel)
                    and inner._icache_policy is icache_kernel.policy
                    and ghrp_batch_ready(icache_kernel.state)
                    and (
                        inner.state is icache_kernel.state
                        or ghrp_batch_ready(inner.state)
                    )
                ):
                    return False
            elif (
                isinstance(icache_kernel, GHRPCacheKernel)
                and icache_kernel.state is inner.state
            ):
                return False
        return True

    def _run_window(self, records: Iterable[BranchRecord], rs: _RunState) -> None:
        """Execute one window of ``records``, continuing from ``rs``.

        Dispatches to the chunked batch loop when the configuration
        allows and the window is worth tokenizing; otherwise runs the
        per-record scalar loop.  ``records`` may be a raw iterable or an
        already-tokenized :class:`~repro.kernel.tokenizer.TraceTokens`
        (which is reused directly when its fetch-stream seed matches the
        carried ``rs.next_start``).
        """
        if self._batch_supported():
            tokens = None
            if isinstance(records, TraceTokens):
                if records.seed_next_start == rs.next_start:
                    tokens = records
                else:
                    records = records.records
            if tokens is None:
                if not isinstance(records, list):
                    records = (
                        self._pull_window(records, rs)
                        if rs.instruction_limit is not None
                        else list(records)
                    )
                if len(records) >= _MIN_BATCH_RECORDS:
                    tokens = tokenize_trace(records, rs.next_start)
            if tokens is not None and tokens.n > 0:
                self._run_window_batch(tokens, rs)
                return
            if tokens is not None:
                return  # empty window: nothing to execute or record
        # The scalar loop does not maintain block maps; invalidate so a
        # later batch window rebuilds them from the live tags.
        self._icache_kernel._blockmap = None
        self._btb_kernel.inner._blockmap = None
        self._run_window_scalar(records, rs)

    def _pull_window(self, records, rs: _RunState) -> list:
        """Consume exactly the records this limited window will execute.

        Both engines share a no-read-ahead contract: a window stopping at
        the instruction limit leaves every later record in the caller's
        iterator (the snapshot layer resumes the *same* iterator for the
        measurement window).  Materializing a lazy stream wholesale would
        strand the remainder, so replay the fetch-stream instruction
        count record-by-record and stop pulling at the limit — like the
        scalar loop, the record that crosses the limit is still executed.
        """
        remaining = rs.instruction_limit - rs.instructions_seen
        next_start = -1 if rs.next_start is None else rs.next_start
        max_gap = _MAX_SEQUENTIAL_GAP
        seen = 0
        out: list = []
        append = out.append
        for record in records:
            append(record)
            pc = record.pc
            gap = pc - next_start
            if next_start < 0 or gap < 0 or gap > max_gap or gap & 3:
                gap = 0
            seen += (gap >> 2) + 1
            next_start = record.target if record.taken else pc + 4
            if seen >= remaining:
                break
        return out

    def _run_window_batch(self, tokens: TraceTokens, rs: _RunState) -> None:
        """Chunked batch twin of :meth:`_run_window_scalar`.

        Every engine event the scalar loop fires *between* records —
        warm-up snapshot, telemetry sample, instruction limit — has a
        precomputable record index, so the loop executes maximal chunks
        up to the next event, applies the event exactly as the scalar
        loop would, and continues.  With no telemetry and no limit the
        whole window is one chunk per structure.
        """
        n = tokens.n
        plan = WindowPlan(
            tokens,
            "fetch-stream",
            icache_kernel=self._icache_kernel,
            btb_kernel=self._btb_kernel,
        )
        # Bind order matters: the I-cache kernel may claim the BTB stream
        # for a fused coupled executor before the wrapper binds.
        ispan = self._icache_kernel.begin_window(plan)
        bspan = self._btb_kernel.begin_window(plan)
        dspan = self._direction_window(tokens)
        rspan = self._ras_window(tokens)

        icache, btb = self.icache, self.btb
        telemetry = self.telemetry
        instr_cum = tokens.instr_cum
        warmup_boundary = rs.warmup_boundary
        instruction_limit = rs.instruction_limit
        base_i = rs.instructions_seen
        base_b = rs.branches_seen
        warmed = rs.icache_warm is not None
        warm_rec = (
            n if warmed else tokens.searchsorted_instructions(warmup_boundary - base_i)
        )
        limit_rec = (
            n
            if instruction_limit is None
            else tokens.searchsorted_instructions(instruction_limit - base_i)
        )

        executed = n
        r = 0
        while r < n:
            hi = n
            if limit_rec < hi:
                hi = limit_rec + 1
            if not warmed and warm_rec + 1 < hi:
                hi = warm_rec + 1
            if telemetry is not None:
                # First record index where branches_seen reaches the next
                # interval boundary (never before the current record).
                t_rec = telemetry.next_boundary - base_b - 1
                if t_rec < r:
                    t_rec = r
                if t_rec + 1 < hi:
                    hi = t_rec + 1
            ispan(r, hi)
            bspan(r, hi)
            dspan(r, hi)
            rspan(r, hi)
            cur_i = base_i + instr_cum[hi - 1]
            cur_b = base_b + hi

            if not warmed and cur_i >= warmup_boundary:
                self._sync_kernels()
                icache.stats.instructions = cur_i
                btb.stats.instructions = cur_i
                rs.icache_warm = icache.stats.snapshot()
                rs.btb_warm = btb.stats.snapshot()
                rs.warmed_at = cur_i
                warmed = True
                # Observability is off in batch mode (gated), so the
                # scalar loop's obs block is a no-op here by construction.

            if telemetry is not None and cur_b >= telemetry.next_boundary:
                telemetry.take_sample(cur_i, cur_b)

            if instruction_limit is not None and cur_i >= instruction_limit:
                rs.done = True
                executed = hi
                break
            r = hi

        last = executed - 1
        rs.instructions_seen = base_i + instr_cum[last]
        rs.branches_seen = base_b + executed
        rs.next_start = (
            tokens.target[last] if tokens.taken[last] else tokens.pc[last] + 4
        )
        self._end_batch_window()

    def _direction_window(self, tokens: TraceTokens):
        """Chunk executor for the conditional-branch stream."""
        kernel = self._direction_kernel
        if kernel is not None:
            span = kernel.begin_window(tokens)
            if span is not None:
                return span
            predict_and_update = kernel.predict_and_update
        else:
            predict_and_update = self.direction.predict_and_update
        cpc = tokens.cpc
        ctaken = tokens.ctaken
        cond_end = tokens.cond_end
        cursor = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor
            end = cond_end[hi - 1] if hi > 0 else 0
            for j in range(cursor, end):
                predict_and_update(cpc[j], ctaken[j])
            cursor = end

        return span

    def _ras_window(self, tokens: TraceTokens):
        """Chunk executor for the return-address-stack stream."""
        rop = tokens.rop
        rval = tokens.rval
        ras_end = tokens.ras_end
        push = self.ras.push
        pop_and_check = self.ras.pop_and_check
        cursor = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor
            end = ras_end[hi - 1] if hi > 0 else 0
            for k in range(cursor, end):
                if rop[k]:
                    push(rval[k])
                else:
                    pop_and_check(rval[k])
            cursor = end

        return span

    def _end_batch_window(self) -> None:
        """Flush and unbind all window executors.

        Window closures buffer delta counters; rebinding (next window) or
        running a scalar window would strand them, so the batch loop
        flushes and clears every binding before returning.  Flushes are
        also triggered by ``sync`` at barriers; both paths zero the
        buffers, so the combination never double-counts.
        """
        icache_kernel = self._icache_kernel
        btb_kernel = self._btb_kernel
        for kernel in (icache_kernel, btb_kernel, btb_kernel.inner):
            flush = kernel._window_flush
            if flush is not None:
                flush()
            kernel._window_span = None
            kernel._window_flush = None
        direction_kernel = self._direction_kernel
        if direction_kernel is not None:
            flush = direction_kernel._window_flush
            if flush is not None:
                flush()
            direction_kernel._window_span = None
            direction_kernel._window_flush = None

    # ------------------------------------------------------------------
    # Scalar loop
    # ------------------------------------------------------------------
    def _run_window_scalar(
        self, records: Iterable[BranchRecord], rs: _RunState
    ) -> None:
        """Per-record twin of :meth:`FrontEnd._run_window`.

        The flat per-record loop with the fetch-stream reconstruction
        inlined; loop state is loaded from and stored back to ``rs`` so
        the sentinel layer can run the engine window-by-window.
        """
        warmup_boundary = rs.warmup_boundary
        instruction_limit = rs.instruction_limit

        icache, btb, direction, ras = self.icache, self.btb, self.direction, self.ras
        indirect = self.indirect
        obs = self.obs
        obs_enabled = obs.enabled
        telemetry = self.telemetry

        block_size = icache.geometry.block_size
        block_mask = ~(block_size - 1)
        simulate_wrong_path = self.wrong_path_depth > 0
        max_gap = _MAX_SEQUENTIAL_GAP

        # Bound everything the per-record loop touches.
        icache_access = self._icache_kernel.access
        btb_access = self._btb_kernel.access
        direction_kernel = self._direction_kernel
        predict_and_update = (
            direction_kernel.predict_and_update
            if direction_kernel is not None
            else direction.predict_and_update
        )
        ras_push = ras.push
        ras_pop_and_check = ras.pop_and_check
        conditional = BranchType.CONDITIONAL
        call = BranchType.CALL
        indirect_call = BranchType.INDIRECT_CALL
        returns = BranchType.RETURN

        instructions_seen = rs.instructions_seen
        branches_seen = rs.branches_seen
        # -1 mirrors FetchBlockStream's None "no previous branch" sentinel.
        next_start = -1 if rs.next_start is None else rs.next_start
        warmed = rs.icache_warm is not None

        for record in records:
            pc = record.pc
            # --- FetchBlockStream.__next__, inlined ---------------------
            start = next_start
            gap = pc - start
            if start < 0 or gap < 0 or gap > max_gap or gap & 3:
                start = pc
                gap = 0
            instructions_seen += (gap >> 2) + 1
            branches_seen += 1
            taken = record.taken
            target = record.target
            next_start = target if taken else pc + 4

            # --- one access per touched cache block ---------------------
            block = start & block_mask
            last_block = pc & block_mask
            while True:
                icache_access(block, start if start > block else block)
                if block >= last_block:
                    break
                block += block_size

            # --- branch handling ----------------------------------------
            branch_type = record.branch_type
            mispredicted = False
            if branch_type is conditional:
                mispredicted = predict_and_update(pc, taken) != taken
            elif branch_type is call or branch_type is indirect_call:
                ras_push(pc + 4)
            elif branch_type is returns:
                mispredicted = not ras_pop_and_check(target)

            if indirect is not None:
                if branch_type.is_indirect:
                    if not indirect.predict_and_update(pc, target):
                        mispredicted = True
                indirect.note_branch(pc, taken)

            if taken and branch_type is not returns:
                if btb_access(pc, target):
                    mispredicted = True

            if mispredicted and simulate_wrong_path:
                self._simulate_wrong_path(pc + 4 if taken else target)

            # --- warm-up boundary / instruction budget ------------------
            if not warmed and instructions_seen >= warmup_boundary:
                self._sync_kernels()
                icache.stats.instructions = instructions_seen
                btb.stats.instructions = instructions_seen
                rs.icache_warm = icache.stats.snapshot()
                rs.btb_warm = btb.stats.snapshot()
                rs.warmed_at = instructions_seen
                warmed = True
                if obs_enabled:
                    obs.finish_span(rs.phase_span)
                    rs.phase_span = obs.start_span("measured")
                    obs.set_gauge("sim.warmup_instructions", rs.warmed_at)
                    obs.event(
                        "warmup_complete",
                        instructions=rs.warmed_at,
                        icache_misses=rs.icache_warm.misses,
                        btb_misses=rs.btb_warm.misses,
                    )
                    self._emit_table_saturation(phase="warmup")

            # Interval boundary: same branch-count test as the reference
            # engine, so samples land on identical records.  take_sample
            # syncs the kernels (idempotent) before reading statistics.
            if telemetry is not None and branches_seen >= telemetry.next_boundary:
                telemetry.take_sample(instructions_seen, branches_seen)

            if instruction_limit is not None and instructions_seen >= instruction_limit:
                rs.done = True
                break

        rs.instructions_seen = instructions_seen
        rs.branches_seen = branches_seen
        rs.next_start = None if next_start < 0 else next_start

    def _before_stats_collect(self) -> None:
        self._sync_kernels()
