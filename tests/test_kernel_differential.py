"""Differential suite: the batched fast path is bit-identical.

``engine="fast"`` is only allowed to be faster — every statistic in the
:class:`SimulationResult` and every piece of modeled state (tags, policy
metadata, prediction-table counters, path histories, perceptron weights)
must match the reference engine exactly after the run.  These tests run
both engines on the same records and compare results *and* deep internal
state, across every kernelized policy and several workload archetypes.

Also pinned here: each kernel's scalar ``access`` path agrees with the
reference :class:`~repro.cache.set_assoc.SetAssociativeCache` access for
access on tiny geometries, and :class:`repro.util.hashing.SkewedIndexTable`
(the kernels' precomputed index lookup) agrees with the scalar
:func:`repro.util.hashing.skewed_indices` everywhere.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEnd, build_frontend
from repro.frontend.options import RunOptions
from repro.kernel.base import HIT, KernelContext, batch_kernel_for
from repro.kernel.engine import FastFrontEnd
from repro.policies.random_policy import RandomPolicy
from repro.policies.srrip import SRRIPPolicy
from repro.util.hashing import SkewedIndexTable, skewed_indices
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


def deep_state(frontend):
    """Everything the simulation mutates, pulled out of the live objects."""
    out = {
        "icache_tags": frontend.icache._tags,
        "btb_tags": frontend.btb._cache._tags,
        "btb_targets": frontend.btb._targets,
        "btb_target_mispredictions": frontend.btb.target_mispredictions,
        "clocks": (frontend.icache.now, frontend.btb._cache.now),
        "direction_stats": (
            frontend.direction.stats.predictions,
            frontend.direction.stats.mispredictions,
        ),
    }
    for label, policy in (("ic", frontend.icache.policy), ("btb", frontend.btb.policy)):
        for attr in ("_signatures", "_pred_dead", "_last_use", "_clock", "_rrpv"):
            if hasattr(policy, attr):
                out[f"{label}{attr}"] = getattr(policy, attr)
        if hasattr(policy, "_rng"):
            out[f"{label}_rng"] = policy._rng.getstate()
        if hasattr(policy, "tables"):
            bank = policy.tables
            out[f"{label}_tables"] = (
                bank._tables,
                bank.predictions,
                bank.increments,
                bank.decrements,
            )
        if hasattr(policy, "predictor"):
            history = policy.predictor.history
            out[f"{label}_history"] = (history.speculative, history.retired)
            bank = policy.predictor.tables
            out[f"{label}_ptables"] = (
                bank._tables,
                bank.predictions,
                bank.increments,
                bank.decrements,
            )
        if hasattr(policy, "_sampler"):
            out[f"{label}_sampler"] = [
                [(e.valid, e.partial_tag, e.signature, e.last_use) for e in row]
                for row in policy._sampler
            ]
    direction = frontend.direction
    if hasattr(direction, "_weights"):
        out["direction_state"] = (
            direction._weights,
            direction._outcome_history,
            direction._path_history,
            direction._last_sum,
            direction._last_indices,
        )
    return out


def run_both(
    config,
    category=Category.SHORT_SERVER,
    trace_scale=0.05,
    warmup=2000,
    max_instructions=None,
):
    workload = make_workload("diff", category, seed=2018, trace_scale=trace_scale)
    records = list(workload.records())
    options = RunOptions(warmup_instructions=warmup, max_instructions=max_instructions)

    reference = build_frontend(config, engine="reference")
    fast = build_frontend(config, engine="fast")
    assert type(reference) is FrontEnd
    assert type(fast) is FastFrontEnd, "config unexpectedly fell back to reference"

    ref_result = reference.run(records, options)
    fast_result = fast.run(records, options)
    return (ref_result, deep_state(reference)), (fast_result, deep_state(fast))


def assert_identical(config, **run_kwargs):
    (ref_result, ref_state), (fast_result, fast_state) = run_both(config, **run_kwargs)
    assert asdict(ref_result) == asdict(fast_result)
    assert ref_state.keys() == fast_state.keys()
    for key in ref_state:
        assert ref_state[key] == fast_state[key], f"state diverged: {key}"


PAPER_POLICIES = ["lru", "random", "srrip", "sdbp", "ghrp"]


class TestKernelDifferential:
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    @pytest.mark.parametrize(
        "category",
        [Category.SHORT_SERVER, Category.SHORT_MOBILE, Category.LONG_MOBILE],
    )
    def test_policy_across_archetypes(self, policy, category):
        assert_identical(FrontEndConfig(icache_policy=policy), category=category)

    def test_wrong_path_with_history_recovery(self):
        # Wrong-path fetches train the predictor off-path and the GHRP
        # history must be recovered afterwards — the subtlest kernel path.
        assert_identical(
            FrontEndConfig(icache_policy="ghrp", wrong_path_depth=4),
            trace_scale=0.08,
        )

    def test_standalone_ghrp_btb(self):
        assert_identical(FrontEndConfig(icache_policy="lru", btb_policy="ghrp"))

    def test_mixed_policies_with_wrong_path(self):
        assert_identical(
            FrontEndConfig(
                icache_policy="ghrp", btb_policy="lru", wrong_path_depth=3
            )
        )

    @pytest.mark.parametrize("policy", ["lru", "random", "srrip", "sdbp"])
    def test_wrong_path_scalar_access(self, policy):
        # Wrong-path fetch runs every access through the scalar path.
        assert_identical(FrontEndConfig(icache_policy=policy, wrong_path_depth=4))

    @pytest.mark.parametrize(
        "icache_policy, btb_policy", [("srrip", "ghrp"), ("random", "lru")]
    )
    def test_mixed_baseline_pairs(self, icache_policy, btb_policy):
        assert_identical(
            FrontEndConfig(icache_policy=icache_policy, btb_policy=btb_policy)
        )

    @pytest.mark.parametrize("policy", ["random", "srrip"])
    def test_instruction_limit(self, policy):
        assert_identical(
            FrontEndConfig(icache_policy=policy), max_instructions=20_000
        )


def _baseline_policy(name, rrpv_bits):
    if name == "random":
        return RandomPolicy(seed=7)
    return SRRIPPolicy(rrpv_bits=rrpv_bits)


class TestScalarAccessProperty:
    """Each kernel's ``access`` against the reference cache, access for
    access, on geometries small enough to exercise SRRIP's aging loop and
    ``randrange``'s rejection sampling (associativities that are not
    powers of two)."""

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(["random", "srrip"]),
        num_sets=st.sampled_from([1, 2, 4]),
        ways=st.integers(min_value=1, max_value=7),
        rrpv_bits=st.integers(min_value=1, max_value=3),
        blocks=st.lists(st.integers(min_value=0, max_value=40), max_size=200),
    )
    def test_access_matches_reference(self, policy, num_sets, ways, rrpv_bits, blocks):
        geometry = CacheGeometry(num_sets=num_sets, associativity=ways, block_size=64)
        reference = SetAssociativeCache(geometry, _baseline_policy(policy, rrpv_bits))
        cache = SetAssociativeCache(geometry, _baseline_policy(policy, rrpv_bits))
        kernel = batch_kernel_for(cache.policy).build(
            cache, cache.policy, KernelContext()
        )
        for index in blocks:
            block = index * 64
            expected = reference.access(block)
            status = kernel.access(block, block)
            assert (status == HIT) == expected.hit
            assert (kernel.set_index, kernel.way) == (expected.set_index, expected.way)
        kernel.sync()
        assert cache._tags == reference._tags
        assert cache.stats == reference.stats
        assert cache.now == reference.now
        if policy == "random":
            assert cache.policy._rng.getstate() == reference.policy._rng.getstate()
        else:
            assert cache.policy._rrpv == reference.policy._rrpv


class TestFastPathFallback:
    def test_unkernelized_policy_falls_back(self):
        frontend = build_frontend(FrontEndConfig(icache_policy="mru"), engine="fast")
        assert type(frontend) is FrontEnd

    @pytest.mark.parametrize("policy", ["brrip", "drrip"])
    def test_srrip_subclasses_fall_back(self, policy):
        # Registration is by exact class: BRRIP/DRRIP override SRRIP's
        # fill, so the SRRIP kernel must not replay them.
        config = FrontEndConfig(icache_policy=policy)
        assert type(build_frontend(config, engine="fast")) is FrontEnd

    def test_prefetcher_falls_back(self):
        frontend = build_frontend(
            FrontEndConfig(icache_policy="lru", prefetcher="next-line"),
            engine="fast",
        )
        assert type(frontend) is FrontEnd


class TestSkewedIndexTable:
    def test_matches_scalar_hash_everywhere(self):
        table = SkewedIndexTable(num_tables=3, index_bits=8)
        table.precompute(signature_bits=10)
        for signature in range(1 << 10):
            assert table.lookup[signature] == skewed_indices(signature, 3, 8)

    def test_cache_miss_path_matches_precomputed(self):
        precomputed = SkewedIndexTable(num_tables=3, index_bits=12)
        precomputed.precompute(signature_bits=8)
        on_demand = SkewedIndexTable(num_tables=3, index_bits=12)
        for signature in range(1 << 8):
            assert on_demand.indices(signature) == precomputed.lookup[signature]
