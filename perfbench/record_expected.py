"""Record the reference engine's cells: the grid workloads' seeds and the
service-mix workload pool.

Usage: ``python3 perfbench/record_expected.py SEED [SEED ...]`` from the
root of a checkout.  Merges into ``perfbench/expected/<workload>.json``;
run it again whenever a workload's recipe changes.
"""

from __future__ import annotations

import sys

from run import import_program
from check import Oracle
from workloads import (
    GRIDS, PAPER_POLICIES, SERVICE_POOL, grid_inputs, job_descriptor, pool_workload,
    service_workload, synthesize,
)


def main(seeds: list[int]) -> int:
    import_program()
    for name in GRIDS:
        oracle = Oracle(name)
        for seed in seeds:
            for descriptor in grid_inputs(name, seed):
                oracle.prepare(descriptor, PAPER_POLICIES, lambda d=descriptor: synthesize(d))
            print(f"{name} seed {seed}: {len(oracle.computed)} cell(s) computed", flush=True)
        oracle.save()
    oracle = Oracle("service-mix")
    for index in range(SERVICE_POOL):
        descriptor = job_descriptor(pool_workload(index))
        oracle.prepare(descriptor, PAPER_POLICIES, lambda d=descriptor: service_workload(d))
    print(f"service-mix pool: {len(oracle.computed)} cell(s) computed", flush=True)
    oracle.save()
    return 0


if __name__ == "__main__":
    sys.exit(main([int(seed) for seed in sys.argv[1:]]))
