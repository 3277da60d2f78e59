"""Output check: every cell against the reference engine, bit for bit.

The oracle is ``repro.api.sweep`` with ``engine="reference"`` on the same
workload and policy.  For the recorded seeds, ``expected/<workload>.json``
(written by ``record_expected.py``) maps a digest of each cell's recipe
to a digest of its expected values; cells not found there are computed
on demand, outside every timed region.

A cell is compared on its deterministic fields only: the timing fields
and the engine-dependent ``degraded``/``fast_path_fallback_reason``
fields are not simulation output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["CELL_FIELDS", "Oracle", "cell_key", "cell_values", "digest_of"]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

CELL_FIELDS = (
    "icache_mpki",
    "btb_mpki",
    "icache_misses",
    "btb_misses",
    "instructions",
    "branches",
    "direction_accuracy",
    "dead_evictions",
    "bypasses",
)


def cell_key(policy: str, descriptor: dict) -> str:
    """Content key of one cell: policy plus the workload's full recipe."""
    recipe = ",".join(f"{k}={descriptor[k]}" for k in sorted(descriptor))
    return f"{policy}|{recipe}"


def cell_values(cell) -> list:
    """The compared fields of a cell (a ``CellResult`` or its dict form)."""
    get = cell.get if isinstance(cell, dict) else lambda name: getattr(cell, name)
    return [get(name) for name in CELL_FIELDS]


def digest_of(value) -> str:
    """Short content digest of a JSON-serializable value."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Oracle:
    """Expected cells: stored ones first, the reference engine otherwise."""

    def __init__(self, workload: str):
        self.path = EXPECTED_DIR / f"{workload}.json"
        self.stored: dict[str, str] = {}
        if self.path.exists():
            self.stored = json.loads(self.path.read_text(encoding="utf-8"))
        self.computed: dict[str, list] = {}

    def _known(self, key: str) -> bool:
        return key in self.computed or digest_of(key) in self.stored

    def prepare(self, descriptor: dict, policies, build) -> None:
        """Compute (untimed) the expected cells of one workload not yet known.

        ``build()`` returns a fresh ``Workload`` for ``descriptor``.
        """
        missing = tuple(p for p in policies if not self._known(cell_key(p, descriptor)))
        if not missing:
            return
        import repro.api as api

        grid = api.sweep(build(), api.SweepOptions(policies=missing), engine="reference")
        for cell in grid.cells:
            self.computed[cell_key(cell.policy, descriptor)] = cell_values(cell)

    def matches(self, cell, descriptor: dict) -> bool:
        policy = cell["policy"] if isinstance(cell, dict) else cell.policy
        key = cell_key(policy, descriptor)
        if key in self.computed:
            return cell_values(cell) == self.computed[key]
        return digest_of(cell_values(cell)) == self.stored[digest_of(key)]

    def save(self) -> None:
        """Record the computed cells as digests (recording only)."""
        merged = {**self.stored, **{digest_of(k): digest_of(v) for k, v in self.computed.items()}}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(merged, sort_keys=True, indent=0) + "\n", encoding="utf-8")
