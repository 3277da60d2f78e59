"""Provenance stamps, and the comparison of two sets of benchmark results.

Every result carries the source revision (git sha when the checkout is a
repository, and always a digest of ``src/``), a host fingerprint (CPU
model, ``nproc``, Python and numpy versions), the workload, the seed and
a digest of the generated inputs.

Comparing two sets::

    python3 perfbench/provenance.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (untraced runs
only are compared).  Sets from different hosts, or with a seed whose
input digest differs between the sets, are "not comparable" (exit 2)
and get no verdict.  Otherwise each end-to-end metric of each workload
is flagged when the new median is worse than the base median by more
than the metric's bound in ``BENCHMARK.json`` (exit 1 if any is).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from check import digest_of

__all__ = ["compare", "host_fingerprint", "load_results", "stamp"]

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    import numpy

    host = {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    host["digest"] = digest_of(host)
    return host


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path, workload: str, seed: int, input_digest: str) -> dict:
    return {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "host": host_fingerprint(),
        "workload": workload,
        "seed": seed,
        "input_digest": input_digest,
    }


def load_results(directory: Path) -> list[dict]:
    results = []
    for path in sorted(Path(directory).rglob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("trace") == 0:
            results.append(document)
    return results


def compare(base: list[dict], new: list[dict], bounds: dict[str, dict]) -> tuple[str, list[str]]:
    """Verdict ``"pass"``, ``"regressed"`` or ``"not comparable"`` plus lines."""
    if not base or not new:
        return "not comparable", ["a set holds no untraced results"]
    hosts = {r["provenance"]["host"]["digest"] for r in base + new}
    if len(hosts) != 1:
        return "not comparable", [f"host fingerprints differ: {sorted(hosts)}"]
    digests: dict[tuple[str, int], set[str]] = {}
    for result in base + new:
        p = result["provenance"]
        digests.setdefault((p["workload"], p["seed"]), set()).add(p["input_digest"])
    differing = [key for key, seen in digests.items() if len(seen) > 1]
    if differing:
        return "not comparable", [f"input digests differ for {w} seed {s}" for w, s in differing]

    lines = []
    regressed = False
    workloads = sorted({r["provenance"]["workload"] for r in base}
                       & {r["provenance"]["workload"] for r in new})
    if not workloads:
        return "not comparable", ["the sets share no workload"]
    for workload in workloads:
        for name, spec in bounds.items():
            before = [r["metrics"][name]["value"] for r in base
                      if r["provenance"]["workload"] == workload]
            after = [r["metrics"][name]["value"] for r in new
                     if r["provenance"]["workload"] == workload]
            b, a = statistics.median(before), statistics.median(after)
            change = (a - b) / b
            worse = change if spec["better"] == "lower" else -change
            flag = worse > spec["bound"]
            regressed |= flag
            lines.append(
                f"{workload:12s} {name:12s} base {b:.6g} new {a:.6g} "
                f"({change:+.1%}, bound {spec['bound']:.0%}) {'REGRESSED' if flag else 'ok'}"
            )
    return ("regressed" if regressed else "pass"), lines


def bounds_from_benchmark(path: Path = BENCHMARK_JSON) -> dict[str, dict]:
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: {"bound": m["bound"], "better": m["better"]} for m in spec["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    verdict, lines = compare(
        load_results(Path(argv[0])), load_results(Path(argv[1])), bounds_from_benchmark()
    )
    for line in lines:
        print(line)
    print(f"verdict: {verdict}")
    return {"pass": 0, "regressed": 1}.get(verdict, 2)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
