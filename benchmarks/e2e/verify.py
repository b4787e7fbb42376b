"""Output verification: digests of every simulated result.

Each op's output is reduced to a JSON document with the simulator's own
lossless codecs (``repro.runner.cache.encode_case`` for a
``CaseResult``, ``ServiceResult.to_dict`` for a service point), and the
document's SHA-256 is its digest.  Digests are compared against the
references committed under ``reference/`` (seeds 0 and 1), against the
warm-up pass of the same run (determinism), and against the traced run
(tracing must not perturb results).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Seeds whose digests are committed.
REFERENCE_SEEDS = (0, 1)


def payload(output) -> object:
    """The JSON-able document of one op's output."""
    from repro.metrics.results import CaseResult
    from repro.runner.cache import encode_case
    from repro.traffic import KneeSearch, ServiceResult

    if isinstance(output, CaseResult):
        return encode_case(output)
    if isinstance(output, ServiceResult):
        return output.to_dict()
    if isinstance(output, KneeSearch):
        return {"knee": output.knee(), "probes": output.probes,
                "results": [result.to_dict() for result in output.results]}
    if isinstance(output, list):  # registry figure rows
        return output
    raise TypeError(f"no codec for {type(output).__name__}")


def digest(output) -> str:
    text = json.dumps(payload(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def service_results(output) -> Iterator:
    """Every ``ServiceResult`` inside one op's output."""
    from repro.traffic import KneeSearch, ServiceResult

    if isinstance(output, ServiceResult):
        yield output
    elif isinstance(output, KneeSearch):
        yield from output.results


def service_violations(name: str, output) -> Iterator[str]:
    """Conservation invariants every service point must satisfy."""
    for result in service_results(output):
        where = f"{name} @{result.rate_rps:g}rps"
        if result.offered != result.admitted + result.dropped:
            yield (f"{where}: offered {result.offered} != admitted "
                   f"{result.admitted} + dropped {result.dropped}")
        if result.completed != result.admitted:
            yield (f"{where}: completed {result.completed} != admitted "
                   f"{result.admitted}")


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed digests for ``seed``, or None when none are committed."""
    if seed not in REFERENCE_SEEDS:
        return None
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["seeds"][str(seed)]


def store_reference(workload: str, seed: int,
                    digests: Dict[str, str]) -> Path:
    """Record ``digests`` as the reference for ``seed``."""
    path = reference_path(workload)
    document = {"workload": workload, "seeds": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    document["seeds"][str(seed)] = dict(sorted(digests.items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
