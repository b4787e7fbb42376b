"""Unit tests for the ablation helpers.

The ablation sweeps' own claims are the ``ablation_*`` registry entries'
shape checks (``tests/experiments/test_ledger.py``).
"""

from repro.experiments.ablations import measure_forwarding_latency


def test_forwarding_latency_is_submicrosecond():
    latency = measure_forwarding_latency(active_load=False, probes=3)
    assert latency < 2.0  # us
