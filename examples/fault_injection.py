"""Fault injection: run a reduction over a lossy fabric and survive.

Builds the paper's switch-tree reduction twice — once on a perfect
fabric, once with every link dropping 10% and corrupting 5% of packets
— and shows that:

* the numeric result matches the fault-free oracle bit for bit (the
  CRC + NACK/retransmission protocol hides every fault);
* recovery costs latency, which the result's ``extra`` itemizes;
* the same seed reproduces the run exactly.

Run:  python examples/fault_injection.py [seed]
"""

import sys

import repro
from repro import FaultPlan, LinkFaults
from repro.sim import ps_to_us

NUM_HOSTS = 16

#: Every link drops 10% of copies and flips bits in another 5%.
LOSSY = FaultPlan(link=LinkFaults(drop_rate=0.10, bit_error_rate=0.05))


def run_point(plan, seed):
    """One in-switch reduce-to-one; ``repro.run("reduce")`` checks the
    result against the fault-free oracle and raises on a mismatch."""
    return repro.run("reduce", topology="tree", hosts=NUM_HOSTS,
                     cases=("active",), seed=seed,
                     overrides={"faults": plan}).cases["active"]


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11

    clean = run_point(None, seed)
    faulty = run_point(LOSSY, seed)
    again = run_point(LOSSY, seed)

    print(f"{NUM_HOSTS}-host reduce-to-one, 512 B vectors")
    print(f"  perfect fabric : {ps_to_us(clean.exec_ps):8.2f} us")
    print(f"  lossy fabric   : {ps_to_us(faulty.exec_ps):8.2f} us "
          "(result byte-correct)")
    print("  faults injected and recovered:")
    for key, value in sorted(faulty.extra.items()):
        if key.startswith(("injected_", "link_")):
            print(f"    {key:28s} {value:g}")
    print(f"  same seed ({seed}) reproduces the run: {again == faulty}")


if __name__ == "__main__":
    main()
