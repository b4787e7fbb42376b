"""Per-line oracle for the memory hierarchy's sequences.

The reference meaning of ``load_range`` / ``store_range`` /
``load_stride`` / ``store_stride`` / ``access_many``: one scalar
``load`` or ``store`` per line, record or address, in order.  The
simulator's sequence deciders must match this walk in every counter,
cache way (in LRU order), TLB entry, open page and stall sum.  Tests
switch one hierarchy onto the oracle with :func:`per_line`, or every
hierarchy of a whole application run with :func:`install`, and compare
:func:`state` against an unpatched twin.
"""

from repro.mem import MemoryHierarchy


def _lines(hier, addr, nbytes):
    if nbytes <= 0:
        return range(0)
    line = hier.l1d.config.line_size
    return range(addr - addr % line, addr + nbytes, line)


def load_range(self, addr, nbytes):
    return sum(self.load(line) for line in _lines(self, addr, nbytes))


def store_range(self, addr, nbytes):
    return sum(self.store(line) for line in _lines(self, addr, nbytes))


def load_stride(self, addr, stride, count):
    return sum(self.load(addr + i * stride) for i in range(count))


def store_stride(self, addr, stride, count):
    return sum(self.store(addr + i * stride) for i in range(count))


def access_many(self, addrs, writes):
    if isinstance(writes, bool):
        writes = [writes] * len(addrs)
    return sum(self.store(addr) if write else self.load(addr)
               for addr, write in zip(addrs, writes))


def _no_sequence(self, *args, **kwargs):
    raise AssertionError("sequence decider taken under the per-line oracle")


#: Methods the oracle replaces; `_sequence` must go unused.
ORACLE = {
    "load_range": load_range, "store_range": store_range,
    "load_stride": load_stride, "store_stride": store_stride,
    "access_many": access_many, "_sequence": _no_sequence,
}


def install(monkeypatch):
    """Route every :class:`MemoryHierarchy` through the oracle."""
    for name, fn in ORACLE.items():
        monkeypatch.setattr(MemoryHierarchy, name, fn)


def per_line(hier):
    """Switch one hierarchy onto the oracle; returns it."""
    for name, fn in ORACLE.items():
        setattr(hier, name, fn.__get__(hier))
    return hier


def state(hier):
    """Every observable counter and the full cache/TLB/memory state.

    Caches are snapshotted as each set's ways in LRU order, so two
    hierarchies agree only when their replacement order does too.
    """
    snapshot = {
        "load": hier.load_stall_ps, "store": hier.store_stall_ps,
        "ifetch": hier.ifetch_stall_ps, "tlb": hier.tlb_stall_ps,
    }
    for name in ("l1d", "l1i", "l2"):
        cache = getattr(hier, name)
        if cache is not None:
            snapshot[name] = (vars(cache.stats), cache.sets())
    for name in ("dtlb", "itlb"):
        tlb = getattr(hier, name)
        if tlb is not None:
            snapshot[name] = (vars(tlb.stats), list(tlb._pages))
    snapshot["mem"] = (vars(hier.memory.stats), list(hier.memory._open_pages))
    return snapshot
