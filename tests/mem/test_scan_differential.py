"""Differential property test: memory scans vs the per-line oracle.

Random interleavings of every hierarchy access point run on random
geometries, once on a hierarchy with the scan path and once on a twin
switched onto the per-line oracle.  After every operation the returned
stall and the full :func:`state` must agree: statistics, set contents,
TLB order, open pages and stall sums.  The geometries reach the
boundaries the paper grid may miss: L2 lines of 1-8 L1 lines (or no
L2), direct-mapped to 4-way sets, small TLB pages, store-overlap
factors whose per-line rounding is exact and inexact, and RDRAM pages
smaller than an L2 line, so one L2 line spans banks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    TLB,
    Cache,
    CacheConfig,
    HierarchyTiming,
    MemoryHierarchy,
    Rdram,
    RdramConfig,
    TLBConfig,
)
from repro.sim import Clock

from .per_line import per_line, state

CLOCK = Clock(2_000_000_000)
#: Addresses stay in a small window so lines, pages and sets recur.
SPAN = 1 << 14


@st.composite
def geometries(draw):
    l1_line = draw(st.sampled_from([16, 32, 64]))

    def cache(name, line):
        assoc = draw(st.integers(1, 4))
        sets = draw(st.sampled_from([1, 2, 4, 8]))
        return CacheConfig(name, line * assoc * sets, line, assoc)

    l2_factor = draw(st.sampled_from([None, 1, 2, 4, 8]))
    tlb_page = draw(st.sampled_from([None, 128, 512, 4096]))
    return {
        "l1d": cache("L1D", l1_line),
        "l1i": cache("L1I", l1_line),
        "l2": None if l2_factor is None else cache("L2", l1_line * l2_factor),
        "tlb": None if tlb_page is None else TLBConfig(
            "TLB", entries=draw(st.integers(1, 6)), page_size=tlb_page),
        "rdram": RdramConfig(
            num_banks=draw(st.sampled_from([1, 2, 4, 16])),
            page_size=draw(st.sampled_from([32, 64, 128, 2048]))),
        "timing": HierarchyTiming(
            store_overlap_factor=draw(st.sampled_from([0.25, 1 / 3, 1.0])),
            tlb_walk_refs=draw(st.integers(0, 2))),
    }


def build(geometry):
    tlb = geometry["tlb"]
    return MemoryHierarchy(
        l1d=Cache(geometry["l1d"]),
        l1i=Cache(geometry["l1i"]),
        l2=None if geometry["l2"] is None else Cache(geometry["l2"]),
        dtlb=None if tlb is None else TLB(tlb),
        itlb=None if tlb is None else TLB(tlb),
        memory=Rdram(geometry["rdram"]),
        clock=CLOCK,
        timing=geometry["timing"],
    )


addrs = st.integers(0, SPAN)
#: Exact line sizes too: a one-line stride from an unaligned start is a
#: walk the scan must not treat as whole lines.
strides = st.one_of(st.sampled_from([16, 32, 64]), st.integers(0, 700))
ops = st.one_of(
    st.tuples(st.sampled_from(["load", "store", "ifetch", "prefetch"]),
              addrs),
    st.tuples(st.sampled_from(["load_range", "store_range"]),
              addrs, st.integers(0, 3000)),
    st.tuples(st.sampled_from(["load_stride", "store_stride"]),
              addrs, strides, st.integers(0, 40)),
)


@given(geometry=geometries(), program=st.lists(ops, min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_scans_match_per_line_oracle(geometry, program):
    fast = build(geometry)
    ref = per_line(build(geometry))
    for name, *args in program:
        assert getattr(fast, name)(*args) == getattr(ref, name)(*args), name
        assert state(fast) == state(ref), (name, args)
