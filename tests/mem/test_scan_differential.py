"""Differential property test: memory sequences vs the per-line oracle.

Random interleavings of every hierarchy access point run on random
geometries, once on a hierarchy with the sequence deciders and once on
a twin switched onto the per-line oracle.  After every operation the
returned stall and the full :func:`state` must agree: statistics, set
contents in LRU order, TLB order, open pages and stall sums.  The
geometries reach the boundaries the paper grid may miss: L2 lines of
1-8 L1 lines (or no L2), direct-mapped to 4-way sets (3- and 4-way
caches are walk-only), small TLB pages, store-overlap factors whose
per-line rounding is exact and inexact, and RDRAM pages smaller than
an L2 line, so one L2 line spans banks.

The hierarchy under test starts in one of two states: as built, its
caches never touched and holding no storage, or with their storage
allocated but empty, as the per-line twin's always is.  Either way the
first access to each cache may come through any access point.

Each program runs once per decider, forced: the walk as without
numpy, and the numpy decider for every sequence it is exact for,
whatever its length.  Sequence lengths fall on both sides of
:data:`NUMPY_MIN_ACCESSES`, so each decider also sees the lengths the
other would take when not forced.
"""

import random

import pytest
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
    hierarchy,
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


def mixed_accesses(seed, count):
    """``count`` loads and stores that revisit lines, pages and sets."""
    rng = random.Random(seed)
    addrs, writes = [], []
    addr = rng.randrange(SPAN)
    for _ in range(count):
        step = rng.random()
        if step < 0.3:
            addr = rng.randrange(SPAN)
        elif step < 0.8:
            addr = (addr + rng.choice([0, 4, 16, 32, 100, 512])) % SPAN
        addrs.append(addr)
        writes.append(rng.random() < 0.4)
    return addrs, writes


addrs = st.integers(0, SPAN)
#: Short sequences and sequences longer than NUMPY_MIN_ACCESSES.
counts = st.one_of(st.integers(0, 40), st.integers(200, 700))
#: Exact line sizes too: a one-line stride from an unaligned start is a
#: walk the scan must not treat as whole lines.
strides = st.one_of(st.sampled_from([16, 32, 64]), st.integers(0, 700))
ops = st.one_of(
    st.tuples(st.sampled_from(["load", "store", "ifetch", "prefetch"]),
              addrs),
    st.tuples(st.sampled_from(["load_range", "store_range"]),
              addrs, st.one_of(st.integers(0, 3000),
                               st.integers(3000, 12000))),
    st.tuples(st.sampled_from(["load_stride", "store_stride"]),
              addrs, strides, counts),
    st.tuples(st.just("access_many"), st.integers(0, 1 << 32), counts),
)

#: Start states of the hierarchy under test.
starts = st.sampled_from(["never-touched", "allocated"])

#: Each decider, forced: (module attribute, value).
DECIDERS = {
    "walk": ("_np", None),
    "numpy": ("NUMPY_MIN_ACCESSES", 1),
}


def caches(hier):
    return [cache for cache in (hier.l1d, hier.l1i, hier.l2)
            if cache is not None]


def run_program(geometry, program, start):
    """Run ``program`` on a hierarchy and its per-line twin.

    Returns the hierarchy under test.
    """
    fast = build(geometry)
    ref = per_line(build(geometry))
    assert all(cache._ways is None for cache in caches(fast))
    for cache in caches(ref) + (caches(fast) if start == "allocated" else []):
        cache._allocate()
    for name, *args in program:
        if name == "access_many":
            args = mixed_accesses(*args)
        assert getattr(fast, name)(*args) == getattr(ref, name)(*args), name
        assert state(fast) == state(ref), (name, args)
    return fast


@given(geometry=geometries(), program=st.lists(ops, min_size=1, max_size=30),
       start=starts)
@settings(max_examples=300, deadline=None)
def test_scans_match_per_line_oracle(geometry, program, start):
    """Each sequence on the decider the hierarchy picks for it."""
    run_program(geometry, program, start)


@pytest.mark.parametrize("decider", [
    "walk",
    pytest.param("numpy", marks=pytest.mark.skipif(
        hierarchy._np is None, reason="the numpy decider needs numpy")),
])
@given(geometry=geometries(), program=st.lists(ops, min_size=1, max_size=30),
       start=starts)
@settings(max_examples=150, deadline=None)
def test_each_decider_matches_per_line_oracle(decider, geometry, program,
                                              start):
    other = "walk" if decider == "numpy" else "numpy"
    before = hierarchy.DECIDED[other + ".sequences"]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(hierarchy, *DECIDERS[decider])
        fast = run_program(geometry, program, start)
    if decider == "walk" or fast._decidable:
        # Forced means forced: the other decider took nothing.
        assert hierarchy.DECIDED[other + ".sequences"] == before
