"""Functional-kernel correctness tests (the apps' non-timing halves)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.grep import LiteralMatcher
from repro.apps.md5 import md5_interleaved
from repro.apps.tar import build_archive, parse_archive, ustar_header
from repro.workloads import files


# ----------------------------------------------------------------------
# Grep's KMP automaton
# ----------------------------------------------------------------------
def test_matcher_finds_single_match():
    matcher = LiteralMatcher(b"bear")
    state, ends = matcher.feed(b"the bear sleeps")
    assert len(ends) == 1


def test_matcher_counts_overlapping():
    matcher = LiteralMatcher(b"aa")
    _, ends = matcher.feed(b"aaaa")
    assert len(ends) == 3  # positions 2,3,4


def test_matcher_resumes_across_chunks():
    matcher = LiteralMatcher(b"Big Red Bear")
    state, ends1 = matcher.feed(b"xxx Big Re")
    state, ends2 = matcher.feed(b"d Bear yyy", state)
    assert not ends1
    assert len(ends2) == 1


def test_matcher_rejects_empty_pattern():
    with pytest.raises(ValueError):
        LiteralMatcher(b"")


@given(haystack=st.binary(max_size=400),
       needle=st.binary(min_size=1, max_size=6),
       split=st.integers(min_value=0, max_value=400))
@settings(max_examples=120, deadline=None)
def test_property_matcher_equals_count_even_when_split(haystack, needle,
                                                       split):
    """Streamed matching across any split equals an overlap-count oracle."""
    matcher = LiteralMatcher(needle)
    split = min(split, len(haystack))
    state, ends1 = matcher.feed(haystack[:split])
    _, ends2 = matcher.feed(haystack[split:], state)
    # Oracle: count occurrences including overlaps.
    count = 0
    start = 0
    while True:
        index = haystack.find(needle, start)
        if index < 0:
            break
        count += 1
        start = index + 1
    assert len(ends1) + len(ends2) == count


# ----------------------------------------------------------------------
# MD5
# ----------------------------------------------------------------------
def test_md5_interleaved_single_chain_is_digest_of_digest():
    data = bytes(range(256)) * 10
    expected = hashlib.md5(hashlib.md5(data).digest()).digest()
    assert md5_interleaved(data, chains=1, block_bytes=1 << 20) == expected


def test_md5_interleaved_chains_partition_blocks():
    data = bytes(range(200)) * 40
    block = 512
    chunks = [data[i:i + block] for i in range(0, len(data), block)]
    chains = [b"".join(chunks[k::4]) for k in range(4)]
    expected = hashlib.md5(
        b"".join(hashlib.md5(c).digest() for c in chains)).digest()
    assert md5_interleaved(data, chains=4, block_bytes=block) == expected


def test_md5_interleaved_validates_chains():
    with pytest.raises(ValueError):
        md5_interleaved(b"x", chains=0)


@pytest.mark.parametrize("block_bytes", [0, -5])
def test_md5_interleaved_validates_block_bytes(block_bytes):
    """Below one byte, blocks would not cover the data: every chain
    would hash nothing.  Both sizes are rejected by name."""
    with pytest.raises(ValueError, match="block_bytes"):
        md5_interleaved(b"abc", chains=2, block_bytes=block_bytes)


# ----------------------------------------------------------------------
# USTAR
# ----------------------------------------------------------------------
def test_ustar_header_is_512_bytes():
    header = ustar_header(files.FileSpec(name="a.txt", size=100))
    assert len(header) == 512
    assert header[257:262] == b"ustar"


def test_ustar_checksum_is_valid():
    header = ustar_header(files.FileSpec(name="a.txt", size=100))
    stored = int(header[148:154], 8)
    recomputed = sum(header[:148]) + 8 * ord(" ") + sum(header[156:])
    assert stored == recomputed


def test_archive_roundtrip():
    specs = files.generate_fileset(total_bytes=128 * 1024)
    archive = build_archive(specs)
    assert parse_archive(archive) == [(f.name, f.size) for f in specs]


def test_archive_block_aligned():
    specs = [files.FileSpec(name="odd.bin", size=777)]
    archive = build_archive(specs)
    assert len(archive) % 512 == 0


def test_archive_ends_with_two_zero_blocks():
    archive = build_archive([files.FileSpec(name="x", size=10)])
    assert archive[-1024:] == b"\x00" * 1024


def test_ustar_rejects_long_names():
    with pytest.raises(ValueError):
        ustar_header(files.FileSpec(name="n" * 101, size=1))
