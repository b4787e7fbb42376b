"""Shape and invariant tests for the streaming benchmarks.

Each test runs the four configurations at a small scale and asserts the
paper's *qualitative* results: case orderings, utilization relations,
traffic fractions, and conservation invariants.  Exact magnitudes are
covered by the benchmark harness against the paper's numbers.
"""

import hashlib

import pytest

import repro
from repro.apps import (
    GrepApp,
    HashJoinApp,
    Md5App,
    MpegFilterApp,
    SelectApp,
    SortApp,
    TarApp,
)

# Small scales keep the whole module in seconds.
GREP_SCALE = 0.25
SELECT_SCALE = 1 / 128
HASHJOIN_SCALE = 1 / 128
MPEG_SCALE = 0.25
TAR_SCALE = 0.25
SORT_SCALE = 1 / 512
MD5_SCALE = 0.5


@pytest.fixture(scope="module")
def grep_result():
    return repro.run(lambda: GrepApp(scale=GREP_SCALE))


@pytest.fixture(scope="module")
def select_result():
    return repro.run(lambda: SelectApp(scale=SELECT_SCALE))


@pytest.fixture(scope="module")
def mpeg_result():
    return repro.run(lambda: MpegFilterApp(scale=MPEG_SCALE))


@pytest.fixture(scope="module")
def tar_result():
    return repro.run(lambda: TarApp(scale=TAR_SCALE))


@pytest.fixture(scope="module")
def sort_result():
    return repro.run(lambda: SortApp(scale=SORT_SCALE))


# ----------------------------------------------------------------------
# Cross-benchmark invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture_name", [
    "grep_result", "select_result", "mpeg_result", "tar_result",
    "sort_result"])
def test_normal_case_is_slowest(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    for label in ("normal+pref", "active", "active+pref"):
        assert result.normalized_time(label) <= 1.0, (
            f"{result.name}: {label} slower than normal")


@pytest.mark.parametrize("fixture_name", [
    "grep_result", "select_result", "mpeg_result", "tar_result",
    "sort_result"])
def test_prefetch_never_hurts(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert (result.case("normal+pref").exec_ps
            <= result.case("normal").exec_ps)
    assert (result.case("active+pref").exec_ps
            <= result.case("active").exec_ps * 1.001)


@pytest.mark.parametrize("fixture_name", [
    "grep_result", "select_result", "mpeg_result", "tar_result",
    "sort_result"])
def test_active_reduces_host_traffic(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert result.normalized_traffic("active") < 1.0
    assert (result.normalized_traffic("active")
            == pytest.approx(result.normalized_traffic("active+pref")))


@pytest.mark.parametrize("fixture_name", [
    "grep_result", "select_result", "mpeg_result", "tar_result",
    "sort_result"])
def test_breakdown_fractions_sum_to_one(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    for case in result.cases.values():
        for _, breakdown in case.breakdown_rows():
            total = (breakdown.busy_frac + breakdown.stall_frac
                     + breakdown.idle_frac)
            assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("fixture_name", [
    "grep_result", "select_result", "mpeg_result", "tar_result",
    "sort_result"])
def test_switch_breakdowns_only_in_active_cases(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert result.case("normal").switch_cpus == []
    assert result.case("normal+pref").switch_cpus == []
    assert len(result.case("active").switch_cpus) >= 1


# ----------------------------------------------------------------------
# Grep specifics
# ----------------------------------------------------------------------
def test_grep_functional_matches(grep_result):
    app = GrepApp(scale=GREP_SCALE)
    assert app.total_matches == app.reference_match_count()
    assert app.total_matches == 4  # 16 * 0.25


def test_grep_active_host_nearly_idle(grep_result):
    assert grep_result.utilization("active") < 0.05
    assert grep_result.utilization("active+pref") < 0.05


def test_grep_filters_nearly_all_traffic(grep_result):
    assert grep_result.normalized_traffic("active") < 0.01


def test_grep_normal_pref_beats_active_sync(grep_result):
    # Paper: "normal+pref ... performs better than the active case".
    assert (grep_result.case("normal+pref").exec_ps
            <= grep_result.case("active").exec_ps)


def test_grep_active_pref_is_best(grep_result):
    best = min(case.exec_ps for case in grep_result.cases.values())
    assert grep_result.case("active+pref").exec_ps == best


# ----------------------------------------------------------------------
# Select specifics
# ----------------------------------------------------------------------
def test_select_functional_matches():
    app = SelectApp(scale=SELECT_SCALE)
    assert app.total_matches == app.reference_match_count()
    fraction = app.total_matches / app.table.num_records
    assert fraction == pytest.approx(0.25, abs=0.05)


def test_select_traffic_is_selectivity(select_result):
    assert select_result.normalized_traffic("active") == pytest.approx(
        0.25, abs=0.05)


def test_select_utilization_ratio_large(select_result):
    normal_avg = (select_result.utilization("normal")
                  + select_result.utilization("normal+pref")) / 2
    active_avg = (select_result.utilization("active")
                  + select_result.utilization("active+pref")) / 2
    assert normal_avg / active_avg > 5


def test_select_io_bound_cases_close(select_result):
    # normal+pref, active, active+pref within a few percent of each other.
    times = [select_result.case(label).exec_ps
             for label in ("normal+pref", "active", "active+pref")]
    assert max(times) / min(times) < 1.15


# ----------------------------------------------------------------------
# MPEG specifics
# ----------------------------------------------------------------------
def test_mpeg_traffic_matches_i_fraction(mpeg_result):
    app = MpegFilterApp(scale=MPEG_SCALE)
    expected = 1.0 - app.p_byte_fraction
    assert mpeg_result.normalized_traffic("active") == pytest.approx(
        expected, abs=0.02)


def test_mpeg_active_speedup_positive(mpeg_result):
    assert mpeg_result.active_speedup > 1.0
    assert mpeg_result.active_pref_speedup > 1.0


def test_mpeg_both_cpus_busy_in_active(mpeg_result):
    case = mpeg_result.case("active+pref")
    assert case.host.utilization > 0.5
    assert case.switch_cpus[0].busy_frac > 0.3


# ----------------------------------------------------------------------
# Tar specifics
# ----------------------------------------------------------------------
def test_tar_active_traffic_headers_only(tar_result):
    app = TarApp(scale=TAR_SCALE)
    case = tar_result.case("active")
    assert case.host_bytes_out == len(app.files) * 512
    assert case.host_bytes_in == 0


def test_tar_active_host_idle(tar_result):
    assert tar_result.utilization("active") < 0.02


def test_tar_io_bound_cases_close(tar_result):
    times = [tar_result.case(label).exec_ps
             for label in ("normal+pref", "active", "active+pref")]
    assert max(times) / min(times) < 1.15


# ----------------------------------------------------------------------
# Sort specifics
# ----------------------------------------------------------------------
def test_sort_traffic_fraction_matches_formula(sort_result):
    p = 4
    assert sort_result.normalized_traffic("active") == pytest.approx(
        p / (3 * p - 2), abs=0.02)


def test_sort_distribution_conserves_records():
    app = SortApp(scale=SORT_SCALE)
    assert app.distribution_is_conservative()


def test_sort_partition_matches_datamation_oracle():
    from repro.workloads import datamation
    keys = datamation.generate_keys(500, seed=17)
    boundaries = datamation.range_boundaries(4)
    for key in keys:
        fast = (int.from_bytes(key, "big") * 4) >> 80
        assert fast == datamation.assign_node(key, boundaries)


def test_sort_active_host_nearly_idle(sort_result):
    assert sort_result.utilization("active") < 0.02


# ----------------------------------------------------------------------
# MD5 specifics (single-CPU failure case + 4-CPU recovery)
# ----------------------------------------------------------------------
def test_md5_single_cpu_active_is_slower():
    result = repro.run(lambda: Md5App(scale=MD5_SCALE,
                                      num_switch_cpus=1))
    assert result.active_speedup < 1.0
    assert result.active_pref_speedup < 1.0


def test_md5_four_cpus_recover_speedup():
    result = repro.run(lambda: Md5App(scale=MD5_SCALE,
                                      num_switch_cpus=4))
    assert result.active_speedup > 1.0


def test_md5_chained_digest_deterministic():
    a = Md5App(scale=MD5_SCALE, num_switch_cpus=4)
    b = Md5App(scale=MD5_SCALE, num_switch_cpus=4)
    assert a.chained_digest == b.chained_digest
    assert a.digest == b.digest


@pytest.mark.parametrize("chains", [1, 2, 4])
def test_md5_app_digests_are_hashlib_digests_of_its_data(chains):
    """The app's output: the file's MD5, and the MD5 of its K chain
    digests, chain k holding every K-th 8 KiB block from block k."""
    app = Md5App(scale=MD5_SCALE, num_switch_cpus=chains)
    data = app.data
    blocks = [data[i:i + 8 * 1024] for i in range(0, len(data), 8 * 1024)]
    chain_digests = b"".join(hashlib.md5(b"".join(blocks[k::chains])).digest()
                             for k in range(chains))
    assert app.digest == hashlib.md5(data).digest()
    assert app.chained_digest == hashlib.md5(chain_digests).digest()


# ----------------------------------------------------------------------
# HashJoin specifics (module-scoped run is pricier; keep one)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hashjoin_result():
    return repro.run(lambda: HashJoinApp(scale=HASHJOIN_SCALE))


def test_hashjoin_bitvector_pass_fraction():
    app = HashJoinApp(scale=HASHJOIN_SCALE)
    # Reduction factor 0.24 plus some hash false positives.
    assert 0.2 < app.reference_pass_fraction() < 0.45


def test_hashjoin_no_false_negatives():
    app = HashJoinApp(scale=HASHJOIN_SCALE)
    # Every true match must survive the bit-vector filter.
    assert app.s_passing >= app.reference_true_matches()


def test_hashjoin_pref_cases_tie(hashjoin_result):
    assert hashjoin_result.active_pref_speedup == pytest.approx(1.0, abs=0.1)


def test_hashjoin_active_cuts_host_stall(hashjoin_result):
    npref = hashjoin_result.case("normal+pref").host.stall_frac
    apref = hashjoin_result.case("active+pref").host.stall_frac
    assert apref < npref


def test_hashjoin_active_reduces_traffic(hashjoin_result):
    assert hashjoin_result.normalized_traffic("active") < 0.6
