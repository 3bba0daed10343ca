import json

import numpy as np
import pytest

from swizzlesim.arch import (
    ArchSpec,
    ArchSpecError,
    MI300X_LIKE,
    concurrent_slots_per_xcd,
    load_arch_spec,
    resolve_arch,
)
from swizzlesim.patterns import GridSpec, builtin_pattern
from swizzlesim.records import to_dict

from conftest import arch_with_xcds, xcd_table


def dump_arch_spec(arch: ArchSpec) -> str:
    return json.dumps(to_dict(arch), indent=2, sort_keys=True)


def round_robin_xcds(total, arch):
    """XCD of each pid under the identity remap, i.e. the dispatch policy itself."""
    grid = GridSpec.from_block_counts(total)
    return xcd_table(builtin_pattern("identity", grid, arch), grid, arch)


def test_round_robin_assignment():
    xcds = round_robin_xcds(12, arch_with_xcds(8))
    assert xcds[0] == 0
    assert xcds[8] == 0
    assert xcds[11] == 3


def test_round_robin_periodicity():
    xcds = round_robin_xcds(108, arch_with_xcds(8))
    assert (xcds[:100] == xcds[8:108]).all()
    assert (xcds == np.arange(108) % 8).all()


def test_round_robin_balanced_distribution():
    arch = arch_with_xcds(8)
    for n in (8, 64, 8 * 37):
        assert (np.bincount(round_robin_xcds(n, arch), minlength=8) == n // 8).all()


def test_concurrent_slots():
    assert concurrent_slots_per_xcd(arch_with_xcds(2, cus_per_xcd=1, slots=1)) == 1
    assert concurrent_slots_per_xcd(arch_with_xcds(8, cus_per_xcd=38, slots=1)) == 38
    assert concurrent_slots_per_xcd(arch_with_xcds(8, cus_per_xcd=4, slots=2)) == 8


def test_mi300x_like_preset():
    assert MI300X_LIKE.num_xcds == 8
    assert MI300X_LIKE.l2_bytes_per_xcd == 4 * 1024 * 1024
    assert MI300X_LIKE.num_sets == 2048
    assert resolve_arch("mi300x-like") is MI300X_LIKE


def test_load_arch_spec_round_trip():
    loaded = load_arch_spec(dump_arch_spec(MI300X_LIKE))
    assert loaded == MI300X_LIKE


def test_load_arch_spec_reports_bad_field():
    doc = dump_arch_spec(MI300X_LIKE)
    bad = json.loads(doc)
    bad["num_xcds"] = 0
    with pytest.raises(ArchSpecError) as excinfo:
        load_arch_spec(json.dumps(bad))
    assert excinfo.value.field == "num_xcds"


def test_load_arch_spec_missing_key():
    doc = json.loads(dump_arch_spec(MI300X_LIKE))
    del doc["num_xcds"]
    with pytest.raises(ArchSpecError) as excinfo:
        load_arch_spec(json.dumps(doc))
    assert excinfo.value.field == "num_xcds"


def test_load_arch_spec_slots_default_to_one():
    doc = json.loads(dump_arch_spec(MI300X_LIKE))
    doc["wg_slots_per_cu"] = 3
    assert load_arch_spec(json.dumps(doc)).wg_slots_per_cu == 3
    del doc["wg_slots_per_cu"]
    assert load_arch_spec(json.dumps(doc)).wg_slots_per_cu == 1


def test_line_bytes_must_be_power_of_two():
    bad = json.loads(dump_arch_spec(MI300X_LIKE))
    bad["l2_line_bytes"] = 100
    with pytest.raises(ArchSpecError) as excinfo:
        load_arch_spec(json.dumps(bad))
    assert excinfo.value.field == "l2_line_bytes"


def test_unknown_keys_rejected():
    bad = json.loads(dump_arch_spec(MI300X_LIKE))
    bad["l3_bytes"] = 1
    with pytest.raises(ArchSpecError) as excinfo:
        load_arch_spec(json.dumps(bad))
    assert "l3_bytes" in str(excinfo.value)


def test_malformed_document():
    with pytest.raises(ArchSpecError):
        load_arch_spec("{not json")
    with pytest.raises(ArchSpecError):
        load_arch_spec("[1, 2]")


def test_associativity_must_divide_lines():
    with pytest.raises(ArchSpecError):
        ArchSpec(
            name="bad",
            num_xcds=1,
            cus_per_xcd=1,
            l2_bytes_per_xcd=128 * 3,
            l2_line_bytes=128,
            l2_associativity=2,
        )


def test_resolve_arch_from_file(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(dump_arch_spec(MI300X_LIKE))
    assert resolve_arch(str(path)) == MI300X_LIKE
