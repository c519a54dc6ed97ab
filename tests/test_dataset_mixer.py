import re

import pytest

from synthvid.captioner import ComposedCaption, CaptionDomain, real_caption
from synthvid.dataset_mixer import (
    DEFAULT_RATIOS,
    DEFAULT_STEP_COUNTS,
    EmptyPoolError,
    ManifestEntry,
    MixSchedule,
    Source,
    build_manifest,
    load_pool_dir,
    read_manifest,
    schedule_grid,
    write_manifest,
)
from synthvid.jsondoc import FormatError


def synthetic_caption(text):
    return ComposedCaption(text=text, tags=("animated", "rendered"),
                           negative_text="", domain=CaptionDomain.SYNTHETIC)


SYN_POOL = [(f"videos/clip_{i:03d}", synthetic_caption(f"synthetic clip {i}"))
            for i in range(6)]
REAL_POOL = [(f"real/clip_{i:03d}", real_caption(f"real clip {i}")) for i in range(5)]


def test_ratio_zero_is_all_real():
    entries = build_manifest([], REAL_POOL, MixSchedule(0.0, 50, seed=1))
    assert len(entries) == 50
    assert all(e.source is Source.REAL for e in entries)


def test_ratio_one_is_all_synthetic():
    entries = build_manifest(SYN_POOL, [], MixSchedule(1.0, 50, seed=1))
    assert all(e.source is Source.SYNTHETIC for e in entries)


def test_empty_pool_errors():
    with pytest.raises(EmptyPoolError):
        build_manifest([], REAL_POOL, MixSchedule(0.5, 10, seed=1))
    with pytest.raises(EmptyPoolError):
        build_manifest(SYN_POOL, [], MixSchedule(0.5, 10, seed=1))


def test_half_ratio_within_3_sigma():
    # DERIVED: binomial(10000, 0.5) has sigma = 50, so 3 sigma = 150
    entries = build_manifest(SYN_POOL, REAL_POOL, MixSchedule(0.5, 10_000, seed=7))
    n_syn = sum(e.source is Source.SYNTHETIC for e in entries)
    assert 4850 <= n_syn <= 5150


def test_ratio_concentration_bound():
    # |realized - ratio| <= 0.015 at 10k steps for the committed seed stream
    for seed in (0, 7, 123):
        entries = build_manifest(SYN_POOL, REAL_POOL, MixSchedule(0.5, 10_000, seed=seed))
        realized = sum(e.source is Source.SYNTHETIC for e in entries) / 10_000
        assert abs(realized - 0.5) <= 0.015


def test_manifest_deterministic():
    schedule = MixSchedule(0.3, 500, seed=99)
    a = build_manifest(SYN_POOL, REAL_POOL, schedule)
    b = build_manifest(SYN_POOL, REAL_POOL, schedule)
    assert a == b


def test_caption_domain_consistency_enforced():
    with pytest.raises(ValueError):
        ManifestEntry(uri="x", caption=real_caption("real"), source=Source.SYNTHETIC)
    entries = build_manifest(SYN_POOL, REAL_POOL, MixSchedule(0.5, 200, seed=3))
    for entry in entries:
        expected = CaptionDomain.SYNTHETIC if entry.source is Source.SYNTHETIC \
            else CaptionDomain.REAL
        assert entry.caption.domain is expected


def test_schedule_validation():
    with pytest.raises(ValueError):
        MixSchedule(1.5, 10, seed=0)
    with pytest.raises(ValueError):
        MixSchedule(0.5, 0, seed=0)


# -- grid --


def test_default_grid_has_eight_schedules():
    grid = schedule_grid()
    assert len(grid) == 8
    assert [ (s.ratio, s.total_steps) for s in grid ] == [
        (r, k) for r in DEFAULT_RATIOS for k in DEFAULT_STEP_COUNTS
    ]


def test_single_cell_grid():
    grid = schedule_grid(ratios=(0.5,), step_counts=(10_000,))
    assert len(grid) == 1
    assert grid[0].ratio == 0.5 and grid[0].total_steps == 10_000


def test_grid_rejects_empty_axes():
    with pytest.raises(ValueError):
        schedule_grid(ratios=(), step_counts=(1000,))


# -- files --


def test_manifest_file_round_trip(tmp_path):
    entries = build_manifest(SYN_POOL, REAL_POOL, MixSchedule(0.5, 100, seed=11))
    path = tmp_path / "manifest.ndjson"
    write_manifest(entries, path)
    assert read_manifest(path) == entries
    # rerunning the build and rewriting produces identical bytes
    first = path.read_bytes()
    write_manifest(build_manifest(SYN_POOL, REAL_POOL, MixSchedule(0.5, 100, seed=11)), path)
    assert path.read_bytes() == first


def test_pool_dir_loading(tmp_path):
    import json
    for i, (uri, caption) in enumerate(SYN_POOL[:3]):
        (tmp_path / f"clip_{i:03d}.caption.json").write_text(
            json.dumps({"uri": uri, "caption": caption.to_json_dict()}))
    pool = load_pool_dir(tmp_path)
    assert pool == SYN_POOL[:3]


def test_pool_entry_without_uri_is_named_after_its_file(tmp_path):
    (tmp_path / "clip_000.caption.json").write_text('{"caption": {"text": "x"}}')
    assert [uri for uri, _ in load_pool_dir(tmp_path)] == ["clip_000"]


def test_load_pool_dir_rejects_missing_directory(tmp_path):
    missing = tmp_path / "nope"
    with pytest.raises(FileNotFoundError, match=re.escape(f"pool directory not found: {missing}")):
        load_pool_dir(missing)
    assert load_pool_dir(tmp_path) == []


def test_bad_manifest_line_names_file_line_and_field(tmp_path):
    entries = build_manifest(SYN_POOL, REAL_POOL, MixSchedule(0.5, 4, seed=11))
    path = tmp_path / "manifest.ndjson"
    write_manifest(entries, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ['{"uri": "x", "source": "Real",}'] + lines[3:]))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}:3: Expecting property name enclosed in double quotes: line 1 column 31")):
        read_manifest(path)
    path.write_text("\n".join(lines[:3] + ['{"uri": "x", "source": "Real"}']))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:4: caption: missing$"):
        read_manifest(path)
