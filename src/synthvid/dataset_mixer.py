"""Deterministic training manifests mixing synthetic and real clip pools.

A manifest is the ordered list of training entries a data loader would
consume: one entry per step, each drawn from the synthetic pool with the
schedule's probability and from the real pool otherwise, both with
replacement.  Everything is a pure function of (pools, schedule), so
manifests are byte-reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsondoc
from .captioner import CaptionDomain, ComposedCaption

__all__ = [
    "DEFAULT_RATIOS",
    "DEFAULT_STEP_COUNTS",
    "EmptyPoolError",
    "ManifestEntry",
    "MixSchedule",
    "Source",
    "build_manifest",
    "entry_to_json",
    "load_pool_dir",
    "read_manifest",
    "schedule_grid",
    "write_manifest",
]

# Default ablation grid: synthetic share x training steps (8 schedules).
DEFAULT_RATIOS = (0.1, 0.5)
DEFAULT_STEP_COUNTS = (3000, 5000, 10000, 15000)


class Source(str, enum.Enum):
    SYNTHETIC = "Synthetic"
    REAL = "Real"


class EmptyPoolError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    uri: str
    caption: ComposedCaption
    source: Source

    def __post_init__(self):
        expected = (CaptionDomain.SYNTHETIC if self.source is Source.SYNTHETIC
                    else CaptionDomain.REAL)
        if self.caption.domain is not expected:
            raise ValueError(
                f"{self.uri}: caption domain {self.caption.domain.value} does not "
                f"match source {self.source.value}")


@dataclass(frozen=True)
class MixSchedule:
    ratio: float        # synthetic share of steps
    total_steps: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.ratio <= 1.0):
            raise ValueError("ratio must lie in [0, 1]")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def build_manifest(synthetic, real, schedule: MixSchedule,
                   exact_counts: bool = False) -> list[ManifestEntry]:
    """Draw ``schedule.total_steps`` entries from the two pools.

    Pools are sequences of ``(uri, caption)`` pairs.  Per step the source is
    Bernoulli(ratio) and the clip uniform within its pool, both from one
    seeded stream (two draws per step, source then index).  With
    ``exact_counts`` the synthetic count is fixed to ``round(ratio * steps)``
    and only the placement is random, which is occasionally handy in tests.
    """
    synthetic = list(synthetic)
    real = list(real)
    if schedule.ratio > 0.0 and not synthetic:
        raise EmptyPoolError("ratio > 0 requires a nonempty synthetic pool")
    if schedule.ratio < 1.0 and not real:
        raise EmptyPoolError("ratio < 1 requires a nonempty real pool")

    rng = np.random.Generator(np.random.PCG64(schedule.seed))

    if exact_counts:
        n_syn = int(round(schedule.ratio * schedule.total_steps))
        flags = np.zeros(schedule.total_steps, dtype=bool)
        flags[:n_syn] = True
        flags = flags[rng.permutation(schedule.total_steps)]
    else:
        flags = rng.random(schedule.total_steps) < schedule.ratio

    entries = []
    for is_synthetic in flags:
        pool, source = (synthetic, Source.SYNTHETIC) if is_synthetic else (real, Source.REAL)
        uri, caption = pool[int(rng.integers(len(pool)))]
        entries.append(ManifestEntry(uri=uri, caption=caption, source=source))
    return entries


def schedule_grid(ratios=DEFAULT_RATIOS, step_counts=DEFAULT_STEP_COUNTS,
                  base_seed: int = 0) -> list[MixSchedule]:
    """Row-major Cartesian product of ratios x step counts.

    Each cell gets its own derived seed so the schedules are independent.
    """
    ratios = tuple(ratios)
    step_counts = tuple(step_counts)
    if not ratios or not step_counts:
        raise ValueError("ratios and step_counts must be nonempty")
    from .seeding import derive_seed

    grid = []
    for i, ratio in enumerate(ratios):
        for j, steps in enumerate(step_counts):
            grid.append(MixSchedule(ratio=ratio, total_steps=steps,
                                    seed=derive_seed(base_seed, i * len(step_counts) + j)))
    return grid


# ---------------------------------------------------------------------------
# newline-delimited JSON manifests and caption-pool directories


def entry_to_json(entry: ManifestEntry) -> str:
    return jsondoc.dumps_line({
        "uri": entry.uri,
        "source": entry.source.value,
        "caption": entry.caption.to_json_dict(),
    })


def write_manifest(entries, path) -> None:
    text = "".join(entry_to_json(e) + "\n" for e in entries)
    Path(path).write_text(text)


def read_manifest(path) -> list[ManifestEntry]:
    """Read an NDJSON manifest; a malformed line raises
    :class:`~synthvid.jsondoc.FormatError` naming ``<path>:<line>`` and the field."""
    entries = []
    for number, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        doc = jsondoc.loads(line, f"{path}:{number}").object(("uri", "source", "caption"))
        entries.append(doc["source"].make(
            ManifestEntry, uri=doc["uri"].string(), source=doc["source"].enum(Source),
            caption=ComposedCaption.from_json_dict(doc["caption"])))
    return entries


def load_pool_dir(directory) -> list[tuple[str, ComposedCaption]]:
    """Collect ``*.caption.json`` pool entries from a directory (sorted).

    An existing directory without entries is an empty pool; a path that is
    not a directory raises ``FileNotFoundError``.  A malformed entry raises
    :class:`~synthvid.jsondoc.FormatError` naming the entry's path and the field.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"pool directory not found: {directory}")
    pool = []
    for path in sorted(directory.glob("*.caption.json")):
        doc = jsondoc.loads(path.read_bytes(), str(path)).object(("caption",), ("uri",))
        pool.append((doc.get("uri", path.stem).string(),
                     ComposedCaption.from_json_dict(doc["caption"])))
    return pool
