"""Bulk-seeded streams against numpy's own ``Generator(PCG64(seed))``.

:func:`pcg64_starts` seeds many streams in one pass and :class:`Stream`
draws from them; both must reproduce numpy bit for bit, since every
sampled config is drawn from these streams.
"""

import numpy as np
import pytest

from synthvid.param_sampler import PresetLibrary, sample_batch, sample_config
from synthvid.seeding import Stream, derive_seed, pcg64_starts, stream_seed, stream_seeds

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
SEEDS = EDGE_SEEDS + [int(s) for s in np.random.Generator(np.random.PCG64(2024)).integers(
    0, 2**64, 10_000, dtype=np.uint64, endpoint=False)]

# (method, args): every draw kind, interleaved so that a 32-bit draw leaves
# half a word buffered across a 64-bit one, and every branch of integers()
DRAWS = [
    ("integers", 0, 10),                    # 32-bit Lemire; buffers the high half
    ("random",),                            # a 64-bit draw leaves the buffer alone
    ("integers", 5, 2**20),                 # takes the buffered half
    ("uniform", -3.5, 11.25),
    ("integers", 7, 8),                     # range 0: no draw
    ("integers", 0, 2**32),                 # range 2**32 - 1: one raw 32-bit draw
    ("integers", -2**63, 2**63),            # range 2**64 - 1: one raw 64-bit draw
    ("integers", 0, 3 * 2**30),             # 32-bit Lemire, rejects 1 draw in 4
    ("integers", -2**63, -2**63 + 3 * 2**62),  # 64-bit Lemire, rejects 1 draw in 4
    ("integers", 24, 49),
    ("integers", -2**40, 2**40),            # 64-bit Lemire, rarely rejects
    ("random",),
    ("uniform", 2500.0, 9500.0),
]


def streams(seeds):
    return [Stream(*start) for start in pcg64_starts(seeds)]


def test_starts_equal_numpy_seeding():
    for seed, (state, inc) in zip(SEEDS, pcg64_starts(SEEDS)):
        assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}, seed


def test_starts_accept_an_array_and_keep_its_order():
    seeds = np.array(SEEDS[:12], np.uint64).reshape(3, 4)
    assert pcg64_starts(seeds) == pcg64_starts(SEEDS[:12])
    assert pcg64_starts([]) == []


def test_every_draw_equals_numpy_in_any_order():
    for seed, stream in zip(SEEDS, streams(SEEDS)):
        reference = np.random.Generator(np.random.PCG64(seed))
        for method, *args in DRAWS:
            got, want = getattr(stream, method)(*args), getattr(reference, method)(*args)
            kind = int if method == "integers" else float
            assert got == want and type(got) is kind, (seed, method, args)


class _Counting(Stream):
    """A stream that counts its 64-bit outputs."""

    __slots__ = ("outputs",)

    def next64(self):
        self.outputs += 1
        return super().next64()


@pytest.mark.parametrize("low, high, outputs", [
    (0, 3 * 2**30, 0.5),                   # a 32-bit draw is half an output
    (-2**63, -2**63 + 3 * 2**62, 1),
])
def test_lemire_rejection_is_exercised_and_matches_numpy(low, high, outputs):
    rejected = 0
    for seed, (state, inc) in zip(SEEDS, pcg64_starts(SEEDS)):
        stream = _Counting(state, inc)
        stream.outputs = 0
        reference = np.random.Generator(np.random.PCG64(seed))
        for _ in range(2):
            assert stream.integers(low, high) == reference.integers(low, high), seed
        rejected += stream.outputs > 2 * outputs
    # each draw rejects with probability about 1/4, so about 7 seeds in 16
    # reject at least once in their two draws; far fewer means the rejection
    # loop went untested
    assert rejected > len(SEEDS) // 4


def test_integers_rejects_an_empty_range():
    with pytest.raises(ValueError):
        streams([3])[0].integers(5, 5)


def test_stream_seeds_equal_stream_seed():
    bases = EDGE_SEEDS + SEEDS[5:50]
    labels = ["camera.coverage", "n_frames", "lighting.position.x"]
    table = stream_seeds(bases, labels)
    assert table.dtype == np.uint64 and table.shape == (len(bases), len(labels))
    assert table.tolist() == [[stream_seed(b, label) for label in labels] for b in bases]


@pytest.mark.parametrize("name", ["random", "forward_only", "forward_following"])
def test_batch_equals_its_configs_sampled_one_by_one(name):
    # sample_batch seeds every stream of the batch in one call; the pinned
    # digests cover only sample_config's own seeding
    preset = PresetLibrary.default().get(name)
    for base in range(50):
        base_seed = stream_seed(base, "configs")
        assert sample_batch(preset, base_seed, 6) == [
            sample_config(preset, derive_seed(base_seed, i)) for i in range(6)]
