"""Shard splitting for the fork-first worker pool.

``split_shards`` has two contracts: a *correctness* one (the flattened
shards ARE the flattened groups — order preserved, nothing dropped or
duplicated, group boundaries respected) and a *balance* one (no shard
degenerates: in particular one big trailing group must not be appended
to an already-full shard). The property test drives both with seeded
random workloads.
"""

import os
import random

import pytest

from repro.analysis.pool import split_shards


def flatten(groups):
    return [item for group in groups for item in group]


class TestSplitShardsBasics:
    def test_empty(self):
        assert split_shards([], 4) == []
        assert split_shards([[], []], 4) == []

    def test_single_shard(self):
        assert split_shards([[1, 2], [3]], 1) == [[1, 2, 3]]

    def test_fewer_groups_than_shards(self):
        shards = split_shards([[1], [2]], 8)
        assert shards == [[1], [2]]

    def test_groups_stay_whole(self):
        groups = [[1, 2, 3], [4, 5], [6], [7, 8, 9, 10]]
        shards = split_shards(groups, 3)
        # Every group lands in exactly one shard, unsplit.
        starts = set()
        at = 0
        for shard in shards:
            starts.add(at)
            at += len(shard)
        group_starts = {0, 3, 5, 6}
        assert starts <= group_starts

    def test_trailing_large_group_gets_its_own_shard(self):
        """The tail-imbalance fix: [1] + [big] must not merge when two
        shards are available."""
        groups = [[1], list(range(100))]
        shards = split_shards(groups, 2)
        assert len(shards) == 2
        assert len(shards[0]) == 1
        assert len(shards[1]) == 100


class TestSplitShardsProperty:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_workloads(self, seed):
        rng = random.Random(seed)
        groups = [
            [f"{g}:{i}" for i in range(rng.choice([0, 1, 2, 3, 5, 8, 40, 100]))]
            for g in range(rng.randint(0, 30))
        ]
        shard_count = rng.randint(1, 8)
        shards = split_shards(groups, shard_count)
        items = flatten(groups)

        # Correctness: concatenation reproduces the serial order exactly.
        assert flatten(shards) == items
        # No empty shards, never more shards than requested.
        assert all(shards)
        assert len(shards) <= shard_count

        if len(shards) > 1:
            # Balance: no shard exceeds the ideal size by more than the
            # largest single group (the unavoidable granularity).
            largest_group = max(len(group) for group in groups if group)
            ideal = len(items) / len(shards)
            assert max(len(s) for s in shards) <= ideal + largest_group
