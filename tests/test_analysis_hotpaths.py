"""Unit + property tests for hot-path profiling from WPPs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    PathProfile,
    acyclic_paths,
    path_profile,
    path_profile_compacted,
)
from repro.compact import QueryEngine, compact_wpp, write_twpp
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import figure1_program, figure9_program, workload


class TestAcyclicDecomposition:
    def test_no_repeats_passes_through(self):
        assert acyclic_paths((1, 2, 3, 4)) == [(1, 2, 3, 4)]

    def test_backedge_cuts(self):
        assert acyclic_paths((1, 2, 3, 2, 3, 4)) == [
            (1, 2, 3),
            (2, 3, 4),
        ]

    def test_self_loop(self):
        assert acyclic_paths((5, 5, 5)) == [(5,), (5,), (5,)]

    def test_empty(self):
        assert acyclic_paths(()) == []

    @given(st.lists(st.integers(1, 6), max_size=80))
    @settings(max_examples=200)
    def test_properties(self, trace):
        paths = acyclic_paths(trace)
        # Lossless segmentation ...
        flattened = [b for p in paths for b in p]
        assert flattened == trace
        # ... into genuinely acyclic pieces.
        for p in paths:
            assert len(set(p)) == len(p)
        # Maximality: a path only ends because the next block repeats.
        for p, nxt in zip(paths, paths[1:]):
            assert nxt[0] in p


class TestPathProfile:
    def test_figure9_paths(self):
        program = figure9_program()
        part = partition_wpp(collect_wpp(program, args=[0]))
        profile = path_profile(part)
        # The three loop paths of Figure 9, weighted 40/20/40 (the very
        # last p3 iteration extends through the loop exit, block 9).
        assert profile.count("main", (1, 2, 3, 4, 5)) == 40
        assert profile.count("main", (1, 2, 7, 4, 5)) == 20
        assert profile.count("main", (1, 6, 7, 8, 5)) == 39
        assert profile.count("main", (1, 6, 7, 8, 5, 9)) == 1
        top = profile.hot_paths(k=2)
        assert {top[0].path, top[1].path} == {
            (1, 2, 3, 4, 5),
            (1, 6, 7, 8, 5),
        }

    def test_weighting_by_activations(self):
        """f's path counts multiply by how many calls took each trace."""
        program = figure1_program()
        part = partition_wpp(collect_wpp(program))
        profile = path_profile(part)
        # Trace B (3 activations) decomposes into a head path, one
        # interior loop path, and a tail path exiting to block 10;
        # trace A (2 activations) likewise.
        assert profile.count("f", (1, 2, 7, 8, 9, 6)) == 3
        assert profile.count("f", (2, 7, 8, 9, 6)) == 3
        assert profile.count("f", (2, 7, 8, 9, 6, 10)) == 3
        assert profile.count("f", (1, 2, 3, 4, 5, 6)) == 2
        assert profile.count("f", (2, 3, 4, 5, 6)) == 2
        assert profile.count("f", (2, 3, 4, 5, 6, 10)) == 2

    def test_fractions_sum_to_one(self):
        program, _spec = workload("li-like", scale=0.1)
        profile = path_profile(partition_wpp(collect_wpp(program)))
        all_paths = profile.hot_paths(k=profile.distinct_paths())
        assert sum(h.fraction for h in all_paths) == pytest.approx(1.0)
        # Ranking is non-increasing.
        counts = [h.count for h in all_paths]
        assert counts == sorted(counts, reverse=True)

    def test_coverage(self):
        profile = PathProfile(
            counts={("f", (1,)): 90, ("f", (2,)): 9, ("f", (3,)): 1}
        )
        assert profile.coverage(0.5) == 1
        assert profile.coverage(0.9) == 1
        assert profile.coverage(0.95) == 2
        assert profile.coverage(1.0) == 3
        with pytest.raises(ValueError):
            profile.coverage(0.0)

    def test_function_paths_filter(self):
        profile = PathProfile(
            counts={("f", (1,)): 5, ("g", (1,)): 7}
        )
        assert [h.function for h in profile.function_paths("g")] == ["g"]

    def test_skewed_workload_concentrates(self):
        """perl-like: few paths dominate (the generator's path skew)."""
        program, _spec = workload("perl-like", scale=0.2)
        profile = path_profile(partition_wpp(collect_wpp(program)))
        needed = profile.coverage(0.8)
        assert needed < profile.distinct_paths() / 2

    def test_str_rendering(self):
        profile = PathProfile(counts={("f", (1, 2)): 4})
        (hot,) = profile.hot_paths(1)
        assert "f: 1.2" in str(hot)
        assert "x4" in str(hot)


class TestCompactedProfile:
    """path_profile_compacted serves the same profile from a .twpp file."""

    @pytest.fixture
    def twpp_and_partitioned(self, tmp_path, small_workload):
        _program, _spec, wpp = small_workload
        part = partition_wpp(wpp)
        compacted, _stats = compact_wpp(part)
        path = tmp_path / "w.twpp"
        write_twpp(compacted, path)
        return path, part

    def test_matches_partitioned_profile(self, twpp_and_partitioned):
        path, part = twpp_and_partitioned
        reference = path_profile(part)
        from_file = path_profile_compacted(path)
        assert from_file.counts == reference.counts

    def test_reuses_an_open_engine(self, twpp_and_partitioned):
        path, part = twpp_and_partitioned
        with QueryEngine(path) as engine:
            profile = path_profile_compacted(engine)
            assert profile.counts == path_profile(part).counts
            # Engine stays open and warm for further queries.
            assert engine.traces(part.func_names[0]) is not None
            assert engine.cache_stats()["entries"] > 0
