"""Tests of the benchmark's own helpers: span arithmetic, the AURC oracle,
the tracer's thread attachment and the hierarchical generator."""

import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import exact_aurc  # noqa: E402
from spans import Tracer, self_time, union_length  # noqa: E402
from workloads import HierSpec, hier_subfamilies  # noqa: E402


def span(start, end, **extra):
    return {"start": start, "end": end, **extra}


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = span(0.0, 10.0)
    # [1, 4] and [3, 6] overlap (covering 5), [8, 12] sticks out past the end (2)
    children = [span(1.0, 4.0), span(3.0, 6.0), span(8.0, 12.0)]
    assert self_time(parent, children) == 3.0
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [span(11.0, 12.0)]) == 10.0


def test_exact_aurc_hand_case_is_11_over_96():
    scores = [0.9, 0.8, 0.7, 0.6]
    errors = [False, False, True, False]
    assert exact_aurc(scores, errors) == Fraction(11, 96)


def test_exact_aurc_endpoints_and_ties():
    assert exact_aurc([0.9, 0.5, 0.1], [False] * 3) == 0
    assert exact_aurc([0.9, 0.5, 0.1], [True] * 3) == 1
    # one tied score group is one point at full coverage: risk 1/2 throughout
    assert exact_aurc([0.5, 0.5], [True, False]) == Fraction(1, 2)


def test_pool_thread_spans_attach_to_the_open_main_thread_span():
    tracer = Tracer()
    module = types.SimpleNamespace()

    def member(i):
        time.sleep(0.01)
        return i

    def scan():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(module.member, range(4)))

    module.member, module.scan = member, scan
    tracer.wrap(module, "member", "member")
    tracer.wrap(module, "scan", "scan")
    assert module.scan() == [0, 1, 2, 3]

    (parent,) = [s for s in tracer.spans if s["name"] == "scan"]
    members = [s for s in tracer.spans if s["name"] == "member"]
    assert len(members) == 4
    assert all(s["parent"] == parent["id"] for s in members)
    assert parent["parent"] is None
    # two threads overlap, so self time is less than the duration minus one member
    assert 0 <= self_time(parent, members) < parent["end"] - parent["start"]


def test_hierarchical_generator_is_deterministic_per_seed():
    small = HierSpec(n_families=2, n_subfamilies=2, per_subfamily=5, novel_samples=4)
    a, b, c = (hier_subfamilies(seed, small) for seed in (7, 7, 8))
    assert np.array_equal(a.train_values, b.train_values)
    assert np.array_equal(a.eval_values, b.eval_values)
    assert a.train_labels == b.train_labels and a.eval_novel == b.eval_novel
    assert not np.array_equal(a.eval_values, c.eval_values)


def test_hierarchical_generator_layout():
    spec = HierSpec(n_families=2, n_subfamilies=3, per_subfamily=4, fresh_per_subfamily=2,
                    novel_samples=5)
    data = hier_subfamilies(0, spec)
    block = spec.family_width + spec.n_subfamilies * spec.private_width
    assert data.train_values.shape == ((spec.n_families + 1) * block, 2 * 3 * 4)
    assert sorted(set(data.train_labels)) == [f"fam{f}.sub{s}" for f in range(2)
                                              for s in range(3)]
    assert sum(data.eval_novel) == 5 and len(data.eval_ids) == 2 * 3 * (4 + 2) + 5
    assert set(data.train_ids) < set(data.eval_ids)
    assert (data.eval_values >= 0).all()
