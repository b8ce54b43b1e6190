"""Tests for the benchmark's own helpers.

    python3 -m pytest gridbench/tests -q
"""

import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from layers import attribute, layer_classifier  # noqa: E402
from repro import Grid3Config  # noqa: E402
from service_mix import READ_KINDS, READS_PER_KIND, request_mix  # noqa: E402
from simulator import per_slice_best  # noqa: E402
from stats import min_samples, percentile, samples_beyond  # noqa: E402


# -- the percentile rule -------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    for q in (0.5, 0.9, 0.99):
        need = min_samples(q)
        assert percentile(list(range(need - 1)), q) is None
        assert percentile(list(range(need)), q) is not None
        for n in range(need, need + 50):
            assert samples_beyond(n, q) >= 10
    assert min_samples(0.5) == 20


def test_percentile_interpolates_sorted_samples():
    values = list(range(100, 0, -1))  # unsorted on purpose
    assert percentile(values, 0.5) == 50.5
    assert abs(percentile(values, 0.9) - 90.1) < 1e-9


# -- the per-slice best ---------------------------------------------------------

def test_per_slice_best_sums_the_fastest_time_of_each_slice():
    runs = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 4.0, 1.5]]
    assert per_slice_best(runs) == 1.0 + 1.0 + 1.5
    assert per_slice_best([[1.0, 2.0]]) == 3.0


def test_per_slice_best_rejects_simulations_of_different_shape():
    try:
        per_slice_best([[1.0, 2.0], [1.0]])
    except RuntimeError:
        return
    raise AssertionError("slice lists of different length were summed")


# -- the seeded request mix ------------------------------------------------------

def test_request_mix_same_seed_same_sequence():
    assert request_mix(7, 0, 30) == request_mix(7, 0, 30)
    assert request_mix(7, 0, 30) != request_mix(8, 0, 30)
    assert request_mix(7, 0, 30) != request_mix(7, 1, 30)
    # The simulated work is the same for every seed; only reads differ.
    assert ([c["config"] for c in request_mix(7, 0, 30)]
            == [c["config"] for c in request_mix(8, 0, 30)])


def test_request_mix_fixed_composition_and_distinct_runs():
    digests = set()
    for client in (0, 1):
        for cycle in request_mix(3, client, 50):
            kinds = [kind for kind, _u in cycle["reads"]]
            assert sorted(kinds) == sorted(READ_KINDS * READS_PER_KIND)
            assert all(0.0 <= u < 1.0 for _kind, u in cycle["reads"])
            digests.add(Grid3Config(**cycle["config"]).canonical_digest())
    assert len(digests) == 100


# -- layer attribution ---------------------------------------------------------

FAKE = os.sep + os.path.join("fake", "repro")


def _toy_stats():
    """A toy call tree: sim.loop -> stdlib.helper -> stdlib.inner, and
    monitoring.poll -> stdlib.helper."""
    loop = (os.path.join(FAKE, "sim", "engine.py"), 1, "loop")
    poll = (os.path.join(FAKE, "monitoring", "core.py"), 1, "poll")
    top = (os.path.join(FAKE, "cli.py"), 1, "main")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    inner = ("/usr/lib/python3/bisect.py", 1, "inner")
    return {
        loop: (1, 1, 2.0, 6.0, {}),
        poll: (3, 3, 1.0, 2.0, {}),
        top: (1, 1, 0.5, 0.5, {}),
        # helper: 3.0 s self, of which 2.0 s under loop, 1.0 s under poll.
        helper: (4, 4, 3.0, 4.0, {loop: (1, 1, 2.0, 3.0),
                                  poll: (3, 3, 1.0, 1.0)}),
        # inner: called only by helper (once under loop, 3x under poll).
        inner: (1, 1, 1.0, 1.0, {helper: (1, 1, 1.0, 1.0)}),
    }


def test_attribution_charges_outside_code_to_calling_layer():
    stats = _toy_stats()
    self_s, calls = attribute(stats, layer_classifier(FAKE))
    assert self_s["sim"] == 2.0 + 2.0 + 1.0 * 0.25
    assert self_s["monitoring"] == 1.0 + 1.0 + 1.0 * 0.75
    assert self_s["core"] == 0.5
    assert abs(sum(self_s.values()) - 7.5) < 1e-12
    assert calls == {"sim": 1, "monitoring": 3, "core": 1}


def test_attribution_of_a_real_profile_builtin_time_goes_to_caller():
    source = (
        "def work(n):\n"
        "    total = 0\n"
        "    for _ in range(n):\n"
        "        total += len(sorted(range(200, 0, -1)))\n"
        "    return total\n"
    )
    namespace = {}
    exec(compile(source, os.path.join(FAKE, "scheduling", "toy.py"), "exec"),
         namespace)
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    namespace["work"](300)
    profile.disable()
    stats = pstats.Stats(profile).stats
    self_s, calls = attribute(stats, layer_classifier(FAKE))
    total = sum(entry[2] for entry in stats.values())
    assert set(self_s) == {"scheduling"}
    assert abs(self_s["scheduling"] - total) < 1e-9
    assert calls["scheduling"] == 1
