from collections import Counter

from hypothesis import settings

from dualheap import sift_down_max, sift_down_min

# Keep test runs reproducible; the library's own determinism is asserted
# elsewhere, no need for shrink-seed noise here.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def same_multiset(a, b) -> bool:
    return Counter(a) == Counter(b)


def reference_build_min(view, tally) -> None:
    """Per-node bottom-up build: the reference the inlined builder must match
    in buffer and counters."""
    for i in range(view.lhn // 2, 0, -1):
        sift_down_min(view, i, tally)


def reference_build_max(view, tally) -> None:
    for i in range(view.shn // 2, 0, -1):
        sift_down_max(view, i, tally)
