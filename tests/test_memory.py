"""Memory regressions of the store's data: the containment graph keeps
tuples and lists, not a set per node, and `dump_state` streams its text
instead of holding every line and their join at once."""

import sys
import tracemalloc

import pytest

from flutes import Store, find_members
from flutes.benchgen import GenConfig, define_schema, generate, insert_text


@pytest.fixture(scope="module")
def reopened(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("memory") / "kb")
    with Store(path) as s:
        s.same_as("dob", "birth_date")
        insert_text(s, generate(GenConfig(persons=2000, transactions=800,
                                          extra_attrs=5, seed=7)))
        define_schema(s, "p0")
        find_members(s)
    s = Store(path)
    yield s
    s.close()


def test_adjacency_is_tuples_and_lists(reopened):
    assert reopened.contains_map and reopened.contained_by_map
    assert all(type(refs) is tuple for refs in reopened.contains_map.values())
    assert all(type(users) is list
               for users in reopened.contained_by_map.values())
    # a term that holds no alias shares the empty tuple
    assert () in reopened.contains_map.values()


def test_dump_state_peak_stays_within_three_times_its_text(reopened):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = reopened.dump_state()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sys.getsizeof(text)
