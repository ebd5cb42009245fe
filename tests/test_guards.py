from schubert_clans.guards import BoundedStore


def test_bounded_store_weighs_entries_and_evicts_oldest_first():
    store = BoundedStore()
    store.trim(0)  # nothing to evict
    assert (list(store), store.weight) == ([], 0)
    assert store.put("a", (1, 2, 3)) == (1, 2, 3)
    store.put("b", (4,))
    store.put("c", (5, 6))
    store.put("d", ())
    assert store.weight == 6
    store.trim(6)  # already within the bound
    assert list(store) == ["a", "b", "c", "d"]
    # a read does not renew an entry: eviction follows insertion order
    assert store.get("a") == (1, 2, 3)
    store.trim(5)
    assert (list(store), store.weight) == (["b", "c", "d"], 3)
    store.trim(2)
    assert (list(store), store.weight) == (["c", "d"], 2)
    # eviction stops once the weight is within the bound, so an entry of
    # weight 0 may stay
    store.trim(0)
    assert (list(store), store.weight) == (["d"], 0)


def test_bounded_store_clear_resets_the_weight():
    store = BoundedStore()
    store.put("a", (1, 2))
    store.put("b", (3,))
    store.clear()
    assert (list(store), store.weight) == ([], 0)
    store.put("c", (4,))
    assert store.weight == 1


def test_bounded_store_trim_survives_an_emptied_store():
    # another thread may empty the store while this one trims, leaving a
    # weight that no entry backs; trim must not raise
    store = BoundedStore()
    store.weight = 5
    store.trim(1)
    assert (list(store), store.weight) == ([], 0)

