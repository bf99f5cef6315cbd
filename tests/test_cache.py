import json

import pytest

from isom4.cache import CACHE_FORMAT_VERSION, ResultCache
from isom4.errors import InvalidInputError


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get("alpha") is None
    cache.put("alpha", {"x": [1, 2]})
    assert cache.get("alpha") == {"x": [1, 2]}


def test_cache_get_or_compute(tmp_path):
    cache = ResultCache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return 42

    value, hit = cache.get_or_compute("k", compute)
    assert (value, hit) == (42, False)
    value, hit = cache.get_or_compute("k", compute)
    assert (value, hit) == (42, True)
    assert len(calls) == 1


def test_cache_corrupt_file_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", 1)
    path = cache._path("k")
    path.write_text("{not json", encoding="utf-8")
    assert cache.get("k") is None


def test_cache_version_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", 1)
    path = cache._path("k")
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["version"] = CACHE_FORMAT_VERSION + 1
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get("k") is None


def test_cache_key_collision_slugs(tmp_path):
    # distinct keys that sanitize to the same slug: the stored key
    # disambiguates, so at most one of them can hit
    cache = ResultCache(tmp_path)
    cache.put("a/b", 1)
    assert cache.get("a b") is None
    assert cache.get("a/b") == 1


def test_cache_long_keys_are_hashed(tmp_path):
    cache = ResultCache(tmp_path)
    k1 = "x" * 400
    k2 = "x" * 400 + "y"
    cache.put(k1, "one")
    cache.put(k2, "two")
    assert cache.get(k1) == "one"
    assert cache.get(k2) == "two"
    assert all(len(p.name) < 150 for p in cache.root.iterdir())


def test_cache_rejects_unprintable_key(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(InvalidInputError):
        cache.put("///", 1)


def test_cache_creates_directory(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    ResultCache(nested)
    assert nested.is_dir()
