import json
import random

import pytest

from prime_router.errors import (
    InvalidParamsError,
    ParseError,
    VersionUnsupportedError,
)
from prime_router.io import (
    Snapshot,
    dumps_snapshot,
    generate_synthetic,
    load_snapshot,
    loads_snapshot,
    save_snapshot,
    snapshot_hash,
)


def small_snapshot(seed=1):
    return generate_synthetic(seed, 8, 12, hub_fraction=0.25,
                              reserve_spread_orders=4)


class TestRoundTrip:
    def test_save_load_structural_identity(self, tmp_path):
        snap = small_snapshot()
        path = tmp_path / "snap.json"
        save_snapshot(snap, path)
        again = load_snapshot(path)
        assert again == snap

    def test_canonical_bytes_stable(self, tmp_path):
        snap = small_snapshot()
        once = dumps_snapshot(snap)
        twice = dumps_snapshot(loads_snapshot(once))
        assert once == twice

    def test_hash_tracks_content(self):
        a, b = small_snapshot(1), small_snapshot(2)
        assert snapshot_hash(a) != snapshot_hash(b)
        assert snapshot_hash(a) == snapshot_hash(small_snapshot(1))


class TestParseErrors:
    def test_float_style_amount_rejected(self):
        snap = small_snapshot()
        data = json.loads(dumps_snapshot(snap))
        for pool in data["pools"]:
            if "reserves" in pool:
                pool["reserves"][0] = "1e18"
                break
        with pytest.raises(ParseError) as err:
            loads_snapshot(json.dumps(data))
        assert "decimal" in str(err.value)

    def test_numeric_amount_rejected(self):
        snap = small_snapshot()
        data = json.loads(dumps_snapshot(snap))
        for pool in data["pools"]:
            if "reserves" in pool:
                pool["reserves"][0] = 10**18
                break
        with pytest.raises(ParseError):
            loads_snapshot(json.dumps(data))

    def test_unknown_token_reference(self):
        snap = small_snapshot()
        data = json.loads(dumps_snapshot(snap))
        data["pools"][0]["tokens"][0] = "0xdeadbeef"
        with pytest.raises(ParseError) as err:
            loads_snapshot(json.dumps(data))
        assert "pools[0]" in str(err.value)

    def test_version_gate(self):
        snap = small_snapshot()
        data = json.loads(dumps_snapshot(snap))
        data["version"] = 2
        with pytest.raises(VersionUnsupportedError):
            loads_snapshot(json.dumps(data))

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            loads_snapshot("{not json")
        assert "line" in str(err.value)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic(1, 10, 20, 0.2, 6)
        b = generate_synthetic(1, 10, 20, 0.2, 6)
        assert a == b
        c = generate_synthetic(2, 10, 20, 0.2, 6)
        assert a != c

    def test_tree_floor_is_connected(self):
        snap = generate_synthetic(3, 12, 11, 0.2, 4)
        g = snap.build_graph()
        seen = {g.token_ids()[0]}
        frontier = [g.token_ids()[0]]
        while frontier:
            u = frontier.pop()
            for v, _ in g.out_items(u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert seen == set(g.token_ids())

    def test_reserve_spread_guaranteed(self):
        snap = generate_synthetic(4, 20, 40, 0.2, 11)
        reserves = []
        for pool in snap.pools:
            if pool.reserves:
                reserves.extend(pool.reserves)
            for d in pool.directions:
                reserves.extend(s.virtual_reserve_in for s in d.segments)
        assert max(reserves) / min(reserves) >= 10**10

    def test_graph_builds_clean(self):
        for seed in range(5):
            snap = generate_synthetic(seed, 15, 30, 0.2, 8)
            g = snap.build_graph()
            assert g.edge_count >= 2 * len(snap.pools)

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            generate_synthetic(1, 1, 5)
        with pytest.raises(InvalidParamsError):
            generate_synthetic(1, 10, 3)
        with pytest.raises(InvalidParamsError):
            generate_synthetic(1, 10, 20, hub_fraction=0.0)
