import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from prime_router.errors import (
    InvalidParamsError,
    ParseError,
    VersionUnsupportedError,
)
from prime_router.graph import KIND_CONSTANT_PRODUCT, KIND_PIECEWISE
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


STRUCTURE_RULES = ["duplicate_token_id", "decimals_31", "duplicate_pool_id",
                   "dangling_token", "one_token_pool", "repeated_token_in_pool",
                   "reserves_tokens_mismatch", "piecewise_missing_direction",
                   "piecewise_repeated_direction"]


def _break_structure(data, rule):
    """Make snapshot JSON break one structure rule; return the entry's path."""
    tokens, pools = data["tokens"], data["pools"]
    if rule == "duplicate_token_id":
        tokens[1]["id"] = tokens[0]["id"]
        return "tokens[1]"
    if rule == "decimals_31":
        tokens[2]["decimals"] = 31
        return "tokens[2]"
    if rule == "duplicate_pool_id":
        pools[3]["id"] = pools[0]["id"]
        return "pools[3]"
    if rule == "dangling_token":
        pools[1]["tokens"][1] = "0xdeadbeef"
        return "pools[1]"
    if rule.startswith("piecewise_"):
        i = next(i for i, p in enumerate(pools) if p["kind"] == KIND_PIECEWISE)
        directions = pools[i]["directions"]
        if rule == "piecewise_missing_direction":
            directions.pop()
        else:
            directions.append(directions[0])
        return f"pools[{i}]"
    i = next(i for i, p in enumerate(pools)
             if p["kind"] == KIND_CONSTANT_PRODUCT)
    pool = pools[i]
    if rule == "one_token_pool":
        del pool["tokens"][1:], pool["reserves"][1:]
    elif rule == "repeated_token_in_pool":
        pool["tokens"][1] = pool["tokens"][0]
    else:
        assert rule == "reserves_tokens_mismatch"
        pool["reserves"].append("5")
    return f"pools[{i}]"


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
        known = snap.pools[0].tokens[0]
        # a list-wrapped id is unhashable and must not reach the id lookup
        for bad in ("0xdeadbeef", [known]):
            data = json.loads(dumps_snapshot(snap))
            data["pools"][0]["tokens"][0] = bad
            with pytest.raises(ParseError) as err:
                loads_snapshot(json.dumps(data))
            assert "pools[0]" in str(err.value)

    def test_version_gate(self):
        snap = small_snapshot()
        data = json.loads(dumps_snapshot(snap))
        data["version"] = 2
        with pytest.raises(VersionUnsupportedError):
            loads_snapshot(json.dumps(data))

    @pytest.mark.parametrize("key", ["fee_bps", "decimals", "version"])
    def test_boolean_for_int_rejected(self, key):
        # JSON true is a Python bool, which isinstance() counts as an int
        data = json.loads(dumps_snapshot(small_snapshot()))
        holder = {"fee_bps": data["pools"][0], "decimals": data["tokens"][0],
                  "version": data}[key]
        holder[key] = True
        with pytest.raises(ParseError, match=f"{key!r} has wrong type"):
            loads_snapshot(json.dumps(data))

    @pytest.mark.parametrize("rule", STRUCTURE_RULES)
    def test_structure_rule_names_entry(self, rule):
        # graph's structure rules fire at load, under the entry's JSON path
        data = json.loads(dumps_snapshot(small_snapshot()))
        path = _break_structure(data, rule)
        with pytest.raises(ParseError) as err:
            loads_snapshot(json.dumps(data))
        assert str(err.value).startswith(f"{path}: ")

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


def test_rules_hold_without_asserts():
    # python -O strips assert statements; no snapshot rule may rely on one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = """if True:
        import json, sys
        from prime_router.errors import MalformedSnapshotError, ParseError
        from prime_router.graph import Pool, Token, build_graph
        from prime_router.io import loads_snapshot
        print(sys.flags.optimize)
        toks = [Token("T0", "A", 18), Token("T1", "B", 18)]
        for pool in (Pool("P0", "constant_product", ("T0", "T1"), 0, (0, 10)),
                     Pool("P0", "constant_product", ("T0",), 0, (10,))):
            try:
                build_graph(toks, [pool])
            except MalformedSnapshotError:
                print("graph")
        bad = {"version": 1, "block_ref": "x", "pools": [],
               "tokens": [{"id": "T0", "symbol": "A", "decimals": 31}]}
        try:
            loads_snapshot(json.dumps(bad))
        except ParseError:
            print("io")
    """
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["1", "graph", "graph", "io"]
