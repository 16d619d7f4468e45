import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from prime_router import io as io_mod
from prime_router.errors import (
    AmountOverflowError,
    InvalidParamsError,
    ParseError,
    VersionUnsupportedError,
)
from prime_router.cfmm import Segment
from prime_router.engine import RouteQuery, prepare_routing
from prime_router.graph import (
    KIND_CONSTANT_PRODUCT,
    KIND_PIECEWISE,
    AdmittedPools,
    Pool,
    PoolDirection,
    Token,
)
from prime_router.io import (
    Snapshot,
    dumps_snapshot,
    generate_synthetic,
    load_snapshot,
    loads_snapshot,
    save_snapshot,
    snapshot_from_dict,
    snapshot_hash,
)

from oracles import snapshot_text_oracle


def small_snapshot(seed=1):
    return generate_synthetic(seed, 8, 12, hub_fraction=0.25,
                              reserve_spread_orders=4)


def odd_text_snapshot():
    """Ids, symbols and a block ref with non-ASCII characters, quotes and
    backslashes, in a constant-product and a piecewise pool."""
    a, b, c = 'tök"en\\a', "токен-б", "t\u00e9\u20ac\U0001f600\n"
    toks = (Token(a, 'Sym"\\', 18), Token(b, "Σ", 6), Token(c, "€", 0))
    seg = (Segment(10**6, 10**9, 10**9),)
    pools = (Pool('p"1\\', KIND_CONSTANT_PRODUCT, (a, b), 30,
                  (10**20, 10**21)),
             Pool("пул-2", KIND_PIECEWISE, (b, c), 5, directions=(
                 PoolDirection(b, c, seg), PoolDirection(c, b, seg))))
    return Snapshot(1, 'blöck "ref" \\ 7', toks, pools)


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

    def test_one_string_per_token_id(self):
        # every pool and direction token is the admitted Token.id itself,
        # not the JSON's copy, and every kind is the module constant
        snap = loads_snapshot(dumps_snapshot(generate_synthetic(
            13, 40, 140, hub_fraction=0.1, reserve_spread_orders=6)))
        ids = {t.id: t.id for t in snap.tokens}
        assert any(p.directions for p in snap.pools)
        for p in snap.pools:
            assert all(t is ids[t] for t in p.tokens)
            for d in p.directions:
                assert d.token_in is ids[d.token_in]
                assert d.token_out is ids[d.token_out]
            assert p.kind is (KIND_PIECEWISE if p.directions
                              else KIND_CONSTANT_PRODUCT)

    def test_hash_tracks_content(self):
        a, b = small_snapshot(1), small_snapshot(2)
        assert snapshot_hash(a) != snapshot_hash(b)
        assert snapshot_hash(a) == snapshot_hash(small_snapshot(1))


class TestStreamedWriter:
    SNAPSHOTS = {
        "small": small_snapshot,
        # 15% of a generated market's pools are piecewise
        "piecewise": lambda: generate_synthetic(21, 60, 200, hub_fraction=0.1,
                                                reserve_spread_orders=6),
        "odd_text": odd_text_snapshot,
    }

    @pytest.mark.parametrize("name", sorted(SNAPSHOTS))
    def test_bytes_match_one_dump_of_the_whole_tree(self, name, tmp_path):
        snap = self.SNAPSHOTS[name]()
        if name == "piecewise":
            assert any(p.kind == KIND_PIECEWISE for p in snap.pools)
        expected = snapshot_text_oracle(snap)
        assert dumps_snapshot(snap) == expected
        path = tmp_path / "snap.json"
        save_snapshot(snap, path)
        assert path.read_bytes() == expected.encode("utf-8")
        assert snapshot_hash(snap) == hashlib.sha256(
            expected.encode("utf-8")).hexdigest()
        assert loads_snapshot(expected) == snap

    def test_save_holds_a_small_fraction_of_the_file(self, tmp_path):
        # a dict tree of every entry plus the whole text would hold several
        # times the file; the streamed writer holds about one entry
        snap = generate_synthetic(5, 2000, 5000, 0.01, 6)
        path = tmp_path / "snap.json"
        tracemalloc.start()
        try:
            save_snapshot(snap, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10


class TestLoadReadsTheFile:
    def test_load_holds_one_copy_of_the_text(self, tmp_path):
        # the text is decoded from a mapping of the file: the file's bytes
        # are never held next to it
        path = tmp_path / "snap.json"
        save_snapshot(generate_synthetic(5, 2000, 5000, 0.01, 6), path)
        tracemalloc.start()
        try:
            text = io_mod._read_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == path.read_text(encoding="utf-8")
        assert peak < 1.5 * path.stat().st_size

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(ParseError) as err:
            load_snapshot(path)
        assert str(err.value) == ("snapshot: invalid JSON at line 1, "
                                  "column 1")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_pipe_is_read(self, tmp_path):
        snap = small_snapshot()
        path = tmp_path / "snap.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=save_snapshot, args=(snap, path))
        writer.start()
        try:
            assert load_snapshot(path) == snap
        finally:
            writer.join()

    def test_invalid_utf8_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(dumps_snapshot(small_snapshot()).encode("utf-8")
                         + b"\xff")
        with pytest.raises(UnicodeDecodeError):
            load_snapshot(path)


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


_AMOUNT = "amounts must be canonical decimal strings"
_SEG = "pools[10].directions[1].segments[2]"
_DELETE = object()

# (edits as (JSON path, new value or _DELETE), the exact message) against
# small_snapshot(), whose pool 2 is constant-product and pool 10 piecewise
# with three segments in direction 1; several edits pin which field of an
# entry is reported first
PARSE_MESSAGES = {
    "version_missing": ([(("version",), _DELETE)],
                        "snapshot: missing field 'version'"),
    "version_bool": ([(("version",), True)],
                     "snapshot: field 'version' has wrong type"),
    "version_before_block_ref": (
        [(("version",), 2), (("block_ref",), _DELETE)],
        "snapshot: snapshot version 2 unsupported"),
    "block_ref_wrong_type": ([(("block_ref",), 7)],
                             "snapshot: field 'block_ref' has wrong type"),
    "tokens_not_a_list": ([(("tokens",), {})],
                          "snapshot: field 'tokens' has wrong type"),
    "pools_missing": ([(("pools",), _DELETE)],
                      "snapshot: missing field 'pools'"),
    "tokens_before_pools": (
        [(("tokens", 3, "id"), 5), (("pools",), _DELETE)],
        "tokens[3]: field 'id' has wrong type"),
    "token_missing_key": ([(("tokens", 3, "symbol"), _DELETE)],
                          "tokens[3]: missing field 'symbol'"),
    "token_wrong_type": ([(("tokens", 3, "id"), 5)],
                         "tokens[3]: field 'id' has wrong type"),
    "token_bool_for_int": ([(("tokens", 3, "decimals"), True)],
                           "tokens[3]: field 'decimals' has wrong type"),
    "token_not_an_object": ([(("tokens", 3), ["T"])],
                            "tokens[3]: missing field 'id'"),
    "token_first_field_wins": (
        [(("tokens", 3, "symbol"), _DELETE), (("tokens", 3, "id"), 5)],
        "tokens[3]: field 'id' has wrong type"),
    "pool_missing_key": ([(("pools", 2, "fee_bps"), _DELETE)],
                         "pools[2]: missing field 'fee_bps'"),
    "pool_wrong_type": ([(("pools", 2, "kind"), 3)],
                        "pools[2]: field 'kind' has wrong type"),
    "pool_bool_for_int": ([(("pools", 2, "fee_bps"), False)],
                          "pools[2]: field 'fee_bps' has wrong type"),
    "pool_token_wrong_type": ([(("pools", 2, "tokens", 1), 5)],
                              "pools[2]: field 'tokens' has wrong type"),
    "pool_not_an_object": ([(("pools", 2), "P")],
                           "pools[2]: missing field 'id'"),
    "pool_first_field_wins": (
        [(("pools", 2, "fee_bps"), _DELETE), (("pools", 2, "kind"), 3)],
        "pools[2]: field 'kind' has wrong type"),
    "pool_unknown_kind": ([(("pools", 2, "kind"), "stable")],
                          "pools[2]: unknown pool kind 'stable'"),
    "pool_reserves_missing": ([(("pools", 2, "reserves"), _DELETE)],
                              "pools[2]: missing field 'reserves'"),
    "pool_reserves_not_a_list": ([(("pools", 2, "reserves"), "1")],
                                 "pools[2]: field 'reserves' has wrong type"),
    "pool_amount_leading_zero": ([(("pools", 2, "reserves", 1), "012")],
                                 f"pools[2].reserves[1]: {_AMOUNT}"),
    "pool_amount_number": ([(("pools", 2, "reserves", 0), 5)],
                           f"pools[2].reserves[0]: {_AMOUNT}"),
    "pool_first_amount_wins": (
        [(("pools", 2, "reserves", 1), "-1"), (("pools", 2, "reserves", 0), "")],
        f"pools[2].reserves[0]: {_AMOUNT}"),
    "pool_directions_missing": ([(("pools", 10, "directions"), _DELETE)],
                                "pools[10]: missing field 'directions'"),
    "direction_missing_key": (
        [(("pools", 10, "directions", 1, "segments"), _DELETE)],
        "pools[10].directions[1]: missing field 'segments'"),
    "direction_wrong_type": (
        [(("pools", 10, "directions", 1, "token_in"), 1)],
        "pools[10].directions[1]: field 'token_in' has wrong type"),
    "direction_bool_for_str": (
        [(("pools", 10, "directions", 1, "token_out"), True)],
        "pools[10].directions[1]: field 'token_out' has wrong type"),
    "direction_segments_not_a_list": (
        [(("pools", 10, "directions", 1, "segments"), {})],
        "pools[10].directions[1]: field 'segments' has wrong type"),
    "direction_not_an_object": ([(("pools", 10, "directions", 1), "d")],
                                "pools[10].directions[1]: missing field "
                                "'token_in'"),
    "segment_missing_key": (
        [(("pools", 10, "directions", 1, "segments", 2,
           "virtual_reserve_in"), _DELETE)],
        f"{_SEG}: missing field 'virtual_reserve_in'"),
    "segment_wrong_type": (
        [(("pools", 10, "directions", 1, "segments", 2, "capacity_in"), 5)],
        f"{_SEG}.capacity_in: {_AMOUNT}"),
    "segment_bool_for_amount": (
        [(("pools", 10, "directions", 1, "segments", 2,
           "virtual_reserve_out"), True)],
        f"{_SEG}.virtual_reserve_out: {_AMOUNT}"),
    "segment_amount_leading_zero": (
        [(("pools", 10, "directions", 1, "segments", 2,
           "virtual_reserve_in"), "00")],
        f"{_SEG}.virtual_reserve_in: {_AMOUNT}"),
    "segment_not_an_object": (
        [(("pools", 10, "directions", 1, "segments", 2), [])],
        f"{_SEG}: missing field 'capacity_in'"),
    "segment_missing_before_bad": (
        [(("pools", 10, "directions", 1, "segments", 2,
           "virtual_reserve_in"), "x"),
         (("pools", 10, "directions", 1, "segments", 2, "capacity_in"),
          _DELETE)],
        f"{_SEG}: missing field 'capacity_in'"),
    "segment_bad_before_missing": (
        [(("pools", 10, "directions", 1, "segments", 2,
           "virtual_reserve_in"), _DELETE),
         (("pools", 10, "directions", 1, "segments", 2, "capacity_in"),
          "1.5")],
        f"{_SEG}.capacity_in: {_AMOUNT}"),
}

# amounts int() would take, or str.isdigit() accepts, that are not canonical
NON_CANONICAL = ["", "0x10", "1e18", "1.0", "+5", "-5", " 5", "5 ", "5_0",
                 "00", "²", "٣", "１２"]


def _edited(edits):
    data = json.loads(dumps_snapshot(small_snapshot()))
    for path, value in edits:
        holder = data
        for key in path[:-1]:
            holder = holder[key]
        if value is _DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return json.dumps(data)


class TestParseErrors:
    @pytest.mark.parametrize("case", sorted(PARSE_MESSAGES))
    def test_exact_message(self, case):
        edits, message = PARSE_MESSAGES[case]
        with pytest.raises(ParseError) as err:
            loads_snapshot(_edited(edits))
        assert str(err.value) == message

    @pytest.mark.parametrize("amount", NON_CANONICAL)
    def test_non_canonical_amount_names_the_field(self, amount):
        for path, ctx in ((("pools", 2, "reserves", 0), "pools[2].reserves[0]"),
                          (("pools", 10, "directions", 1, "segments", 2,
                            "capacity_in"), f"{_SEG}.capacity_in")):
            with pytest.raises(ParseError) as err:
                loads_snapshot(_edited([(path, amount)]))
            assert str(err.value) == f"{ctx}: {_AMOUNT}"

    def test_trailing_newline_amount_rejected(self):
        # int() strips the newline, so "12\n" would load as 12 and save back
        # as "12": the snapshot would not round-trip byte for byte
        for path, ctx in ((("pools", 2, "reserves", 1), "pools[2].reserves[1]"),
                          (("pools", 10, "directions", 1, "segments", 2,
                            "virtual_reserve_out"),
                           f"{_SEG}.virtual_reserve_out")):
            with pytest.raises(ParseError) as err:
                loads_snapshot(_edited([(path, "12\n")]))
            assert str(err.value) == f"{ctx}: {_AMOUNT}"

    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_overlong_amount_names_the_field(self, digits):
        # more digits than int() reads: an overflow under the field's path,
        # not int()'s bare ValueError
        for path, ctx in ((("pools", 2, "reserves", 1), "pools[2].reserves[1]"),
                          (("pools", 10, "directions", 1, "segments", 2,
                            "virtual_reserve_in"),
                           f"{_SEG}.virtual_reserve_in")):
            with pytest.raises(AmountOverflowError) as err:
                loads_snapshot(_edited([(path, "1" * digits)]))
            assert str(err.value) == (f"{ctx}: {digits}-digit amount "
                                      f"exceeds 256-bit range")

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

    def test_token_lookup_keeps_the_field_errors(self):
        # the lookup that finds each Token.id also tests the field: what
        # iterates to admitted ids but is no list still has the wrong type,
        # and a dangling id still reaches the structure rule
        known = small_snapshot().pools[0].tokens
        for bad, message in (
                (dict.fromkeys(known, 0), "field 'tokens' has wrong type"),
                (known[0], "field 'tokens' has wrong type"),
                ([known[0], "0xdead"],
                 "pool 'P000000': dangling token id '0xdead'")):
            with pytest.raises(ParseError) as err:
                loads_snapshot(_edited([(("pools", 0, "tokens"), bad)]))
            assert str(err.value) == f"pools[0]: {message}"

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


def _compact(data) -> str:
    """``data`` in the canonical layout: sorted keys, compact, a newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _outcome(load, arg):
    """What ``load(arg)`` returns, or the class and message of the error
    it raises."""
    try:
        return load(arg)
    except Exception as exc:
        return type(exc), str(exc)


def _full_decode(text):
    return snapshot_from_dict(io_mod._decode(text))


def _with_two_faults(name):
    """small_snapshot()'s canonical text with two faults."""
    data = json.loads(dumps_snapshot(small_snapshot()))
    tokens, pools = data["tokens"], data["pools"]
    if name == "bad_token_and_bad_pool":
        pools[2]["kind"] = 3
        tokens[5]["id"] = 5
    elif name == "late_syntax_error_and_bad_version":
        data["version"] = 2
        text = _compact(data)
        at = text.rindex('"fee_bps":')
        return text[:at] + '"fee_bps":,' + text[at + len('"fee_bps":'):]
    elif name == "early_bad_pool_and_late_syntax_error":
        pools[1]["kind"] = "stable"
        text = _compact(data)
        at = text.rindex('"fee_bps":')
        return text[:at] + text[at + len('"fee_bps":'):]
    elif name == "dangling_id_and_duplicate_pool_id":
        pools[4]["id"] = pools[0]["id"]
        pools[1]["tokens"][1] = "0xdeadbeef"
    elif name == "overlong_amount_and_bad_token":
        pools[0]["reserves"][0] = "1" * 5000
        tokens[7]["decimals"] = 31
    else:
        assert name == "bad_segment_and_extra_key"
        pools[10]["directions"][1]["segments"][2]["capacity_in"] = "00"
        data["zzz"] = []
    return _compact(data)


TWO_FAULTS = ["bad_token_and_bad_pool", "late_syntax_error_and_bad_version",
              "early_bad_pool_and_late_syntax_error",
              "dangling_id_and_duplicate_pool_id",
              "overlong_amount_and_bad_token", "bad_segment_and_extra_key"]


def _variant(name):
    """small_snapshot()'s entries in a text that is not the canonical
    layout."""
    data = json.loads(dumps_snapshot(small_snapshot()))
    if name == "indented":
        return json.dumps(data, sort_keys=True, indent=2)
    if name == "key_order":
        return json.dumps(dict(reversed(sorted(data.items()))),
                          separators=(",", ":"))
    if name == "leading_space":
        return " " + _compact(data)
    if name == "extra_key_first":
        data["aaa"] = 1
    elif name == "extra_key_last":
        data["zzz"] = [1]
    else:
        # a token field that is an array, then one named "tokens": the
        # text's last '],"tokens":[' is inside the token array
        assert name == "nested_tokens_key"
        data["tokens"][-1].update(t=[1], tokens=[2])
    return _compact(data)


VARIANTS = ["indented", "key_order", "leading_space", "extra_key_first",
            "extra_key_last", "nested_tokens_key"]


class TestStreamedLoad:
    """Canonical text is streamed; any other text, and any fault, takes
    the full decode, and both load what it loads."""

    CANONICAL = {
        "small": lambda: dumps_snapshot(small_snapshot()),
        "odd_text": lambda: dumps_snapshot(odd_text_snapshot()),
        "no_pools": lambda: dumps_snapshot(Snapshot(
            1, "empty", small_snapshot().tokens, ())),
        "no_newline": lambda: dumps_snapshot(small_snapshot()).rstrip("\n"),
        "piecewise": lambda: dumps_snapshot(generate_synthetic(21, 60, 200)),
    }

    @pytest.fixture
    def decodes(self, monkeypatch):
        """The texts ``_decode`` is given, in order."""
        seen = []
        decode = io_mod._decode

        def spy(text):
            seen.append(text)
            return decode(text)
        monkeypatch.setattr(io_mod, "_decode", spy)
        return seen

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_canonical_text_is_streamed(self, name, decodes, tmp_path):
        text = self.CANONICAL[name]()
        want = snapshot_from_dict(json.loads(text))
        path = tmp_path / "snap.json"
        path.write_text(text, encoding="utf-8")
        for got in (loads_snapshot(text), load_snapshot(path)):
            assert got == want
            assert isinstance(got.pools, AdmittedPools)
            assert got.pools.tokens is got.tokens
        assert decodes == []

    def test_canonical_text_never_decodes_whole(self, monkeypatch):
        def forbidden(text):
            raise AssertionError("canonical text was decoded whole")
        monkeypatch.setattr(io_mod, "_decode", forbidden)
        snap = generate_synthetic(21, 60, 200)
        assert loads_snapshot(dumps_snapshot(snap)) == snap

    @pytest.mark.parametrize("name", VARIANTS)
    def test_other_layouts_take_the_full_decode(self, name, decodes):
        text = _variant(name)
        assert loads_snapshot(text) == snapshot_from_dict(json.loads(text))
        assert decodes == [text]

    @pytest.mark.parametrize("name", TWO_FAULTS)
    def test_two_faults_raise_what_the_full_decode_raises(self, name,
                                                          tmp_path):
        text = _with_two_faults(name)
        want = _outcome(_full_decode, text)
        assert isinstance(want, tuple)
        path = tmp_path / "snap.json"
        path.write_text(text, encoding="utf-8")
        assert _outcome(loads_snapshot, text) == want
        assert _outcome(load_snapshot, path) == want

    @pytest.mark.parametrize("case", sorted(PARSE_MESSAGES))
    def test_parse_errors_in_the_canonical_layout(self, case):
        # each of TestParseErrors' texts, laid out as save_snapshot writes
        edits, message = PARSE_MESSAGES[case]
        with pytest.raises(ParseError) as err:
            loads_snapshot(_compact(json.loads(_edited(edits))))
        assert str(err.value) == message

    def test_load_peaks_near_what_it_keeps(self, tmp_path):
        # one pool entry's dict at a time: the peak is about the text and
        # the entries; a dict tree of every pool next to them read 1.96x
        path = tmp_path / "snap.json"
        save_snapshot(generate_synthetic(5, 2000, 5000, 0.01, 6), path)
        tracemalloc.start()
        try:
            snap = load_snapshot(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(snap.pools) == 5000
        assert peak < 1.3 * (held + path.stat().st_size)


def test_prepare_routing_peaks_near_what_stage0_keeps(tmp_path):
    # the shortcut scan's exit lists are dropped before the shortcut edges
    # are built: prepare_routing's peak over what stage 0 then holds read
    # 0.006x of it, against 0.030x with the lists alive through the build
    path = tmp_path / "snap.json"
    save_snapshot(generate_synthetic(5, 2000, 5000, 0.01, 6), path)
    tracemalloc.start()
    try:
        g = load_snapshot(path).build_graph()
        ids = sorted(g.tokens)
        tracemalloc.reset_peak()
        prepared = prepare_routing(g, RouteQuery(ids[0], ids[1], 1))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prepared.shortcut_index) > 1000
    assert peak - held < 0.015 * held


# window sizes, in bytes, that cut nearly every token, key and entry
WINDOWS = [1, 7, 64]


def _straddles(data: bytes, window: int) -> bool:
    """Whether a multibyte UTF-8 character between the pools key and the
    top-level tokens key of ``data`` spans the edge of two windows."""
    at = data.index(b',"pools":[')
    for ch in data[at:data.rindex(b'],"tokens":[')].decode("utf-8"):
        n = len(ch.encode("utf-8"))
        if n > 1 and at // window != (at + n - 1) // window:
            return True
        at += n
    return False


class TestWindowedLoad:
    """A regular file in the canonical layout is read in windows: at any
    window size it loads what the full decode loads, and raises what it
    raises."""

    @pytest.fixture(params=WINDOWS)
    def window(self, request, monkeypatch):
        monkeypatch.setattr(io_mod, "_WINDOW", request.param)
        return request.param

    @pytest.fixture
    def no_decode(self, monkeypatch):
        def forbidden(text):
            raise AssertionError("canonical text was decoded whole")
        monkeypatch.setattr(io_mod, "_decode", forbidden)

    @pytest.mark.parametrize("name", sorted(TestStreamedLoad.CANONICAL))
    def test_canonical_file_loads_what_the_full_decode_loads(
            self, name, window, no_decode, tmp_path):
        text = TestStreamedLoad.CANONICAL[name]()
        path = tmp_path / "snap.json"
        path.write_text(text, encoding="utf-8")
        got = load_snapshot(path)
        assert got == snapshot_from_dict(json.loads(text))
        assert isinstance(got.pools, AdmittedPools)
        assert got.pools.tokens is got.tokens

    def test_raw_utf8_across_a_window_edge(self, window, no_decode,
                                           tmp_path):
        # save_snapshot escapes non-ASCII, but the layout allows it raw;
        # the block ref's length moves a character onto a window's edge
        data = json.loads(dumps_snapshot(odd_text_snapshot()))
        for pad in range(window + 4):
            data["block_ref"] = "x" * pad
            raw = json.dumps(data, sort_keys=True, separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
            if _straddles(raw, window):
                break
        else:
            pytest.fail("no character straddles a window edge")
        path = tmp_path / "snap.json"
        path.write_bytes(raw)
        assert load_snapshot(path) == snapshot_from_dict(json.loads(raw))

    @pytest.mark.parametrize("bad", [b"\xff", b"\xd0", b"\xe2\x82"])
    def test_invalid_utf8_in_the_pools_raises_what_the_full_decode_raises(
            self, bad, window, tmp_path):
        raw = dumps_snapshot(small_snapshot()).encode("utf-8")
        at = raw.index(b'"P000003"') + 2
        path = tmp_path / "snap.json"
        path.write_bytes(raw[:at] + bad + raw[at:])
        want = _outcome(lambda p: str(p.read_bytes(), "utf-8"), path)
        assert want[0] is UnicodeDecodeError
        assert _outcome(load_snapshot, path) == want

    @pytest.mark.parametrize("name", TWO_FAULTS)
    def test_two_faults_raise_what_the_full_decode_raises(self, name, window,
                                                          tmp_path):
        text = _with_two_faults(name)
        want = _outcome(_full_decode, text)
        assert isinstance(want, tuple)
        path = tmp_path / "snap.json"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_snapshot, path) == want

    @pytest.mark.parametrize("name", VARIANTS)
    def test_other_layouts_load_from_a_file(self, name, window, tmp_path):
        text = _variant(name)
        path = tmp_path / "snap.json"
        path.write_text(text, encoding="utf-8")
        assert load_snapshot(path) == snapshot_from_dict(json.loads(text))

    def test_canonical_file_is_never_mapped(self, monkeypatch, no_decode,
                                            tmp_path):
        def refused(*args, **kwargs):
            raise AssertionError("the file was mapped")
        monkeypatch.setattr(io_mod.mmap, "mmap", refused)
        snap = generate_synthetic(21, 60, 200)
        path = tmp_path / "snap.json"
        save_snapshot(snap, path)
        assert load_snapshot(path) == snap

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_pipe_is_never_read_in_windows(self, monkeypatch, tmp_path):
        windowed = []
        monkeypatch.setattr(io_mod, "_windowed",
                            lambda *args: windowed.append(args))
        snap = small_snapshot()
        path = tmp_path / "snap.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=save_snapshot, args=(snap, path))
        writer.start()
        try:
            assert load_snapshot(path) == snap
        finally:
            writer.join()
        assert windowed == []

    def test_load_transient_does_not_grow_with_the_file(self, tmp_path):
        # the transient (traced peak less what the load keeps) is a few
        # windows, the tokens' tail and the pool map: 0.84 and 1.26 MB
        # here, where a text of the whole file read 2.58 and 8.46 MB
        transient, size = [], []
        for pools in (5000, 20000):
            path = tmp_path / f"snap-{pools}.json"
            save_snapshot(generate_synthetic(5, 2000, pools, 0.01, 6), path)
            tracemalloc.start()
            try:
                snap = load_snapshot(path)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(snap.pools) == pools
            del snap
            transient.append(peak - held)
            size.append(path.stat().st_size)
        assert transient[1] < transient[0] + (1 << 20)
        assert transient[1] < size[1] / 4


class TestParseErrorsInWindows(TestParseErrors):
    """Every ``TestParseErrors`` case, from a file laid out as
    ``save_snapshot`` writes (where its JSON parses) and read in windows
    of a few bytes."""

    @pytest.fixture(autouse=True, params=WINDOWS)
    def from_a_file(self, request, monkeypatch, tmp_path):
        monkeypatch.setattr(io_mod, "_WINDOW", request.param)

        def load_from_a_file(text):
            try:
                text = _compact(json.loads(text))
            except ValueError:
                pass
            path = tmp_path / "snap.json"
            path.write_text(text, encoding="utf-8")
            return load_snapshot(path)
        monkeypatch.setitem(globals(), "loads_snapshot", load_from_a_file)


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
        with pytest.raises(InvalidParamsError,
                           match="^reserve_spread_orders must be >= 1$"):
            generate_synthetic(1, 10, 20, reserve_spread_orders=0)


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
