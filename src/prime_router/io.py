"""Snapshot and result formats, plus the synthetic instance generator.

Snapshots are canonical JSON: sorted keys, compact separators, every amount a
decimal string (floats would silently corrupt 256-bit quantities).  The same
bytes always come back out: save(load(save(x))) is byte-identical, so a sha256
of them identifies a market state.  Writing streams: one generator yields
the text an entry at a time, and ``save_snapshot`` writes, ``dumps_snapshot``
joins and ``snapshot_hash`` digests those chunks, so a save never holds the
whole text or a dict tree of every entry.

Loading checks the JSON itself (fields, types, decimal strings, version, pool
kind, string token ids), then graph's structure rules per entry, re-raised as
ParseError with the entry's path.  That is the only time a loaded entry
passes them: the snapshot's pools are an ``AdmittedPools`` admitted against
its tokens, which ``build_graph`` does not check again (a ``Snapshot`` built
by hand is checked in full).  Curve rules, the 256-bit range of every
amount among them, run later, in ``build_graph``; only an amount too long for
``int`` to read is an AmountOverflowError here, naming its path.
It is one pass: an entry's fields are read at once and pass one combined
test, and only an entry that fails it is walked again, field by field, to
name the first bad field.

A canonical file is read in bounded windows and never mapped.  A regular
file laid out exactly as ``save_snapshot`` writes it (``{"block_ref":…,
"pools":[…],"tokens":[…],"version":…}``, compact, at most whitespace after
it) is read through one buffered handle in ``_WINDOW``-byte windows: its
tail, from the last ``],"tokens":[`` to the end, is found by reading
backwards and gives the tokens and version; the text before it is read
forwards, the block ref first, then the pools one entry at a time, each
admitted before the next is decoded.  So neither the file's bytes nor its
text is held whole, and one pool's dict is alive at a time, not a dict
tree of every pool.  ``loads_snapshot`` reads the text it is given the
same way, as its only window.  Everything else (another layout, any
fault the reader finds, a pipe or other file that is not regular) goes
through the full decode: the file's text decoded from a read-only mapping
of it, ``json.loads``, then ``snapshot_from_dict``, which raises the error
of the text's first fault and frees the text before it builds the
entries.

One string per token id: a pool's tokens and a piecewise direction's ends
reference the admitted ``Token.id``, not the JSON's fresh copy of it (the
criterion-7 market's 25,000 pools mention its 10,000 tokens 65,376 times),
and ``Pool.kind`` is the ``graph`` constant.  An id no token has keeps the
JSON's string, for ``add_pool`` to name in its error.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import mmap
import os
import random
import stat
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .allocation import TraceRow
from .engine import RouteSolution
from .errors import (
    AmountOverflowError,
    InvalidParamsError,
    MalformedSnapshotError,
    ParseError,
    VersionUnsupportedError,
)
from .graph import (
    KIND_CONSTANT_PRODUCT,
    KIND_PIECEWISE,
    AdmittedPools,
    Pool,
    PoolDirection,
    SwapGraph,
    Token,
    add_pool,
    add_token,
    build_graph,
    gc_paused,
)
from .cfmm import Segment

SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Snapshot:
    version: int
    block_ref: str
    tokens: Tuple[Token, ...]
    pools: Tuple[Pool, ...]

    def build_graph(self) -> SwapGraph:
        return build_graph(self.tokens, self.pools)


def _encode_amount(value: int) -> str:
    return str(value)


def _pool_entry(p: Pool) -> dict:
    entry = {
        "id": p.id,
        "kind": p.kind,
        "tokens": list(p.tokens),
        "fee_bps": p.fee_bps,
    }
    if p.kind == KIND_CONSTANT_PRODUCT:
        entry["reserves"] = [_encode_amount(r) for r in p.reserves]
    else:
        entry["directions"] = [
            {
                "token_in": d.token_in,
                "token_out": d.token_out,
                "segments": [
                    {
                        "capacity_in": _encode_amount(seg.capacity_in),
                        "virtual_reserve_in": _encode_amount(seg.virtual_reserve_in),
                        "virtual_reserve_out": _encode_amount(seg.virtual_reserve_out),
                    }
                    for seg in d.segments
                ],
            }
            for d in p.directions
        ]
    return entry


def _snapshot_chunks(s: Snapshot) -> Iterator[str]:
    """The canonical text of ``s`` in chunks, one per token and pool entry.

    The top-level keys come in sorted order, and each entry is encoded
    alone with sorted keys and compact separators, so the chunks join to
    what ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` makes
    of the whole snapshot, plus a newline.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    yield '{"block_ref":' + encode(s.block_ref) + ',"pools":['
    for i, p in enumerate(s.pools):
        yield ("," if i else "") + encode(_pool_entry(p))
    yield '],"tokens":['
    for i, t in enumerate(s.tokens):
        yield ("," if i else "") + encode(
            {"id": t.id, "symbol": t.symbol, "decimals": t.decimals})
    yield '],"version":' + encode(s.version) + "}\n"


_AMOUNT_MESSAGE = "amounts must be canonical decimal strings"


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, list)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_amount(value) -> bool:
    """A canonical decimal string: ASCII digits only (``str.isdigit`` alone
    would take ``'²'``), with no leading zero."""
    return (isinstance(value, str) and value.isascii() and value.isdigit()
            and (value[0] != "0" or len(value) == 1))


# (key, test) for every field of an entry, in the order errors are reported
_TOKEN_FIELDS = (("id", _is_str), ("symbol", _is_str), ("decimals", _is_int))
_POOL_FIELDS = (("id", _is_str), ("kind", _is_str), ("tokens", _is_str_list),
                ("fee_bps", _is_int))
_DIRECTION_FIELDS = (("token_in", _is_str), ("token_out", _is_str),
                     ("segments", _is_list))
_SEGMENT_FIELDS = (("capacity_in", _is_amount),
                   ("virtual_reserve_in", _is_amount),
                   ("virtual_reserve_out", _is_amount))

_token_fields = itemgetter(*(key for key, _ in _TOKEN_FIELDS))
_pool_fields = itemgetter(*(key for key, _ in _POOL_FIELDS))
_direction_fields = itemgetter(*(key for key, _ in _DIRECTION_FIELDS))
_segment_fields = itemgetter(*(key for key, _ in _SEGMENT_FIELDS))


def _field_error(entry, fields, ctx: str) -> Optional[ParseError]:
    """The error of the first field of ``entry`` that is missing or fails its
    test, in ``fields`` order; None when every field passes.  An amount's
    error names the field itself."""
    for key, test in fields:
        if not isinstance(entry, dict) or key not in entry:
            return ParseError(f"missing field {key!r}", ctx)
        if not test(entry[key]):
            if test is _is_amount:
                return ParseError(_AMOUNT_MESSAGE, f"{ctx}.{key}")
            return ParseError(f"field {key!r} has wrong type", ctx)
    return None


def _snapshot_field(data, key: str, test):
    error = _field_error(data, ((key, test),), "snapshot")
    if error is not None:
        raise error
    return data[key]


def _reserves_error(entry, ctx: str) -> ParseError:
    error = _field_error(entry, (("reserves", _is_list),), ctx)
    if error is None:
        j = next(j for j, r in enumerate(entry["reserves"])
                 if not _is_amount(r))
        error = ParseError(_AMOUNT_MESSAGE, f"{ctx}.reserves[{j}]")
    return error


def _overflow_error(amounts, paths) -> AmountOverflowError:
    """The error of the first of ``amounts`` (canonical decimal strings)
    that ``int`` refuses: one longer than Python converts (4,300 digits by
    default), so far past the 256-bit range that cfmm enforces on the rest."""
    for value, path in zip(amounts, paths):
        try:
            int(value)
        except ValueError:
            break
    return AmountOverflowError(
        f"{path}: {len(value)}-digit amount exceeds 256-bit range")


def _direction(d, i: int, j: int, ids: Dict[str, str]) -> PoolDirection:
    """Direction ``j`` of pool ``i``, a piecewise pool; ``ids`` maps each
    admitted token id to its ``Token.id``."""
    try:
        tin, tout, raw_segments = _direction_fields(d)
        ok = (isinstance(d, dict) and isinstance(tin, str)
              and isinstance(tout, str) and isinstance(raw_segments, list))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise _field_error(d, _DIRECTION_FIELDS, f"pools[{i}].directions[{j}]")
    segments = []
    for m, seg in enumerate(raw_segments):
        try:
            amounts = _segment_fields(seg)
            ok = isinstance(seg, dict) and all(map(_is_amount, amounts))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise _field_error(seg, _SEGMENT_FIELDS,
                               f"pools[{i}].directions[{j}].segments[{m}]")
        try:
            values = tuple(map(int, amounts))
        except ValueError:
            raise _overflow_error(amounts, [
                f"pools[{i}].directions[{j}].segments[{m}].{key}"
                for key, _ in _SEGMENT_FIELDS]) from None
        segments.append(Segment(*values))
    return PoolDirection(ids.get(tin, tin), ids.get(tout, tout),
                         tuple(segments))


def snapshot_from_dict(data: dict) -> Snapshot:
    """Check and admit every entry in one pass.

    Each entry's fields are read at once and pass one combined test; only an
    entry that fails it is walked field by field, by ``_field_error``, so
    the error (and its path) names the first bad field.
    """
    version = _snapshot_field(data, "version", _is_int)
    if version != SNAPSHOT_VERSION:
        raise VersionUnsupportedError(
            f"snapshot version {version} unsupported", "snapshot")
    block_ref = _snapshot_field(data, "block_ref", _is_str)
    token_map: Dict[str, Token] = {}
    ids: Dict[str, str] = {}
    for i, entry in enumerate(_snapshot_field(data, "tokens", _is_list)):
        try:
            tid, symbol, decimals = _token_fields(entry)
            ok = (isinstance(entry, dict) and isinstance(tid, str)
                  and isinstance(symbol, str) and _is_int(decimals))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise _field_error(entry, _TOKEN_FIELDS, f"tokens[{i}]")
        try:
            add_token(token_map, Token(tid, symbol, decimals))
        except MalformedSnapshotError as exc:
            raise ParseError(str(exc), f"tokens[{i}]") from exc
        ids[tid] = tid
    pool_map: Dict[str, Pool] = {}
    admitted = ids.__getitem__
    for i, entry in enumerate(_snapshot_field(data, "pools", _is_pools)):
        try:
            pid, kind, raw_tokens, fee = _pool_fields(entry)
            ok = (isinstance(entry, dict) and isinstance(pid, str)
                  and isinstance(kind, str) and isinstance(raw_tokens, list)
                  and _is_int(fee))
            # only a str finds an admitted id, so the lookup that takes
            # each id's Token.id is also the tokens field's test
            ptokens = tuple(map(admitted, raw_tokens))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            error = _field_error(entry, _POOL_FIELDS, f"pools[{i}]")
            if error is not None:
                raise error
            # every field passes, so an id is dangling: add_pool names it
            ptokens = tuple(raw_tokens)
        if kind == KIND_CONSTANT_PRODUCT:
            raw = entry.get("reserves")
            if not (isinstance(raw, list) and all(map(_is_amount, raw))):
                raise _reserves_error(entry, f"pools[{i}]")
            try:
                reserves = tuple(map(int, raw))
            except ValueError:
                raise _overflow_error(raw, [
                    f"pools[{i}].reserves[{j}]"
                    for j in range(len(raw))]) from None
            pool = Pool(pid, KIND_CONSTANT_PRODUCT, ptokens, fee, reserves)
        elif kind == KIND_PIECEWISE:
            raw = entry.get("directions")
            if not isinstance(raw, list):
                raise _field_error(entry, (("directions", _is_list),),
                                   f"pools[{i}]")
            pool = Pool(pid, KIND_PIECEWISE, ptokens, fee, directions=tuple(
                _direction(d, i, j, ids) for j, d in enumerate(raw)))
        else:
            raise ParseError(f"unknown pool kind {kind!r}", f"pools[{i}]")
        try:
            add_pool(pool_map, token_map, pool)
        except MalformedSnapshotError as exc:
            raise ParseError(str(exc), f"pools[{i}]") from exc
    tokens = tuple(token_map.values())
    return Snapshot(version, block_ref, tokens,
                    AdmittedPools(pool_map.values(), tokens))


def dumps_snapshot(s: Snapshot) -> str:
    return "".join(_snapshot_chunks(s))


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}",
                         "snapshot") from exc


_raw_decode = json.JSONDecoder().raw_decode
_json_space = json.decoder.WHITESPACE.match
_BLOCK_REF_KEY = '{"block_ref":'
_POOLS_KEY = ',"pools":['
_TOKENS_KEY = '],"tokens":['
_VERSION_KEY = ',"version":'
# bytes a canonical file is read in: below glibc's default 128 KiB mmap
# threshold, so a window and its text are heap blocks that are reused
_WINDOW = 1 << 16
# characters an entry may take after the low-water mark: a window is
# refilled once the entries pass it, so an entry is rarely cut off
_LOW_WATER = 1 << 12


class _NotCanonical(ValueError):
    """The text is not laid out as ``save_snapshot`` writes it."""


class _Window:
    """Canonical text read forward: ``text[at:stop]`` is what is left of
    the current window, and ``refill`` adds the next window of the file's
    byte range to it.  A text given whole is its own only window, so no
    slice of it is ever copied.

    Iterating reads the entries of the array that runs to the range's
    end, one at a time, checking each ``,`` and that the last entry ends
    exactly there; ``snapshot_from_dict`` takes it for the pools list.
    An entry that ends past ``low``, ``_LOW_WATER`` characters before the
    window's end (its end on the last window), is where the window is
    refilled, so each entry pays one comparison for it."""

    __slots__ = ("text", "at", "stop", "low", "_fh", "_left", "_utf8")

    def __init__(self, text: str, stop: int, fh=None, left: int = 0):
        self.text, self.at, self.stop, self.low = text, 0, stop, stop
        self._fh, self._left = fh, left
        self._utf8 = codecs.getincrementaldecoder("utf-8")().decode

    def refill(self) -> bool:
        """Add the next window's text to what is left of this one; False
        at the end of the range.  A UTF-8 sequence that a window's edge
        splits is decoded with the next window."""
        while self._left:
            data = self._fh.read(min(_WINDOW, self._left))
            if not data:
                raise _NotCanonical(self._left)
            self._left -= len(data)
            more = self._utf8(data, not self._left)
            if more:
                self.text = self.text[self.at:self.stop] + more
                self.at, self.stop = 0, len(self.text)
                self.low = (self.stop - _LOW_WATER if self._left
                            else self.stop)
                return True
        return False

    def expect(self, key: str) -> None:
        while self.stop - self.at < len(key) and self.refill():
            pass
        if not self.text.startswith(key, self.at, self.stop):
            raise _NotCanonical(self.at)
        self.at += len(key)

    def value(self):
        """The JSON value at the cursor, read past it.  One that runs past
        the range's end fails the next ``expect``."""
        while True:
            try:
                value, self.at = _raw_decode(self.text, self.at)
                return value
            except ValueError:
                # cut off by the window's end, or a fault
                if not self.refill():
                    raise

    def __iter__(self) -> Iterator:
        if self.at == self.stop and not self.refill():
            return
        text, at, low = self.text, self.at, self.low
        while True:
            try:
                entry, at = _raw_decode(text, at)
            except ValueError:
                # an entry longer than the low-water margin
                self.at = at
                if not self.refill():
                    raise
                text, at, low = self.text, self.at, self.low
                continue
            yield entry
            if at >= low:
                self.at = at
                if not self.refill():
                    if at != self.stop:
                        raise _NotCanonical(at)
                    return
                text, at, low = self.text, self.at, self.low
            if text[at] != ",":
                raise _NotCanonical(at)
            at += 1


def _is_pools(value) -> bool:
    return isinstance(value, (list, _Window))


def _canonical(head: _Window, tail: str, at: int) -> Snapshot:
    """The snapshot laid out exactly as ``save_snapshot`` writes it
    (``{"block_ref":…,"pools":[…],"tokens":[…],"version":…}``, compact, at
    most JSON whitespace after it).  ``tail`` holds the top-level tokens
    key at ``at`` and the text after it; ``head`` reads the text before
    that key.  The pools are decoded one entry at a time and admitted as
    they come: no pool's dict outlives its admission.  Raises
    ``_NotCanonical`` on any other layout, and whatever an entry raises."""
    if not tail.startswith(_TOKENS_KEY, at):
        raise _NotCanonical(at)
    tokens, at = _raw_decode(tail, at + len(_TOKENS_KEY) - 1)
    if not tail.startswith(_VERSION_KEY, at):
        raise _NotCanonical(at)
    version, at = _raw_decode(tail, at + len(_VERSION_KEY))
    if tail[at:at + 1] != "}" or _json_space(tail, at + 1).end() != len(tail):
        raise _NotCanonical(at)
    head.expect(_BLOCK_REF_KEY)
    block_ref = head.value()
    head.expect(_POOLS_KEY)
    return snapshot_from_dict({"block_ref": block_ref, "pools": head,
                               "tokens": tokens, "version": version})


def _windowed(fh, size: int) -> Snapshot:
    """``_canonical`` on the regular file ``fh`` of ``size`` bytes, read in
    ``_WINDOW``-byte windows: the tail is found by reading backwards to
    the file's last tokens key (every constant-product pool has a
    "tokens" key too, after its reserves), and the text before it is
    read forwards as the pools are admitted."""
    key = _TOKENS_KEY.encode("ascii")
    end, carry = size, b""
    while True:
        if end <= 0:
            raise _NotCanonical(0)
        begin = max(0, end - _WINDOW)
        fh.seek(begin)
        # a key that a window's end splits is found with the next one
        window = fh.read(end - begin) + carry
        at = window.rfind(key)
        if at >= 0:
            break
        carry, end = window[:len(key) - 1], begin
    stop = begin + at
    fh.seek(stop)
    tail = fh.read(size - stop).decode("utf-8")
    fh.seek(0)
    return _canonical(_Window("", 0, fh, stop), tail, 0)


@gc_paused
def loads_snapshot(text: str) -> Snapshot:
    """The snapshot in ``text``: canonical text is read in place
    (``_canonical``), and any other text, or any fault in it, goes through
    the full decode, which raises what the snapshot's first fault is."""
    try:
        stop = text.rfind(_TOKENS_KEY)
        return _canonical(_Window(text, stop), text, stop)
    except Exception:
        # the partial entries go with the exception, before the decode
        pass
    return snapshot_from_dict(_decode(text))


def save_snapshot(s: Snapshot, path) -> None:
    """Write ``s`` one entry at a time: neither the whole text nor a dict
    tree of the entries is ever held."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_snapshot_chunks(s))


def _read_text(file) -> str:
    """The UTF-8 text of ``file``, a path or the descriptor of a file open
    at its start (left open), decoded straight from a read-only mapping
    of it, so the heap holds one copy of the text, never its bytes as
    well.  An empty file or a pipe, which cannot be mapped, is read."""
    with open(file, "rb", closefd=not isinstance(file, int)) as fh:
        try:
            view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return fh.read().decode("utf-8")
        with view:
            return str(view, "utf-8")


@gc_paused
def load_snapshot(path) -> Snapshot:
    """The snapshot in the file at ``path``, opened once.  A regular file
    in the canonical layout is read in windows (``_windowed``); any other
    file, layout or fault goes through the full decode, which frees the
    text before it builds the entries.  A pipe is never read by the
    windows, so the full decode sees every byte of it."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            try:
                return _windowed(fh, info.st_size)
            except Exception:
                pass
            fh.seek(0)
        data = _decode(_read_text(fh.fileno()))
    return snapshot_from_dict(data)


def snapshot_hash(s: Snapshot) -> str:
    digest = hashlib.sha256()
    for chunk in _snapshot_chunks(s):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def solution_to_dict(sol: RouteSolution) -> dict:
    """Result schema shared by every algorithm; amounts are decimal strings.

    ``stats`` holds every ``RouteStats`` field.
    """
    stats = asdict(sol.stats)
    stats["stage1_objectives"] = [_encode_amount(v)
                                  for v in stats["stage1_objectives"]]
    paths = []
    for p, hop_w, w in zip(sol.paths, sol.allocation.edge_weights,
                           sol.allocation.path_weights):
        hops = []
        for hop, weights in zip(p.hops, hop_w):
            edges = []
            for e, ew in zip(hop, weights):
                entry = {"pool_id": e.pool_id, "weight": ew}
                if e.legs:
                    entry["legs"] = [
                        {"pool_id": leg.pool_id, "token_in": leg.token_in,
                         "token_out": leg.token_out}
                        for leg in e.legs
                    ]
                edges.append(entry)
            hops.append({"token_in": hop[0].token_in,
                         "token_out": hop[0].token_out, "edges": edges})
        paths.append({"tokens": list(p.tokens), "weight": w, "hops": hops})
    return {
        "source": sol.source,
        "target": sol.target,
        "amount": _encode_amount(sol.amount),
        "algorithm": sol.algorithm,
        "total_output": _encode_amount(sol.total_output),
        "tau": sol.tau,
        "paths": paths,
        "execution_plan": [
            {
                "pool_id": st.pool_id,
                "token_in": st.token_in,
                "token_out": st.token_out,
                "amount_in": _encode_amount(st.amount_in),
                "min_out": _encode_amount(st.min_out),
            }
            for st in sol.execution_plan
        ],
        "stats": stats,
    }


def dumps_solution(sol: RouteSolution) -> str:
    return json.dumps(solution_to_dict(sol), sort_keys=True,
                      separators=(",", ":")) + "\n"


def write_trace_csv(trace: Sequence[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,J,g_max,g_min,delta\n")
        for row in trace:
            fh.write(f"{row.t},{row.objective},{row.g_max!r},{row.g_min!r},"
                     f"{row.delta!r}\n")


def generate_synthetic(seed: int, n_tokens: int, n_pools: int,
                       hub_fraction: float = 0.1,
                       reserve_spread_orders: int = 6) -> Snapshot:
    """Deterministic connected market with hub-clustered liquidity.

    A spanning tree guarantees connectivity; the remaining pools attach
    preferentially to hub tokens so degree mass follows the clustering seen
    in real markets.  Every token carries a latent value spanning
    ``reserve_spread_orders`` orders of magnitude and pool reserves are sized
    consistently with those values (cross rates agree within a few percent,
    like an arbitraged market), so the numerical spread stresses arithmetic
    without turning the market into a lattice of free profit.  Both value
    extremes are planted so the max/min reserve ratio is guaranteed.
    """
    if n_tokens < 2:
        raise InvalidParamsError("need at least two tokens")
    if n_pools < n_tokens - 1:
        raise InvalidParamsError("need at least n_tokens-1 pools for connectivity")
    if not (0.0 < hub_fraction <= 1.0):
        raise InvalidParamsError("hub_fraction must be in (0, 1]")
    if reserve_spread_orders < 1:
        raise InvalidParamsError("reserve_spread_orders must be >= 1")
    rng = random.Random(seed)
    n_hubs = max(1, round(hub_fraction * n_tokens))
    spread = float(reserve_spread_orders)

    tokens = []
    value_order: List[float] = []
    for i in range(n_tokens):
        addr = f"0x{rng.getrandbits(160):040x}"
        tokens.append(Token(addr, f"T{i:05d}", 18))
        value_order.append(rng.uniform(-spread / 2.0, spread / 2.0))
    # plant the value extremes on two fixed non-hub tokens (when they exist)
    if n_tokens > n_hubs + 1:
        value_order[n_hubs] = spread / 2.0
        value_order[n_hubs + 1] = -spread / 2.0

    # Preferential attachment via an endpoint bag: a token's draw odds grow
    # with its degree, hubs start with a large boost.  O(1) per draw.
    bag: List[int] = []
    for j in range(n_hubs):
        bag.extend([j] * 30)

    def admit(idx: int) -> None:
        bag.append(idx)

    pairs: List[Tuple[int, int]] = []
    admit(0)
    for i in range(1, n_tokens):
        j = bag[rng.randrange(len(bag))]
        while j >= i:
            j = bag[rng.randrange(len(bag))]
        pairs.append((j, i))
        admit(i)
        admit(j)
    while len(pairs) < n_pools:
        a = bag[rng.randrange(len(bag))]
        b = bag[rng.randrange(len(bag))]
        if a == b:
            continue
        pairs.append((a, b))
        admit(a)
        admit(b)

    def side_reserve(token_idx: int, depth_order: float) -> int:
        # reserves hold `depth` value units of a token priced 10^value_order;
        # the base exponent puts a mid-value token's pool at whole-token
        # scale once the 18-decimal scaling is accounted for
        noise = rng.uniform(0.98, 1.02)
        raw = 10.0**(22.0 + depth_order - value_order[token_idx]) * noise
        return max(1, int(raw))

    pools = []
    for idx, (a, b) in enumerate(pairs):
        pid = f"P{idx:06d}"
        fee = rng.choice((1, 5, 30, 30, 30, 100))
        ta, tb = tokens[a].id, tokens[b].id
        # hub-facing pools are deeper; planted extremes share one fixed depth
        deep = a < n_hubs or b < n_hubs
        if n_hubs in (a, b) or n_hubs + 1 in (a, b):
            depth = 2.0
        else:
            depth = rng.uniform(1.0, 4.0) if deep else rng.uniform(0.0, 2.5)
        if rng.random() < 0.15:
            pools.append(_synthetic_piecewise(rng, pid, (ta, a), (tb, b),
                                              fee, depth, side_reserve))
        else:
            pools.append(Pool(pid, KIND_CONSTANT_PRODUCT, (ta, tb), fee,
                              (side_reserve(a, depth), side_reserve(b, depth))))
    return Snapshot(SNAPSHOT_VERSION, f"synthetic:{seed}",
                    tuple(tokens), tuple(pools))


def _synthetic_piecewise(rng: random.Random, pid: str, side_a, side_b,
                         fee: int, depth: float, side_reserve) -> Pool:
    """Two/three continuous segments per direction, prices stitched smoothly."""
    (ta, a), (tb, b) = side_a, side_b
    directions = []
    for (tin, i_in), (tout, i_out) in (((ta, a), (tb, b)), ((tb, b), (ta, a))):
        vin = side_reserve(i_in, depth)
        vout = side_reserve(i_out, depth)
        segments = []
        k = 10_000 - fee
        for _ in range(rng.randint(2, 3)):
            # every generated market depends on this exact draw; keep it as is
            cap = max(2, int(vin * rng.uniform(1.2, 3.0)))
            segments.append(Segment(cap, vin, vout))
            exhausted = vin * 10_000 + k * cap
            next_vin = max(1, int(vin * rng.uniform(0.8, 2.0)))
            next_vout = (10_000**2 * vin * vout * next_vin) // (exhausted * exhausted)
            if next_vout < 1:
                break
            vin, vout = next_vin, next_vout
        directions.append(PoolDirection(tin, tout, tuple(segments)))
    return Pool(pid, KIND_PIECEWISE, (ta, tb), fee,
                directions=tuple(directions))
