"""JSON formats and seeded generators for the CLI-facing objects.

Exact-ring values (modp) are serialized as decimal strings so they
survive JSON's float semantics, and read back from decimal strings or
JSON integers; f64 values are finite JSON numbers, never strings.  All
writers emit deterministic bytes for identical inputs.
"""

from __future__ import annotations

import json
import math
import random
import re

from .analysis import OmegaTable
from .cover import CoverDesign
from .dag import WeightSystem
from .ring import Ring
from .setfn import Family, SetFunction

MAX_GENERATED_N = 16
# An exact value given as a string: optional sign, ASCII digits, nothing else.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def encode_value(ring: Ring, value):
    """One ring value as stored in a file: a decimal string or a float."""
    return str(value) if ring.exact else float(value)


def _field(data, key: str, kind: type):
    """data[key] as an int or list; a ValueError naming the key otherwise."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"expected a JSON object with key {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "an integer" if kind is int else "an array"
        raise ValueError(f"key {key!r} must hold {what}")
    return value


def _decode_value(ring: Ring, raw):
    """An exact value is a JSON integer or a decimal string; f64 a finite number."""
    if isinstance(raw, bool):
        raise ValueError("values must be numbers, not booleans")
    if ring.exact:
        if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
            raw = int(raw)
        if not isinstance(raw, int):
            raise ValueError(
                f"exact-ring values must be integers or decimal strings, got {raw!r}"
            )
        return ring.from_int(raw)
    try:
        finite = isinstance(raw, (int, float)) and math.isfinite(raw)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ValueError(f"f64 values must be finite JSON numbers, got {raw!r}")
    return float(raw)


def _decode_values(ring: Ring, raws, n: int, where: str) -> list:
    if not isinstance(raws, list):
        raise ValueError(f"{where} must be an array of values")
    if len(raws) != 1 << n:
        raise ValueError(f"{where}: expected {1 << n} values, got {len(raws)}")
    try:
        return [_decode_value(ring, raw) for raw in raws]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _tables_to_dict(ring: Ring, n: int, key: str, tables) -> dict:
    """A file of n value tables, under `key`, over an n-element ground set."""
    return {"n": n, key: [[encode_value(ring, v) for v in t.values] for t in tables]}


def _tables_from_dict(ring: Ring, data, key: str) -> tuple[int, list[SetFunction]]:
    n = _field(data, "n", int)
    tables = _field(data, key, list)
    if len(tables) != n:
        raise ValueError(f"expected {n} arrays under {key!r}, got {len(tables)}")
    where = f"each of {key!r}"
    return n, [SetFunction(ring, n, _decode_values(ring, t, n, where)) for t in tables]


def set_function_to_dict(f: SetFunction) -> dict:
    return {"n": f.n, "values": [encode_value(f.ring, v) for v in f.values]}


def set_function_from_dict(ring: Ring, data: dict) -> SetFunction:
    n = _field(data, "n", int)
    values = _field(data, "values", list)
    return SetFunction(ring, n, _decode_values(ring, values, n, "'values'"))


def family_to_dict(fam: Family) -> dict:
    return _tables_to_dict(fam.ring, fam.n, "functions", fam.members)


def family_from_dict(ring: Ring, data: dict) -> Family:
    return Family(ring, *_tables_from_dict(ring, data, "functions"))


def weight_system_to_dict(wsys: WeightSystem) -> dict:
    return _tables_to_dict(wsys.ring, wsys.n, "weights", wsys.weights)


def weight_system_from_dict(ring: Ring, data: dict) -> WeightSystem:
    return WeightSystem(ring, *_tables_from_dict(ring, data, "weights"))


def cover_design_to_dict(design: CoverDesign) -> dict:
    return {
        "v": design.v,
        "k": design.k,
        "s": design.s,
        "blocks": list(design.blocks),
    }


def cover_design_from_dict(data: dict) -> CoverDesign:
    blocks = _field(data, "blocks", list)
    if not all(isinstance(b, int) and not isinstance(b, bool) for b in blocks):
        raise ValueError("key 'blocks' must hold integers")
    v, k, s = (_field(data, key, int) for key in ("v", "k", "s"))
    return CoverDesign(v, k, s, tuple(blocks))


def omega_table_from_dict(data: dict) -> OmegaTable:
    pairs = _field(data, "anchors", list)
    try:
        if any(isinstance(x, bool) for pair in pairs for x in pair):
            raise ValueError("a boolean is not a number")
        anchors = tuple((float(k), float(w)) for k, w in pairs)
    except (TypeError, ValueError) as exc:
        raise ValueError("key 'anchors' must hold [k, bound] pairs of numbers") from exc
    return OmegaTable(anchors)


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_generated_n(n: int) -> None:
    if not 0 <= n <= MAX_GENERATED_N:
        raise ValueError(f"generator supports n in [0, {MAX_GENERATED_N}]")


def generate_family(n: int, ring: Ring, seed: int) -> Family:
    """Seeded random family: n functions with uniform ring samples."""
    _check_generated_n(n)
    rng = random.Random(seed)
    members = [
        SetFunction(ring, n, [ring.sample(rng) for _ in range(1 << n)])
        for _ in range(n)
    ]
    return Family(ring, n, members)


def generate_weight_system(n: int, ring: Ring, seed: int) -> WeightSystem:
    """Seeded random weights with the self-loop entries forced to zero."""
    _check_generated_n(n)
    rng = random.Random(seed)
    weights = []
    for i in range(n):
        vals = [
            ring.zero if (mask >> i) & 1 else ring.sample(rng)
            for mask in range(1 << n)
        ]
        weights.append(SetFunction(ring, n, vals))
    return WeightSystem(ring, n, weights)
