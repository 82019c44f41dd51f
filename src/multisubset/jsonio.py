"""JSON formats and seeded generators for the CLI-facing objects.

Exact-ring values (modp) are serialized as decimal strings so they
survive JSON's float semantics; f64 values are plain numbers.  All
writers emit deterministic bytes for identical inputs.
"""

from __future__ import annotations

import json
import random

from .analysis import OmegaTable
from .cover import CoverDesign
from .dag import WeightSystem
from .ring import Ring
from .setfn import Family, SetFunction

MAX_GENERATED_N = 16


def _encode_value(ring: Ring, value):
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
    if ring.exact:
        if isinstance(raw, float):
            raise ValueError("exact-ring files must store values as strings")
        return ring.from_int(int(raw))
    return float(raw)


def _decode_values(ring: Ring, raws, n: int, where: str) -> list:
    if not isinstance(raws, list):
        raise ValueError(f"{where} must be an array of values")
    if len(raws) != 1 << n:
        raise ValueError(f"{where}: expected {1 << n} values, got {len(raws)}")
    try:
        return [_decode_value(ring, raw) for raw in raws]
    except TypeError as exc:
        raise ValueError(f"{where} holds a value that is not a number") from exc


def set_function_to_dict(f: SetFunction) -> dict:
    return {"n": f.n, "values": [_encode_value(f.ring, v) for v in f.values]}


def set_function_from_dict(ring: Ring, data: dict) -> SetFunction:
    n = _field(data, "n", int)
    values = _field(data, "values", list)
    return SetFunction(ring, n, _decode_values(ring, values, n, "'values'"))


def family_to_dict(fam: Family) -> dict:
    return {
        "n": fam.n,
        "functions": [
            [_encode_value(fam.ring, v) for v in member.values]
            for member in fam.members
        ],
    }


def family_from_dict(ring: Ring, data: dict) -> Family:
    n = _field(data, "n", int)
    functions = _field(data, "functions", list)
    if len(functions) != n:
        raise ValueError(f"family needs exactly {n} functions, got {len(functions)}")
    members = [
        SetFunction(ring, n, _decode_values(ring, values, n, "each of 'functions'"))
        for values in functions
    ]
    return Family(ring, n, members)


def weight_system_to_dict(wsys: WeightSystem) -> dict:
    return {
        "n": wsys.n,
        "weights": [
            [_encode_value(wsys.ring, v) for v in w.values]
            for w in wsys.weights
        ],
    }


def weight_system_from_dict(ring: Ring, data: dict) -> WeightSystem:
    n = _field(data, "n", int)
    weights = _field(data, "weights", list)
    if len(weights) != n:
        raise ValueError(f"expected {n} weight arrays, got {len(weights)}")
    return WeightSystem(
        ring,
        n,
        [
            SetFunction(ring, n, _decode_values(ring, values, n, "each of 'weights'"))
            for values in weights
        ],
    )


def cover_design_to_dict(design: CoverDesign) -> dict:
    return {
        "v": design.v,
        "k": design.k,
        "s": design.s,
        "blocks": list(design.blocks),
    }


def cover_design_from_dict(data: dict) -> CoverDesign:
    blocks = _field(data, "blocks", list)
    if not all(isinstance(b, int) for b in blocks):
        raise ValueError("key 'blocks' must hold integers")
    v, k, s = (_field(data, key, int) for key in ("v", "k", "s"))
    return CoverDesign(v, k, s, tuple(blocks))


def omega_table_from_dict(data: dict) -> OmegaTable:
    pairs = _field(data, "anchors", list)
    try:
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
