import pytest

from multisubset import greedy_cover, make_ring, values_equal
from multisubset.jsonio import (
    cover_design_from_dict,
    cover_design_to_dict,
    dumps,
    family_from_dict,
    family_to_dict,
    generate_family,
    generate_weight_system,
    load_json,
    omega_table_from_dict,
    save_json,
    set_function_from_dict,
    set_function_to_dict,
    weight_system_from_dict,
    weight_system_to_dict,
)

from helpers import random_family, random_setfn


def test_set_function_roundtrip(modp):
    f = random_setfn(modp, 5, seed=1)
    data = set_function_to_dict(f)
    assert all(isinstance(v, str) for v in data["values"])
    back = set_function_from_dict(modp, data)
    assert values_equal(modp, back.values, f.values)


def test_family_roundtrip(modp):
    fam = random_family(modp, 4, seed=2)
    data = family_to_dict(fam)
    assert set(data) == {"n", "functions"}
    back = family_from_dict(modp, data)
    for a, b in zip(back.members, fam.members):
        assert values_equal(modp, a.values, b.values)


def test_family_roundtrip_f64():
    ring = make_ring("f64")
    fam = random_family(ring, 3, seed=3)
    data = family_to_dict(fam)
    assert all(isinstance(v, float) for row in data["functions"] for v in row)
    back = family_from_dict(ring, data)
    for a, b in zip(back.members, fam.members):
        assert a.values == b.values  # exact float round-trip through json types


def test_weight_system_roundtrip(modp):
    wsys = generate_weight_system(4, modp, seed=4)
    back = weight_system_from_dict(modp, weight_system_to_dict(wsys))
    for a, b in zip(back.weights, wsys.weights):
        assert values_equal(modp, a.values, b.values)


def test_exact_values_must_be_strings(modp):
    data = {"n": 1, "values": [1.5, 2.5]}
    with pytest.raises(ValueError):
        set_function_from_dict(modp, data)
    ok = {"n": 1, "values": ["3", 4]}  # ints are fine, floats are not
    assert set_function_from_dict(modp, ok).values == [3, 4]


def test_shape_rejections(modp):
    with pytest.raises(ValueError):
        set_function_from_dict(modp, {"n": 2, "values": ["1", "2", "3"]})
    with pytest.raises(ValueError):
        family_from_dict(modp, {"n": 2, "functions": [["1"] * 4]})
    with pytest.raises(ValueError):
        weight_system_from_dict(modp, {"n": 1, "weights": []})


@pytest.mark.parametrize("data", [
    {"values": ["1", "2"]},
    [],
    {"n": 1.0, "values": ["1", "2"]},
    {"n": True, "values": ["1", "2"]},
    {"n": 1, "values": "12"},
    {"n": 1, "values": [["1"], "2"]},
])
def test_set_function_missing_key_or_wrong_type(modp, data):
    with pytest.raises(ValueError, match="'(n|values)'"):
        set_function_from_dict(modp, data)


def test_cover_design_missing_key_or_wrong_type():
    data = cover_design_to_dict(greedy_cover(4, 3, 2))
    for key, bad in (("v", "4"), ("blocks", 7), ("blocks", [1.5])):
        with pytest.raises(ValueError, match=repr(key)):
            cover_design_from_dict({**data, key: bad})
    with pytest.raises(ValueError, match="'s'"):
        cover_design_from_dict({k: v for k, v in data.items() if k != "s"})


def test_cover_design_roundtrip():
    design = greedy_cover(6, 3, 2)
    back = cover_design_from_dict(cover_design_to_dict(design))
    assert back == design


def test_omega_table_from_dict():
    tab = omega_table_from_dict({"anchors": [[0, 2.0], [1, 2.38]]})
    assert tab.upper(1.0) == pytest.approx(2.38)
    with pytest.raises(ValueError):
        omega_table_from_dict({"anchors": [[1, 2.38], [0, 2.0]]})
    for bad in ({"anker": []}, [1, 2], {"anchors": [5]}, {"anchors": [["a", 2.0]]}):
        with pytest.raises(ValueError, match="'anchors'"):
            omega_table_from_dict(bad)


def test_dumps_deterministic(modp):
    fam = random_family(modp, 3, seed=9)
    text = dumps(family_to_dict(fam))
    assert text == dumps(family_to_dict(fam))
    assert text.endswith("\n")
    assert text.startswith('{\n  "functions"')  # sorted keys


def test_save_and_load(tmp_path, modp):
    fam = generate_family(3, modp, seed=0)
    path = tmp_path / "fam.json"
    save_json(str(path), family_to_dict(fam))
    data = load_json(str(path))
    back = family_from_dict(modp, data)
    for a, b in zip(back.members, fam.members):
        assert values_equal(modp, a.values, b.values)


def test_generators_deterministic(modp):
    a = generate_family(5, modp, seed=7)
    b = generate_family(5, modp, seed=7)
    c = generate_family(5, modp, seed=8)
    assert family_to_dict(a) == family_to_dict(b)
    assert family_to_dict(a) != family_to_dict(c)
    with pytest.raises(ValueError):
        generate_family(17, modp, seed=0)


def test_generated_weights_respect_self_loop_rule(modp):
    wsys = generate_weight_system(5, modp, seed=11)
    for i, w in enumerate(wsys.weights):
        for mask in range(1 << 5):
            if (mask >> i) & 1:
                assert w.values[mask] == modp.zero
