"""Wire formats: round trips, digest binding, malformed input."""

import numpy as np
import pytest

from corrkem import (
    DemCiphertext,
    IkemKey,
    derive_params,
    encap,
    he_encrypt,
    make_table_source,
    sample_n,
    satellite_source,
)
from corrkem import ikem, wire
from corrkem.errors import FormatError, RegimeTooLarge

from conftest import deterministic_pair_source, dishonest


def test_source_json_roundtrip_table():
    src = deterministic_pair_source()
    doc = wire.source_to_json(src)
    back = wire.source_from_json(doc)
    np.testing.assert_array_equal(back.pmf, src.pmf)
    assert back.alphabet_sizes == src.alphabet_sizes


def test_source_json_satellite_and_unknown_type():
    doc = {"type": "satellite", "pa": 0.1, "pb": 0.1, "pe": 0.3}
    back = wire.source_from_json(doc)
    np.testing.assert_allclose(back.pmf, satellite_source(0.1, 0.1, 0.3).pmf)
    with pytest.raises(FormatError):
        wire.source_from_json({"type": "mystery"})
    with pytest.raises(FormatError):
        wire.source_from_json({"type": "satellite", "pa": 0.1})


def test_unlisted_cells_default_to_zero():
    doc = {
        "type": "table",
        "alphabets": [2, 2, 1],
        "pmf": [{"x": 0, "y": 0, "z": 0, "p": 0.5}, {"x": 1, "y": 1, "z": 0, "p": 0.5}],
    }
    src = wire.source_from_json(doc)
    assert src.pmf[0, 1, 0] == 0.0


def _one_cell_table(**cell):
    return {"type": "table", "alphabets": [1, 1, 1],
            "pmf": [{"x": 0, "y": 0, "z": 0, "p": 1.0, **cell}]}


def test_source_json_string_satellite_field():
    with pytest.raises(FormatError):
        wire.source_from_json({"type": "satellite", "pa": "0.05", "pb": 0.05, "pe": 0.3})


def test_source_json_string_cell_coordinate():
    with pytest.raises(FormatError):
        wire.source_from_json(_one_cell_table(x="0"))


def test_source_json_string_probability():
    assert wire.source_from_json(_one_cell_table(p=1)).pmf[0, 0, 0] == 1.0
    with pytest.raises(FormatError):
        wire.source_from_json(_one_cell_table(p="1"))


def test_source_json_duplicate_cell():
    # listed mass 2, but a last-wins read would keep one cell and pass
    doc = _one_cell_table()
    doc["pmf"].append(dict(doc["pmf"][0]))
    with pytest.raises(FormatError):
        wire.source_from_json(doc)


def test_source_json_dense_table_over_cell_cap():
    doc = {"type": "table", "alphabets": [100000, 100000, 100000], "pmf": []}
    with pytest.raises(RegimeTooLarge):
        wire.source_from_json(doc)


def test_params_json_roundtrip():
    src = deterministic_pair_source()
    params = derive_params(src, 24, 0.5, 0.25, 0)
    back = wire.params_from_json(wire.params_to_json(params))
    assert back == params
    with pytest.raises(FormatError):
        wire.params_from_json({"n": 1})


def test_params_json_fields_are_typed():
    doc = wire.params_to_json(derive_params(deterministic_pair_source(), 24, 0.5, 0.25, 0))
    for field, bad in (("n", "24"), ("n", 24.9), ("t", None), ("ell", [3]), ("q_e", True),
                       ("nu", "0"), ("eps", False), ("sigma", 10**400)):
        with pytest.raises(FormatError):
            wire.params_from_json(dict(doc, **{field: bad}))
    with pytest.raises(FormatError):
        wire.params_from_json(["n", 24])


def test_kem_ciphertext_roundtrip_and_digest_binding():
    src = deterministic_pair_source()
    params = derive_params(src, 24, 0.5, 0.25, 0)
    triple = sample_n(src, 24, seed=1)
    ctxt, _ = encap(params, src, triple.x, np.random.default_rng(2))
    raw = wire.kem_ciphertext_to_bytes(params, src, ctxt)
    assert raw[:4] == b"IKM1"
    assert wire.kem_ciphertext_from_bytes(params, src, raw) == ctxt

    other = dishonest(params, ell=params.ell - 1)
    with pytest.raises(FormatError):
        wire.kem_ciphertext_from_bytes(other, src, raw)
    with pytest.raises(FormatError):
        wire.kem_ciphertext_from_bytes(params, src, raw[:-1])
    with pytest.raises(FormatError):
        wire.kem_ciphertext_from_bytes(params, src, b"XXXX" + raw[4:])


def test_kem_decode_takes_the_session_rule_at_most_twice(monkeypatch):
    # once for the block size and the seeds, once in check_ciphertext
    src = deterministic_pair_source()
    params = derive_params(src, 24, 0.5, 0.25, 0)
    ctxt, _ = encap(params, src, sample_n(src, 24, seed=1).x, np.random.default_rng(2))
    raw = wire.kem_ciphertext_to_bytes(params, src, ctxt)
    calls = []
    width = ikem.hash_width
    monkeypatch.setattr(ikem, "hash_width", lambda *args: calls.append(args) or width(*args))
    assert wire.kem_ciphertext_from_bytes(params, src, raw) == ctxt
    assert 1 <= len(calls) <= 2


def test_key_file_roundtrip():
    key = IkemKey(0b1_0110, 5)
    raw = wire.key_to_bytes(key)
    assert raw == (5).to_bytes(2, "big") + bytes([0b1_0110])
    assert wire.key_from_bytes(raw) == key
    with pytest.raises(FormatError):
        wire.key_from_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        wire.key_from_bytes((5).to_bytes(2, "big") + bytes([0xFF]))


def test_a_zero_length_key_is_refused_by_its_length():
    # no bit is too wide here: the declared length is below one bit
    for make in (lambda: wire.key_from_bytes(b"\x00\x00"), lambda: IkemKey(0, 0)):
        with pytest.raises(FormatError, match="^key length must be >= 1 bit, got 0$"):
            make()
    with pytest.raises(FormatError, match="^key bits wider than declared length$"):
        IkemKey(2, 1)


def test_dem_block_roundtrip():
    ctxt = DemCiphertext(b"abc", "OTP")
    raw = wire.dem_ciphertext_to_bytes(ctxt)
    assert raw[0] == 0x01
    assert wire.dem_ciphertext_from_bytes(raw) == ctxt
    stream = DemCiphertext(b"", "STREAM")
    raw2 = wire.dem_ciphertext_to_bytes(stream)
    assert raw2[0] == 0x02
    assert wire.dem_ciphertext_from_bytes(raw2) == stream
    with pytest.raises(FormatError):
        wire.dem_ciphertext_from_bytes(b"\x03\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        wire.dem_ciphertext_from_bytes(raw[:-1])


def test_hybrid_block_roundtrip():
    src = deterministic_pair_source()
    params = derive_params(src, 64, 0.5, 0.25, 0)
    triple = sample_n(src, 64, seed=4)
    ctxt = he_encrypt(params, src, triple.x, b"hello", np.random.default_rng(5), "OTP")
    raw = wire.hybrid_to_bytes(params, src, ctxt)
    assert raw[:4] == b"IHE1"
    assert wire.hybrid_from_bytes(params, src, raw) == ctxt
    with pytest.raises(FormatError):
        wire.hybrid_from_bytes(params, src, b"nope" + raw[4:])


def test_sample_doc_roundtrip(tmp_path):
    src = deterministic_pair_source()
    params = derive_params(src, 16, 0.5, 0.25, 0)
    triple = sample_n(src, 16, seed=6)
    docs = wire.triple_to_sample_docs(params, triple)
    path = tmp_path / "alice.json"
    wire.save_json(path, docs["alice"])
    got = wire.load_sample(path, params, src, "alice")
    np.testing.assert_array_equal(got, triple.x)

    other = dishonest(params, t=params.t + 1)
    with pytest.raises(FormatError):
        wire.load_sample(path, other, src, "alice")


def test_sample_symbols_are_n_json_integers(tmp_path):
    src = deterministic_pair_source()
    params = derive_params(src, 4, 0.5, 0.25, 0)
    doc = wire.triple_to_sample_docs(params, sample_n(src, 4, seed=6))["bob"]
    path = tmp_path / "bob.json"
    for bad in ([0.7, 0, 0, 0], ["0", 0, 0, 0], [True, 0, 0, 0], [0, 0, 0], [0] * 5,
                "0000", None, {"0": 0}, [2**70, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, -1]):
        wire.save_json(path, dict(doc, symbols=bad))
        with pytest.raises(FormatError):
            wire.load_sample(path, params, src, "bob")
    wire.save_json(path, [doc])
    with pytest.raises(FormatError):
        wire.load_sample(path, params, src, "bob")
    # the role the caller needs, and that role's alphabet
    wire.save_json(path, doc)
    with pytest.raises(FormatError, match="'bob'"):
        wire.load_sample(path, params, src, "alice")
    wide = make_table_source((2, 3, 1), {(0, 0, 0): 0.5, (1, 2, 0): 0.5})
    for role, size in (("alice", 2), ("bob", 3), ("eve", 1)):
        wire.save_json(path, dict(doc, role=role, symbols=[0, 0, 0, size]))
        with pytest.raises(FormatError, match=f"^sample of {role}: symbol {size} outside alphabet of {size}$"):
            wire.load_sample(path, params, wide, role)


def test_unreadable_json_files_are_format_errors(tmp_path):
    src = deterministic_pair_source()
    params = derive_params(src, 4, 0.5, 0.25, 0)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for path in (tmp_path, utf16, deep, tmp_path / "missing.json"):
        for load in (wire.load_source, wire.load_params,
                     lambda p: wire.load_sample(p, params, src, "bob")):
            with pytest.raises(FormatError):
                load(path)
