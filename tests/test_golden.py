"""Golden bytes: the sha256 of every file the CLI writes under --seed.

Two sessions run the whole chain plan -> gen -> encrypt -> encap ->
decap: the README demo (X = Y one uniform bit, n = 280) with the stream
DEM, and the satellite source at n = 16 with the one-time pad.  A
refactor that keeps keys, ciphertexts and wire bytes bit-identical
passes unchanged; any drift in a seed draw, a hash or an encoding moves
a digest.
"""

import hashlib

from corrkem import reliability_params, satellite_source, wire
from corrkem.cli import main

DEMO = {"type": "table", "alphabets": [2, 2, 1],
        "pmf": [{"x": 0, "y": 0, "z": 0, "p": 0.5}, {"x": 1, "y": 1, "z": 0, "p": 0.5}]}
SATELLITE = {"type": "satellite", "pa": 0.05, "pb": 0.05, "pe": 0.3}

GOLDEN = {
    "demo": {
        "params": "ca71e70156c0086ac1ed00991e2b88d71d3ff1192b4fca829ff394ec1d73e57b",
        "alice": "dda607f989d1c60f5c8a123933d3052a915c5767928e5430ab67b3e191d14517",
        "bob": "3a849b75a76cbecf6bf91d9a50fb8bb01552376e8a08a3a83d645419077377e0",
        "eve": "3350301ac552a6352195fb0f40967699900f87ee6011c0afb51ab8785a08a887",
        "ihe": "0f850ac4dde3f620b6503a9e9999c8b20cee73e2510881b1c18a8a24bd818ee5",
        "ctxt": "f520b030db4b0a11b282150270fbdfeb974c5b5aa2f54a82c87ec0e1fcb1ab72",
        "key": "ad9c4f5641fc4a7a388ed1833e51d225d238d32a3a733a39c519dcfd821d50b6",
    },
    "satellite": {
        "params": "8655b66f92fe7238a1ddd68e81d264bdf9e5a6ba99be9736fe84045e271da451",
        "alice": "0d664b2ce5da3e951745af23aa09e6fc49a758f13b0b7fb27910696fafbb2cc3",
        "bob": "3052d4473a7d0b1233476d699cfaca76730460e55a307b07ca5e28d21f56dc7e",
        "eve": "207a0267d02c56965fcbe8f0228d4a10aafb9a1298385da53e97a66150e5f038",
        "ihe": "8c7548bbffb213309e088600768b963f735e9babb974ea4f4f75c0fe2d1ffedf",
        "ctxt": "1c3625c698fdf0b7c964743027a3cdea2451cee06f210943a32e0d5d4e364dc3",
        "key": "9a2a830d85d28e119b23cc1fd9a4eb4369b1332e5d0fa4568ee68047f014fc38",
    },
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _session(tmp_path, scheme, message, plan):
    """Run the chain in tmp_path; the digest of each file it writes,
    taken as soon as it is written (the sender sample's after gen)."""
    src, params = tmp_path / "source.json", tmp_path / "params.json"
    assert plan(src, params) == 0
    common = ["--source", str(src), "--params", str(params)]
    got = {"params": _digest(params)}
    assert main(["gen", *common, "--seed", "7", "--out", str(tmp_path / "s")]) == 0
    for role in ("alice", "bob", "eve"):
        got[role] = _digest(tmp_path / f"s.{role}.json")
    (tmp_path / "message.bin").write_bytes(message)
    assert main(["encrypt", *common, "--sample", str(tmp_path / "s.alice.json"), "--seed", "11",
                 "--in", str(tmp_path / "message.bin"), "--scheme", scheme,
                 "--out", str(tmp_path / "m.ihe")]) == 0
    got["ihe"] = _digest(tmp_path / "m.ihe")
    assert main(["decrypt", *common, "--sample", str(tmp_path / "s.bob.json"),
                 "--in", str(tmp_path / "m.ihe"), "--out", str(tmp_path / "m.out")]) == 0
    assert (tmp_path / "m.out").read_bytes() == message
    assert main(["encap", *common, "--sample", str(tmp_path / "s.alice.json"), "--seed", "13",
                 "--out", str(tmp_path / "k")]) == 0
    got["ctxt"], got["key"] = _digest(tmp_path / "k.ctxt"), _digest(tmp_path / "k.key")
    assert main(["decap", *common, "--sample", str(tmp_path / "s.bob.json"),
                 "--ctxt", str(tmp_path / "k.ctxt"), "--out", str(tmp_path / "k.bob")]) == 0
    assert (tmp_path / "k.bob").read_bytes() == (tmp_path / "k.key").read_bytes()
    return got


def test_readme_demo_session_bytes(tmp_path, capsys):
    def plan(src, params):
        wire.save_json(src, DEMO)
        return main(["plan", "--source", str(src), "--n", "280", "--eps", "0.5",
                     "--sigma", "0.00390625", "--ell", "256", "--out", str(params)])

    got = _session(tmp_path, "stream", bytes(range(256)) * 4, plan)
    assert got == GOLDEN["demo"]


def test_satellite_session_bytes(tmp_path, capsys):
    # the satellite source gives no secret key, so its params are
    # reliability-only: written through wire, as plan would write them
    def plan(src, params):
        wire.save_json(src, SATELLITE)
        wire.save_json(params, wire.params_to_json(
            reliability_params(satellite_source(0.05, 0.05, 0.3), 16, 0.25, 8)))
        return 0

    got = _session(tmp_path, "otp", b"\xa5", plan)
    assert got == GOLDEN["satellite"]
