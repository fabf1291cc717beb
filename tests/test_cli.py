"""Command-line workflows and exit codes."""

import json

import pytest

from corrkem.cli import main

from conftest import deterministic_pair_source
from corrkem import wire


@pytest.fixture
def det_source_file(tmp_path):
    path = tmp_path / "source.json"
    wire.save_json(path, wire.source_to_json(deterministic_pair_source()))
    return str(path)


@pytest.fixture
def sat_source_file(tmp_path):
    path = tmp_path / "sat.json"
    wire.save_json(path, {"type": "satellite", "pa": 0.05, "pb": 0.05, "pe": 0.3})
    return str(path)


def _plan(tmp_path, source, n, eps, sigma, qe=0, ell=None):
    out = str(tmp_path / "params.json")
    argv = ["plan", "--source", source, "--n", str(n), "--eps", str(eps),
            "--sigma", str(sigma), "--qe", str(qe), "--out", out]
    if ell is not None:
        argv += ["--ell", str(ell)]
    return main(argv), out


def test_plan_feasible(tmp_path, capsys):
    src_path = tmp_path / "good.json"
    wire.save_json(src_path, {"type": "satellite", "pa": 0.01, "pb": 0.01, "pe": 0.45})
    code, out = _plan(tmp_path, str(src_path), 64, 0.25, 2.0**-8)
    assert code == 0
    params = wire.load_params(out)
    assert params.ell >= 1
    assert "ell" in capsys.readouterr().out


def test_plan_infeasible_exit_2(tmp_path, sat_source_file):
    code, _ = _plan(tmp_path, sat_source_file, 64, 0.25, 2.0**-8)
    assert code == 2
    code, _ = _plan(tmp_path, sat_source_file, 64, 0.001, 2.0**-8)
    assert code == 2


def test_plan_malformed_source_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _plan(tmp_path, str(bad), 8, 0.5, 0.25)
    assert code == 1
    unknown = tmp_path / "unknown.json"
    wire.save_json(unknown, {"type": "weird"})
    code, _ = _plan(tmp_path, str(unknown), 8, 0.5, 0.25)
    assert code == 1


def test_gen_encap_decap_roundtrip(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 64, 0.5, 2.0**-8)
    prefix = str(tmp_path / "run")
    assert main(["gen", "--source", det_source_file, "--params", params_path,
                 "--out", prefix, "--seed", "5"]) == 0
    assert main(["encap", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.alice.json", "--out", prefix, "--seed", "6"]) == 0
    assert main(["decap", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.bob.json", "--ctxt", f"{prefix}.ctxt",
                 "--out", f"{prefix}.bobkey"]) == 0
    alice = (tmp_path / "run.key").read_bytes()
    bob = (tmp_path / "run.bobkey").read_bytes()
    assert alice == bob  # identical key files


def test_decap_tampered_exits_3(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 64, 0.5, 2.0**-8)
    prefix = str(tmp_path / "run")
    main(["gen", "--source", det_source_file, "--params", params_path,
          "--out", prefix, "--seed", "5"])
    main(["encap", "--source", det_source_file, "--params", params_path,
          "--sample", f"{prefix}.alice.json", "--out", prefix, "--seed", "6"])
    blob = bytearray((tmp_path / "run.ctxt").read_bytes())
    blob[14] ^= 0x01  # flip a tag bit past the header
    (tmp_path / "run.ctxt").write_bytes(bytes(blob))
    code = main(["decap", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.bob.json", "--ctxt", f"{prefix}.ctxt",
                 "--out", f"{prefix}.bobkey"])
    assert code == 3


def test_encrypt_decrypt_roundtrip_and_digest_guard(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 160, 0.5, 2.0**-8)
    prefix = str(tmp_path / "run")
    main(["gen", "--source", det_source_file, "--params", params_path,
          "--out", prefix, "--seed", "7"])
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"attack at dawn")
    out = str(tmp_path / "ct.bin")
    assert main(["encrypt", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.alice.json", "--in", str(msg),
                 "--scheme", "otp", "--out", out, "--seed", "8"]) == 0
    plain = str(tmp_path / "plain.bin")
    assert main(["decrypt", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.bob.json", "--in", out, "--out", plain]) == 0
    assert (tmp_path / "plain.bin").read_bytes() == b"attack at dawn"

    # a receiver symbol outside the alphabet {0, 1} is malformed input
    bob = json.loads((tmp_path / "run.bob.json").read_text())
    bob["symbols"][0] = 2
    bad = tmp_path / "bad.bob.json"
    wire.save_json(bad, bob)
    code = main(["decrypt", "--source", det_source_file, "--params", params_path,
                 "--sample", str(bad), "--in", out, "--out", plain])
    assert code == 1

    # params mismatch is a format error (exit 1), not a protocol bottom
    _, params2 = _plan(tmp_path, det_source_file, 160, 0.5, 2.0**-7)
    code = main(["decrypt", "--source", det_source_file, "--params", params2,
                 "--sample", f"{prefix}.bob.json", "--in", out, "--out", plain])
    assert code == 1


def test_cli_deterministic_reruns(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 32, 0.5, 0.25)
    outs = []
    for run in ("a", "b"):
        prefix = str(tmp_path / run)
        main(["gen", "--source", det_source_file, "--params", params_path,
              "--out", prefix])  # default documented seed
        outs.append((tmp_path / f"{run}.alice.json").read_text())
    assert outs[0] == outs[1]


def test_verify_correctness_and_ot_bound(tmp_path, det_source_file, capsys):
    _, params_path = _plan(tmp_path, det_source_file, 4, 0.5, 0.45)
    capsys.readouterr()  # discard the plan table
    code = main(["verify", "--source", det_source_file, "--params", params_path,
                 "--mode", "correctness", "--trials", "1000", "--seed", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["game"] == "correctness"

    out = str(tmp_path / "report.json")
    code = main(["verify", "--source", det_source_file, "--params", params_path,
                 "--mode", "ot-bound", "--out", out])
    assert code == 0
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["exact"] is True and saved["pass"] is True
    assert set(saved) == {"game", "exact", "trials", "advantage", "bound", "pass", "seed"}


def test_verify_he_game_and_composability(tmp_path, capsys):
    src_path = tmp_path / "hemicro.json"
    wire.save_json(
        src_path,
        {
            "type": "table",
            "alphabets": [16, 16, 1],
            "pmf": [{"x": x, "y": x, "z": 0, "p": 1 / 16} for x in range(16)],
        },
    )
    params_path = str(tmp_path / "params.json")
    assert main(["plan", "--source", str(src_path), "--n", "3", "--eps", "0.5",
                 "--sigma", str(2.0**-2.25), "--ell", "8", "--out", params_path]) == 0
    capsys.readouterr()
    code = main(["verify", "--source", str(src_path), "--params", params_path,
                 "--mode", "he-game", "--trials", "1200", "--seed", "4"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["game"].startswith("he(")

    # the 12-bit width above is past the exact regime: exit 4
    assert main(["verify", "--source", str(src_path), "--params", params_path,
                 "--mode", "composability"]) == 4
    capsys.readouterr()

    micro_src = tmp_path / "micro.json"
    wire.save_json(
        micro_src,
        {
            "type": "table",
            "alphabets": [16, 16, 2],
            "pmf": [{"x": x, "y": x, "z": x >> 3, "p": 1 / 16} for x in range(16)],
        },
    )
    micro_params = str(tmp_path / "micro-params.json")
    assert main(["plan", "--source", str(micro_src), "--n", "1", "--eps", "0.5",
                 "--sigma", "0.4", "--out", micro_params]) == 0
    capsys.readouterr()
    code = main(["verify", "--source", str(micro_src), "--params", micro_params,
                 "--mode", "composability"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"] and report["pass"]


def test_verify_regime_guard_exits_4(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 64, 0.5, 2.0**-8)
    code = main(["verify", "--source", det_source_file, "--params", params_path,
                 "--mode", "cea-bound"])
    assert code == 4


def test_random_seed_opt_out(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 32, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    main(["gen", "--source", det_source_file, "--params", params_path,
          "--out", prefix, "--seed", "1"])
    blobs = set()
    for run in ("p", "q"):
        out = str(tmp_path / run)
        main(["encap", "--source", det_source_file, "--params", params_path,
              "--sample", f"{prefix}.alice.json", "--out", out, "--random-seed"])
        blobs.add((tmp_path / f"{run}.ctxt").read_bytes())
    assert len(blobs) == 2  # OS entropy, distinct seeds


def test_encap_warns_past_budget(tmp_path, det_source_file, capsys):
    _, params_path = _plan(tmp_path, det_source_file, 32, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    main(["gen", "--source", det_source_file, "--params", params_path,
          "--out", prefix, "--seed", "1"])
    for _ in range(2):
        main(["encap", "--source", det_source_file, "--params", params_path,
              "--sample", f"{prefix}.alice.json", "--out", prefix, "--seed", "2"])
    assert "budget" in capsys.readouterr().err
