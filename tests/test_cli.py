"""Command-line workflows and exit codes."""

import copy
import itertools
import json
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrkem.cli import main

from conftest import deterministic_pair_source
from corrkem import make_table_source, reliability_params, wire
from corrkem.ikem import params_digest


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


_PLAN_IDS = itertools.count()


def _plan(tmp_path, source, n, eps, sigma, qe=0, ell=None):
    out = str(tmp_path / f"params-{next(_PLAN_IDS)}.json")
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
    # unknown type, non-object document, then non-numeric fields that
    # must not reach the sampler as strings
    for doc in (
        {"type": "weird"},
        ["table"],
        {"type": "satellite", "pa": "0.05", "pb": 0.05, "pe": 0.3},
        {"type": "table", "alphabets": [1, 1, 1], "pmf": [{"x": "0", "y": 0, "z": 0, "p": 1}]},
        {"type": "table", "alphabets": [1, 1, 1], "pmf": [{"x": 0, "y": 0, "z": 0, "p": "1"}]},
    ):
        path = tmp_path / "malformed.json"
        wire.save_json(path, doc)
        code, _ = _plan(tmp_path, str(path), 8, 0.5, 0.25)
        assert code == 1, doc


def test_plan_oversized_source_exit_4(tmp_path):
    path = tmp_path / "huge.json"
    wire.save_json(path, {"type": "table", "alphabets": [100000, 100000, 100000], "pmf": []})
    code, _ = _plan(tmp_path, str(path), 8, 0.5, 0.25)
    assert code == 4


def test_plan_past_the_hash_width_bound_exits_4(tmp_path, det_source_file, capsys):
    # the README demo source gives a hash width of n bits: 512 plans, and
    # n = 513 or 2000 is refused at once, before params.json is written
    # (the field search alone would take seconds at 2000 bits)
    assert _plan(tmp_path, det_source_file, 512, 0.5, 2.0**-8, ell=256)[0] == 0
    for n in (513, 2000):
        start = time.perf_counter()
        code, out = _plan(tmp_path, det_source_file, n, 0.5, 2.0**-8, ell=256)
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert f"hash width {n} exceeds 512 bits" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_plan_overflow_exit_1(tmp_path, sat_source_file, capsys):
    # nu = inf from a denormal eps, and q_e or n too large for a float
    huge = "9" * 400
    for eps, qe, n in (("1e-320", "0", "8"), ("0.5", huge, "8"), ("0.5", "0", huge)):
        out = tmp_path / "overflow.json"
        code = main(["plan", "--source", sat_source_file, "--n", n, "--eps", eps,
                     "--sigma", "0.25", "--qe", qe, "--out", str(out)])
        assert code == 1
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()


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
    # the second plan left the first params file intact
    assert main(["decrypt", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.bob.json", "--in", out, "--out", plain]) == 0


def test_decrypt_non_finite_params_exit_1(tmp_path, det_source_file, capsys):
    _, params_path = _plan(tmp_path, det_source_file, 8, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    main(["gen", "--source", det_source_file, "--params", params_path,
          "--out", prefix, "--seed", "7"])
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"")
    out = str(tmp_path / "ct.bin")
    assert main(["encrypt", "--source", det_source_file, "--params", params_path,
                 "--sample", f"{prefix}.alice.json", "--in", str(msg),
                 "--out", out, "--seed", "8"]) == 0
    doc = wire.params_to_json(wire.load_params(params_path))
    doc["nu"] = float("nan")
    nan_params = tmp_path / "nan-params.json"
    wire.save_json(nan_params, doc)
    capsys.readouterr()
    code = main(["decrypt", "--source", det_source_file, "--params", str(nan_params),
                 "--sample", f"{prefix}.bob.json", "--in", out,
                 "--out", str(tmp_path / "plain.bin")])
    assert code == 1
    assert "finite" in capsys.readouterr().err


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
    assert Path(out).read_text() == capsys.readouterr().out  # the printed report, byte for byte
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


@pytest.mark.parametrize("mode, ell", [("composability", 1), ("he-game", 8)])
def test_verify_past_64_symbols_on_a_one_cell_source(tmp_path, mode, ell, capsys):
    # a one-cell source hashes n symbols in 0 bits: n = 70 must not hit
    # numpy's 64-axis limit in a traceback
    src_path = tmp_path / "one.json"
    wire.save_json(src_path, {"type": "table", "alphabets": [1, 1, 1],
                              "pmf": [{"x": 0, "y": 0, "z": 0, "p": 1.0}]})
    params = reliability_params(wire.load_source(src_path), n=70, eps=0.5, ell=ell)
    params_path = tmp_path / "params.json"
    wire.save_json(params_path, wire.params_to_json(params))
    code = main(["verify", "--source", str(src_path), "--params", str(params_path),
                 "--mode", mode, "--trials", "20"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["pass"] and captured.err == ""


def test_verify_he_game_past_the_work_limit_exits_4(tmp_path, sat_source_file, capsys, monkeypatch):
    # 10000 trials over 2^20 sender samples: hours of posterior scoring,
    # so sampling is stubbed: a trial past the work check fails at once
    from corrkem import reliability_params, satellite_source
    from corrkem.harness import games

    def sample(*args):
        raise AssertionError("a trial ran past the work check")

    monkeypatch.setattr(games, "sample_with_rng", sample)
    params = reliability_params(satellite_source(0.05, 0.05, 0.3), n=20, eps=0.25, ell=8)
    params_path = tmp_path / "params.json"
    wire.save_json(params_path, wire.params_to_json(params))
    start = time.perf_counter()
    code = main(["verify", "--source", sat_source_file, "--params", str(params_path),
                 "--mode", "he-game"])
    assert code == 4
    assert time.perf_counter() - start < 1.0
    assert "regime too large" in capsys.readouterr().err


def test_verify_he_game_key_past_64_bits_exits_4(tmp_path, det_source_file, capsys):
    # a params file may widen ell past what _load_session re-derives;
    # the posterior adversary keeps each product's t or ell bits in one
    # 64-bit limb and refuses ell = 100 when it is built
    _, params_path = _plan(tmp_path, det_source_file, 4, 0.5, 0.25)
    doc = json.loads(Path(params_path).read_text())
    wire.save_json(params_path, dict(doc, ell=100))
    code = main(["verify", "--source", det_source_file, "--params", params_path,
                 "--mode", "he-game", "--trials", "10"])
    assert code == 4
    # gf2.mul_vector relies on this refusal and has no guard of its own
    assert capsys.readouterr().err == f"regime too large: posterior hashing needs t, ell <= 64, got t = {doc['t']}, ell = 100\n"


def test_verify_composability_past_the_work_limit_exits_4(tmp_path, capsys):
    # X = Y uniform on 256 symbols, Z constant: n = 1, eps = 2^-5 and
    # sigma = 0.9 give t = 4, ell = 5 and w = 8, so 2^24 terms fit the
    # work limit but the (z, a, g, a', k) table has 2^(16 + 4 + 5) cells
    src_path = str(tmp_path / "u256.json")
    wire.save_json(src_path, {"type": "table", "alphabets": [256, 256, 1],
                              "pmf": [{"x": x, "y": x, "z": 0, "p": 1 / 256} for x in range(256)]})
    params_path = str(tmp_path / "params.json")
    assert main(["plan", "--source", src_path, "--n", "1", "--eps", str(2.0**-5),
                 "--sigma", "0.9", "--out", params_path]) == 0
    assert "hash width     8" in capsys.readouterr().out
    for mode in ("ot-bound", "composability"):
        start = time.perf_counter()
        assert main(["verify", "--source", src_path, "--params", params_path,
                     "--mode", mode]) == 4, mode
        assert time.perf_counter() - start < 1.0, mode
        err = capsys.readouterr().err
        assert "regime too large" in err and err.count("use micro params") == 1


def test_parser_is_built_once_and_reused(tmp_path, det_source_file):
    from corrkem.cli import build_parser

    assert build_parser() is build_parser()
    # one parser serves different subcommands in one process
    _, params_path = _plan(tmp_path, det_source_file, 64, 0.5, 2.0**-8)
    assert main(["gen", "--source", det_source_file, "--params", params_path,
                 "--out", str(tmp_path / "s")]) == 0
    assert main(["gen", "--source", det_source_file, "--params", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "s")]) == 1
    assert main(["plan", "--source", det_source_file, "--n", "8", "--eps", "0.5",
                 "--sigma", "1e-30", "--out", str(tmp_path / "p.json")]) == 2
    assert main(["verify", "--source", det_source_file, "--params", params_path,
                 "--mode", "cea-bound"]) == 4


def test_verify_regime_guard_exits_4(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 64, 0.5, 2.0**-8)
    code = main(["verify", "--source", det_source_file, "--params", params_path,
                 "--mode", "cea-bound"])
    assert code == 4


def test_verify_nfold_table_past_the_cell_limit_exits_4(tmp_path, capsys):
    # X a uniform bit, Y = 8X + U with U uniform on 0-7, Z uniform: a
    # 512-cell source whose 12-fold tables (2^60 and 2^108 cells) the
    # exact checks must refuse instead of allocating
    path = tmp_path / "wide.json"
    cells = [{"x": x, "y": 8 * x + u, "z": z, "p": 1 / 256}
             for x in range(2) for u in range(8) for z in range(16)]
    wire.save_json(path, {"type": "table", "alphabets": [2, 16, 16], "pmf": cells})
    params_path = str(tmp_path / "params.json")
    assert main(["plan", "--source", str(path), "--n", "12", "--eps", "0.5",
                 "--sigma", "0.45", "--out", params_path]) == 0
    assert "hash width     12" in capsys.readouterr().out
    for mode in ("ot-bound", "cea-bound", "composability"):
        assert main(["verify", "--source", str(path), "--params", params_path,
                     "--mode", mode]) == 4, mode
        assert "regime too large" in capsys.readouterr().err


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


def test_argument_errors_exit_1_and_help_exits_0(tmp_path, det_source_file, capsys):
    # argparse alone exits 2, which is the code of an infeasible operating point
    out = tmp_path / "params.json"
    rest = ["--eps", "0.5", "--sigma", "0.25", "--out", str(out)]
    for argv in (
        ["plan", "--source", det_source_file, "--n", "abc", *rest],  # not an int
        ["verify", "--source", det_source_file, "--params", str(out), "--mode", "nope"],
        ["plan", "--n", "8", *rest],  # no --source
        [],  # no command
    ):
        assert main(argv) == 1, argv
        assert "usage:" in capsys.readouterr().err
    assert not out.exists()
    assert main(["plan", "--help"]) == 0
    assert "--sigma" in capsys.readouterr().out


def test_negative_seed_is_refused_before_any_effect(tmp_path, det_source_file, capsys):
    _, params_path = _plan(tmp_path, det_source_file, 8, 0.5, 0.25)
    session = ["--source", det_source_file, "--params", params_path]
    assert main(["gen", *session, "--out", str(tmp_path / "run"), "--seed", "1"]) == 0
    sample = tmp_path / "run.alice.json"
    fresh = sample.read_bytes()
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"message")
    neg, report = str(tmp_path / "neg"), str(tmp_path / "report.json")
    for argv in (
        ["gen", *session, "--out", neg],
        ["encap", *session, "--sample", str(sample), "--out", neg],
        ["encrypt", *session, "--sample", str(sample), "--in", str(msg), "--out", neg],
        ["verify", *session, "--mode", "correctness", "--trials", "10", "--out", report],
        ["verify", *session, "--mode", "he-game", "--trials", "10", "--out", report],
    ):
        assert main([*argv, "--seed", "-1"]) == 1, argv
        assert "seed" in capsys.readouterr().err
        assert not list(tmp_path.glob("neg*")) and not list(tmp_path.glob("report*"))
        assert sample.read_bytes() == fresh  # no use counted


def test_encap_warns_past_budget(tmp_path, det_source_file, capsys):
    _, params_path = _plan(tmp_path, det_source_file, 32, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    main(["gen", "--source", det_source_file, "--params", params_path,
          "--out", prefix, "--seed", "1"])
    for _ in range(2):
        main(["encap", "--source", det_source_file, "--params", params_path,
              "--sample", f"{prefix}.alice.json", "--out", prefix, "--seed", "2"])
    assert "budget" in capsys.readouterr().err


def _hostile_session(tmp_path, sat_source_file, params):
    params_path = str(tmp_path / "hostile-params.json")
    wire.save_json(params_path, wire.params_to_json(params))
    return ["--source", sat_source_file, "--params", params_path]


def test_decrypt_hostile_nu_exit_4(tmp_path, sat_source_file, capsys):
    # a consistent params file at small eps and long n: nu = 46.08 lists
    # far more than MAX_CANDIDATES prefixes, so decrypt stops at the
    # candidate budget instead of enumerating them
    from corrkem.ikem import reliability_params

    params = reliability_params(wire.load_source(sat_source_file), n=40, eps=0.25, ell=8)
    assert (round(params.nu, 2), params.t) == (46.08, 48)
    session = _hostile_session(tmp_path, sat_source_file, params)
    prefix = str(tmp_path / "run")
    assert main(["gen", *session, "--out", prefix, "--seed", "7"]) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"x")
    out = str(tmp_path / "ct.bin")
    assert main(["encrypt", *session, "--sample", f"{prefix}.alice.json", "--in", str(msg),
                 "--out", out, "--seed", "8"]) == 0
    capsys.readouterr()
    code = main(["decrypt", *session, "--sample", f"{prefix}.bob.json", "--in", out,
                 "--out", str(tmp_path / "plain.bin")])
    assert code == 4
    assert "regime too large" in capsys.readouterr().err
    assert not (tmp_path / "plain.bin").exists()


def test_inconsistent_nu_exit_1(tmp_path, sat_source_file, capsys):
    # a params file whose nu admits all 2^40 vectors is refused on load,
    # before any enumeration
    from corrkem.ikem import IkemParams, source_digest

    src = wire.load_source(sat_source_file)
    params = IkemParams(n=40, t=20, ell=8, nu=1e6, eps=0.5, sigma=0.5, q_e=0,
                        source_digest=source_digest(src))
    session = _hostile_session(tmp_path, sat_source_file, params)
    assert main(["gen", *session, "--out", str(tmp_path / "run"), "--seed", "7"]) == 1
    assert "nu=1000000.0" in capsys.readouterr().err
    assert not (tmp_path / "run.alice.json").exists()


def test_unreadable_paths_exit_1(tmp_path, det_source_file):
    # directories, non-UTF-8 files and missing files are format errors
    _, params_path = _plan(tmp_path, det_source_file, 8, 0.5, 0.25)
    session = ["--source", det_source_file, "--params", params_path]
    prefix = str(tmp_path / "run")
    assert main(["gen", *session, "--out", prefix, "--seed", "7"]) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"")
    out = str(tmp_path / "ct.bin")
    assert main(["encrypt", *session, "--sample", f"{prefix}.alice.json", "--in", str(msg),
                 "--out", out, "--seed", "8"]) == 0
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    decrypt = ["decrypt", *session, "--sample", f"{prefix}.bob.json"]
    for argv in (
        ["gen", "--source", str(tmp_path), "--params", params_path, "--out", prefix],
        ["gen", "--source", str(utf16), "--params", params_path, "--out", prefix],
        ["gen", "--source", det_source_file, "--params", str(utf16), "--out", prefix],
        ["gen", "--source", det_source_file, "--params", str(tmp_path / "none.json"), "--out", prefix],
        [*decrypt[:-1], str(utf16), "--in", out, "--out", str(tmp_path / "plain.bin")],
        [*decrypt, "--in", str(tmp_path), "--out", str(tmp_path / "plain.bin")],
        [*decrypt, "--in", out, "--out", str(tmp_path)],
    ):
        assert main(argv) == 1, argv


def test_use_counter_is_replaced_atomically(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 32, 0.5, 0.25)
    session = ["--source", det_source_file, "--params", params_path]
    prefix = str(tmp_path / "run")
    assert main(["gen", *session, "--out", prefix, "--seed", "1"]) == 0
    sample = tmp_path / "run.alice.json"
    assert main(["encap", *session, "--sample", str(sample), "--out", prefix, "--seed", "2"]) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"")
    assert main(["encrypt", *session, "--sample", str(sample), "--in", str(msg),
                 "--out", str(tmp_path / "ct.bin"), "--seed", "3"]) == 0
    assert json.loads(sample.read_text())["uses"] == 2
    # the temp file the counter goes through is renamed, never left behind
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"source.json", os.path.basename(params_path),
                     "run.alice.json", "run.bob.json", "run.eve.json",
                     "run.ctxt", "run.key", "msg.bin", "ct.bin"}


def test_a_failed_counter_replace_leaves_no_trace(tmp_path, det_source_file, capsys, monkeypatch):
    # the temp file is unlinked when the rename fails, and nothing is released
    _, params_path = _plan(tmp_path, det_source_file, 8, 0.5, 0.25)
    session = ["--source", det_source_file, "--params", params_path]
    prefix = str(tmp_path / "run")
    assert main(["gen", *session, "--out", prefix, "--seed", "1"]) == 0
    sample = tmp_path / "run.alice.json"
    before = sample.read_bytes()

    def replace(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(wire.os, "replace", replace)
    capsys.readouterr()
    assert main(["encap", *session, "--sample", str(sample), "--out", prefix, "--seed", "2"]) == 1
    assert capsys.readouterr().err == "error: replace refused\n"
    assert sample.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    assert not any((tmp_path / name).exists() for name in ("run.ctxt", "run.key"))


def test_use_counter_bumped_before_output_write(tmp_path, det_source_file):
    # the ciphertext is released only after the use is counted: a failed
    # output write (missing directory, exit 1) still leaves the count
    _, params_path = _plan(tmp_path, det_source_file, 32, 0.5, 0.25)
    session = ["--source", det_source_file, "--params", params_path]
    prefix = str(tmp_path / "run")
    assert main(["gen", *session, "--out", prefix, "--seed", "1"]) == 0
    sample = tmp_path / "run.alice.json"
    missing = tmp_path / "missing"
    assert main(["encap", *session, "--sample", str(sample),
                 "--out", str(missing / "run"), "--seed", "2"]) == 1
    assert json.loads(sample.read_text())["uses"] == 1
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"")
    assert main(["encrypt", *session, "--sample", str(sample), "--in", str(msg),
                 "--out", str(missing / "ct.bin"), "--seed", "3"]) == 1
    assert json.loads(sample.read_text())["uses"] == 2
    assert not missing.exists()


def test_use_counter_must_be_a_non_negative_integer(tmp_path, det_source_file):
    _, params_path = _plan(tmp_path, det_source_file, 8, 0.5, 0.25)
    session = ["--source", det_source_file, "--params", params_path]
    prefix = str(tmp_path / "run")
    assert main(["gen", *session, "--out", prefix, "--seed", "1"]) == 0
    sample = tmp_path / "run.alice.json"
    honest = json.loads(sample.read_text())
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"")
    # both sender commands, each with the outputs it would write
    for command, rest, outputs in (
        ("encap", ["--out", prefix], ("run.ctxt", "run.key")),
        ("encrypt", ["--in", str(msg), "--out", str(tmp_path / "ct.bin")], ("ct.bin",)),
    ):
        for uses in ("abc", None, -1, 1.5, True, [1]):
            wire.save_json(sample, dict(honest, uses=uses))
            assert main([command, *session, "--sample", str(sample), *rest,
                         "--seed", "2"]) == 1, (command, uses)
            assert json.loads(sample.read_text())["uses"] == uses
            assert not any((tmp_path / name).exists() for name in outputs)


def test_params_planned_for_another_source_exit_1(tmp_path, det_source_file, sat_source_file,
                                                  capsys):
    # a sender sample and a params file from different sources: every
    # command refuses the pair before it counts a use or writes an output
    _, params_path = _plan(tmp_path, det_source_file, 8, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    assert main(["gen", "--source", det_source_file, "--params", params_path,
                 "--out", prefix, "--seed", "1"]) == 0
    sample = tmp_path / "run.alice.json"
    before = sample.read_text()
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"")
    session = ["--source", sat_source_file, "--params", params_path]
    out = str(tmp_path / "out")
    for argv in (
        ["gen", *session, "--out", out],
        ["encap", *session, "--sample", str(sample), "--out", out],
        ["encrypt", *session, "--sample", str(sample), "--in", str(msg), "--out", out],
        ["verify", *session, "--mode", "correctness", "--trials", "10", "--out", out],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        # the message shows both operating points, each with its digest
        assert err.count("source_digest=") == 2, err
        assert sample.read_text() == before
        assert not list(tmp_path.glob("out*"))


def test_encap_warns_when_ell_is_past_the_secrecy_bound(tmp_path, det_source_file, capsys):
    # the README demo source at n = 4 plans t = ell = 1; a params file
    # edited to ell = 100 is a legitimate reliability-only session, so
    # encap and encrypt exit 0, but they say that the key is not secret
    _, params_path = _plan(tmp_path, det_source_file, 4, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    session = ["--source", det_source_file, "--params", params_path]
    gen = ["gen", *session, "--out", prefix, "--seed", "1"]
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"x")
    encap = ["encap", *session, "--sample", f"{prefix}.alice.json", "--out", prefix]
    encrypt = ["encrypt", *session, "--sample", f"{prefix}.alice.json", "--in", str(msg),
               "--out", str(tmp_path / "ct.bin")]
    assert main(gen) == 0
    capsys.readouterr()
    assert main(encap) == 0
    assert "secrecy bound" not in capsys.readouterr().err  # the planned session
    doc = json.loads(Path(params_path).read_text())
    wire.save_json(params_path, dict(doc, ell=100))
    assert main(gen) == 0  # the sample binds the session digest, ell included
    for argv in (encap, encrypt):
        capsys.readouterr()
        assert main(argv) == 0, argv[0]
        err = capsys.readouterr().err
        assert "warning: ell=100 is past the secrecy bound: requested 100 bits" in err, err
    assert wire.key_from_bytes((tmp_path / "run.key").read_bytes()).length == 100


def test_session_past_the_hash_width_bound_exits_4(tmp_path, det_source_file, capsys):
    # a params file whose ell was edited past the width bound, with a
    # sample bound to it: encap and encrypt refuse the session before a
    # use is counted or an output written
    _, params_path = _plan(tmp_path, det_source_file, 4, 0.5, 0.25)
    prefix = str(tmp_path / "run")
    session = ["--source", det_source_file, "--params", params_path]
    assert main(["gen", *session, "--out", prefix, "--seed", "1"]) == 0
    doc = json.loads(Path(params_path).read_text())
    wire.save_json(params_path, dict(doc, ell=600))
    sample = tmp_path / "run.alice.json"
    digest = params_digest(wire.load_params(params_path)).hex()
    wire.save_json(sample, dict(json.loads(sample.read_text()), digest=digest))
    before = sample.read_text()
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"x")
    for argv in (
        ["encap", *session, "--sample", str(sample), "--out", str(tmp_path / "out")],
        ["encrypt", *session, "--sample", str(sample), "--in", str(msg),
         "--out", str(tmp_path / "out.ihe")],
    ):
        capsys.readouterr()
        assert main(argv) == 4, argv[0]
        assert "hash width 600 exceeds 512 bits" in capsys.readouterr().err
        assert sample.read_text() == before
        assert not list(tmp_path.glob("out*"))


def test_sample_role_and_symbols_checked_before_any_effect(tmp_path, capsys):
    # X one bit, Y = X or the erasure 2: bob's alphabet is wider than
    # alice's.  Each command needs one role's sample with symbols in that
    # role's alphabet, and refuses any other before a use is counted or
    # an output written.
    src = make_table_source(
        (2, 3, 1), {(0, 0, 0): 0.3, (1, 1, 0): 0.3, (0, 2, 0): 0.2, (1, 2, 0): 0.2}
    )
    paths = {"source": tmp_path / "source.json", "params": tmp_path / "params.json"}
    wire.save_json(paths["source"], wire.source_to_json(src))
    wire.save_json(paths["params"], wire.params_to_json(reliability_params(src, 8, 0.5, 8)))
    session = ["--source", str(paths["source"]), "--params", str(paths["params"])]
    prefix = str(tmp_path / "run")
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"h")  # one OTP key byte
    assert main(["gen", *session, "--out", prefix, "--seed", "1"]) == 0
    assert main(["encap", *session, "--sample", f"{prefix}.alice.json", "--out", prefix]) == 0
    assert main(["encrypt", *session, "--sample", f"{prefix}.alice.json", "--in", str(msg),
                 "--out", f"{prefix}.ihe"]) == 0
    docs = {r: json.loads(Path(f"{prefix}.{r}.json").read_text()) for r in ("alice", "bob", "eve")}

    def with_symbol(doc, s):
        return dict(doc, symbols=[s, *doc["symbols"][1:]])

    bad = {"alice": [docs["bob"], docs["eve"], with_symbol(docs["alice"], 2),
                     with_symbol(docs["alice"], -1)],
           "bob": [docs["alice"], docs["eve"], with_symbol(docs["bob"], 3),
                   with_symbol(docs["bob"], -1)]}
    out = str(tmp_path / "out")
    commands = {"encap": ("alice", ["--out", out]),
                "encrypt": ("alice", ["--in", str(msg), "--out", out]),
                "decap": ("bob", ["--ctxt", f"{prefix}.ctxt", "--out", out]),
                "decrypt": ("bob", ["--in", f"{prefix}.ihe", "--out", out])}
    sample = tmp_path / "sample.json"
    for command, (role, rest) in commands.items():
        for doc in bad[role]:
            wire.save_json(sample, doc)
            capsys.readouterr()
            assert main([command, *session, "--sample", str(sample), *rest]) == 1, (command, doc)
            assert "error: sample" in capsys.readouterr().err
            assert json.loads(sample.read_text()) == doc  # no use counted
            assert not list(tmp_path.glob("out*"))


@pytest.fixture(scope="module")
def honest_session(tmp_path_factory):
    """One plan -> gen -> encrypt session on the deterministic pair source
    at n = 8: the source, params and sample documents and the hybrid block."""
    d = tmp_path_factory.mktemp("session")
    paths = {"source": d / "source.json", "alice": d / "run.alice.json",
             "bob": d / "run.bob.json", "msg": d / "msg.bin", "block": d / "ct.bin"}
    wire.save_json(paths["source"], wire.source_to_json(deterministic_pair_source()))
    paths["params"] = Path(_plan(d, str(paths["source"]), 8, 0.5, 0.25)[1])
    session = ["--source", str(paths["source"]), "--params", str(paths["params"])]
    assert main(["gen", *session, "--out", str(d / "run"), "--seed", "7"]) == 0
    paths["msg"].write_bytes(b"")
    assert main(["encrypt", *session, "--sample", str(paths["alice"]), "--in", str(paths["msg"]),
                 "--out", str(paths["block"]), "--seed", "8"]) == 0
    docs = {k: json.loads(paths[k].read_text()) for k in ("source", "params", "alice", "bob")}
    return {k: str(v) for k, v in paths.items()}, docs, paths["block"].read_bytes()


# replacements for one JSON value: a swapped type or an out-of-range number
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-(2**70), 2**70), st.floats(),
    st.sampled_from([-1, 0, 2**63, 10**400, 1e308, -1e-320]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from("xyzp"), st.integers(-1, 2), max_size=2),
)


def _mutate(data, doc):
    """Delete or replace one value at a random depth of a JSON document."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_JSON_VALUES)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), target=st.sampled_from(["source", "params", "alice", "bob", "block"]))
def test_one_mutated_input_exits_0_to_4(honest_session, data, target):
    # the file boundary: one changed document or block never escapes
    # cli.main as an exception, and always maps to a documented exit code
    paths, docs, block = honest_session
    with tempfile.TemporaryDirectory() as d:
        mutated = dict(paths)
        mutated[target] = os.path.join(d, "mutated")
        if target == "block":
            raw = bytearray(block)
            if data.draw(st.booleans()):
                raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
            else:
                del raw[data.draw(st.integers(0, len(raw) - 1)):]
            with open(mutated[target], "wb") as fh:
                fh.write(raw)
        else:
            doc = copy.deepcopy(docs[target])
            _mutate(data, doc)
            wire.save_json(mutated[target], doc)
        session = ["--source", mutated["source"], "--params", mutated["params"]]
        if target == "alice":
            argv = ["encrypt", *session, "--sample", mutated["alice"], "--in", paths["msg"],
                    "--out", os.path.join(d, "ct.bin")]
        else:
            argv = ["decrypt", *session, "--sample", mutated["bob"], "--in", mutated["block"],
                    "--out", os.path.join(d, "plain.bin")]
        assert main(argv) in range(5)
