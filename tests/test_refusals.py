"""The refusal corpus: every malformed or oversized input is refused by
its one owner, as the CorrkemError class that carries its exit code.

Cases that a command can reach run through ``cli.main`` and check the
exit code and the stderr label; the rest call the library directly.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from corrkem import (
    IkemCiphertext,
    IkemKey,
    JointSource,
    UhfSpec,
    dem,
    enumerate_typical,
    gf2,
    make_table_source,
    product_source,
    reliability_params,
    satellite_source,
    wire,
)
from corrkem.cli import main
from corrkem.errors import CorrkemError, FormatError, InfeasibleKeyLength, RegimeTooLarge
from corrkem.harness import (
    BestGuessOtpHeAdversary,
    HeAdversary,
    RandomGuessAdversary,
    RandomGuessHeAdversary,
    cea_bound_check,
    composability_check,
    correctness_mc,
    ot_bound_check,
    run_he_game,
    run_ikem_game,
)
from corrkem.harness import exact, games
from corrkem.harness.exact import naive_cea_sd, naive_composability_sd
from corrkem.source import SampleTriple, sample_with_rng
from corrkem.uhf import UhfSeed, symbol_bits

from conftest import deterministic_pair_source

ONE_CELL = {"type": "table", "alphabets": [1, 1, 1], "pmf": [{"x": 0, "y": 0, "z": 0, "p": 1.0}]}


def _run(capsys, argv):
    """Exit code and stderr of one command."""
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


def _write(tmp_path, name, doc):
    path = tmp_path / name
    wire.save_json(path, doc)
    return str(path)


@pytest.fixture
def det_session(tmp_path, capsys):
    """The deterministic pair source at n = 8 (t = 1): its file and a
    planned params file."""
    src = _write(tmp_path, "source.json", wire.source_to_json(deterministic_pair_source()))
    params = str(tmp_path / "params.json")
    assert main(["plan", "--source", src, "--n", "8", "--eps", "0.5", "--sigma", "0.25",
                 "--out", params]) == 0
    capsys.readouterr()
    return src, params


def test_each_class_owns_its_exit_code_and_label():
    assert (CorrkemError.exit_code, CorrkemError.label) == (1, "error")
    assert (FormatError.exit_code, FormatError.label) == (1, "error")
    assert (InfeasibleKeyLength.exit_code, InfeasibleKeyLength.label) == (2, "infeasible")
    assert (RegimeTooLarge.exit_code, RegimeTooLarge.label) == (4, "regime too large")


# ---------------------------------------------------------------------------
# operating point


@pytest.mark.parametrize("flag, value, message", [
    ("--n", 0, "n must be >= 1"),
    ("--eps", 0, "eps and sigma must lie in (0, 1)"),
    ("--sigma", 1, "eps and sigma must lie in (0, 1)"),
    ("--qe", -1, "q_e must be >= 0"),
])
def test_plan_refuses_an_operating_point(tmp_path, capsys, det_session, flag, value, message):
    src, _ = det_session
    argv = {"--n": 8, "--eps": 0.5, "--sigma": 0.25, "--qe": 0}
    argv[flag] = value
    out = tmp_path / "refused.json"
    code, err = _run(capsys, ["plan", "--source", src, *sum(map(list, argv.items()), []),
                              "--out", out])
    assert (code, err) == (1, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("n", 0, "n, t, ell must be positive; q_e >= 0"),
    ("t", 0, "n, t, ell must be positive; q_e >= 0"),
    ("ell", 0, "n, t, ell must be positive; q_e >= 0"),
    ("q_e", -1, "n, t, ell must be positive; q_e >= 0"),
    ("nu", -1, "need nu >= 0 and eps, sigma in (0, 1)"),
    ("eps", 1, "need nu >= 0 and eps, sigma in (0, 1)"),
    ("sigma", 0, "need nu >= 0 and eps, sigma in (0, 1)"),
])
def test_a_params_file_out_of_range_is_refused(tmp_path, capsys, det_session, field, value, message):
    src, params = det_session
    doc = json.loads(open(params).read())
    bad = _write(tmp_path, "bad.json", dict(doc, **{field: value}))
    code, err = _run(capsys, ["gen", "--source", src, "--params", bad, "--out", tmp_path / "s"])
    assert (code, err) == (1, f"error: {message}\n")


def test_reliability_params_leaves_n_and_ell_to_ikem_params():
    src = deterministic_pair_source()
    for n, ell in ((0, 8), (8, 0)):
        with pytest.raises(FormatError, match=r"n, t, ell must be positive; q_e >= 0"):
            reliability_params(src, n, 0.5, ell)


def test_enumerate_typical_refuses_a_negative_nu():
    with pytest.raises(FormatError, match="nu must be >= 0"):
        list(enumerate_typical(deterministic_pair_source(), [0, 1], -1.0))


# ---------------------------------------------------------------------------
# sources


@pytest.mark.parametrize("cells, message", [
    ([(0, 0, 0, 1.5), (1, 1, 0, -0.5)], "negative pmf entry"),
    ([(0, 0, 0, 0.5), (2, 1, 0, 0.5)], "cell (2,1,0) outside (2, 2, 1)"),
])
def test_a_source_file_out_of_range_is_refused(tmp_path, capsys, cells, message):
    src = _write(tmp_path, "source.json", {
        "type": "table", "alphabets": [2, 2, 1],
        "pmf": [{"x": x, "y": y, "z": z, "p": p} for x, y, z, p in cells]})
    code, err = _run(capsys, ["plan", "--source", src, "--n", 8, "--eps", 0.5, "--sigma", 0.25,
                              "--out", tmp_path / "params.json"])
    assert (code, err) == (1, f"error: {message}\n")


@pytest.mark.parametrize("sizes", [(2, 2, 0), (4, 1), (0, 1, 1), (1, 1, 1, 1), (-3, 2, 2)])
def test_both_source_builders_refuse_bad_sizes_with_one_message(sizes):
    for build in (lambda: JointSource(sizes, np.zeros(1)), lambda: make_table_source(sizes, {})):
        with pytest.raises(FormatError) as refused:
            build()
        assert str(refused.value) == "need three alphabet sizes >= 1"


def test_joint_source_refuses_sizes_and_shape():
    with pytest.raises(FormatError, match="need three alphabet sizes >= 1"):
        JointSource((2, 2, 0), np.zeros((2, 2, 0)))
    with pytest.raises(FormatError, match="need three alphabet sizes >= 1"):
        JointSource((4, 1), np.full((4, 1), 0.25))
    with pytest.raises(FormatError, match=r"pmf shape \(2, 2, 2\) != alphabets \(2, 2, 1\)"):
        JointSource((2, 2, 1), np.full((2, 2, 2), 0.125))


def test_sampling_and_products_refuse_n_below_one():
    src = deterministic_pair_source()
    with pytest.raises(FormatError, match="n must be >= 1"):
        sample_with_rng(src, 0, np.random.default_rng(1))
    with pytest.raises(FormatError, match="n must be >= 1"):
        product_source(src, 0)


# ---------------------------------------------------------------------------
# hash family and field


def test_uhf_spec_refuses_its_widths():
    with pytest.raises(FormatError, match="input_bits must be >= 1"):
        UhfSpec(0, 1)
    for out in (0, 5):
        with pytest.raises(FormatError, match="need 1 <= output_bits <= input_bits"):
            UhfSpec(4, out)
    with pytest.raises(FormatError, match="alphabet_size must be >= 1"):
        symbol_bits(0)
    with pytest.raises(FormatError, match="field width must be >= 1"):
        gf2.reduction_low(0)
    for w in (513, 10**9):
        with pytest.raises(RegimeTooLarge, match=f"^hash width {w} exceeds 512 bits$"):
            UhfSpec(w, 1)
        with pytest.raises(RegimeTooLarge, match=f"^field width {w} exceeds 512 bits$"):
            gf2.reduction_low(w)


# ---------------------------------------------------------------------------
# ciphertexts, keys and dem blocks


def test_the_kem_encoder_refuses_a_tag_outside_t_bits():
    src = deterministic_pair_source()
    params = reliability_params(src, 8, 0.5, 8)  # t = 1, w = 8
    seed = UhfSeed(3, 5)
    assert len(wire.kem_ciphertext_to_bytes(params, src, IkemCiphertext(1, seed, seed))) == 19
    # a negative tag and a 2^40 tag once overflowed; 2^t + 1 wrote a block
    # that the decoder refuses
    for g in (-1, 1 << 40, (1 << params.t) + 1):
        with pytest.raises(FormatError, match="tag wider than t bits"):
            wire.kem_ciphertext_to_bytes(params, src, IkemCiphertext(g, seed, seed))
    with pytest.raises(FormatError, match="seed parts must be input_bits wide"):
        wire.kem_ciphertext_to_bytes(params, src, IkemCiphertext(1, UhfSeed(256, 0), seed))


def test_decap_refuses_a_kem_block_with_a_tag_wider_than_t(tmp_path, capsys, det_session):
    src, params = det_session
    session = ["--source", src, "--params", params]
    prefix = str(tmp_path / "s")
    assert main(["gen", *session, "--out", prefix]) == 0
    assert main(["encap", *session, "--sample", f"{prefix}.alice.json", "--out", prefix]) == 0
    capsys.readouterr()
    raw = bytearray(open(f"{prefix}.ctxt", "rb").read())
    raw[14] = 0x02  # t = 1: the tag byte may hold 0 or 1 only
    bad = tmp_path / "wide.ctxt"
    bad.write_bytes(bytes(raw))
    out = tmp_path / "bob.key"
    code, err = _run(capsys, ["decap", *session, "--sample", f"{prefix}.bob.json",
                              "--ctxt", bad, "--out", out])
    assert (code, err) == (1, "error: tag wider than t bits\n")
    assert not out.exists()


def test_wire_refusals_name_their_fault(tmp_path):
    src = deterministic_pair_source()
    params = reliability_params(src, 8, 0.5, 8)  # t = 1, w = 8: a 19-byte kem block
    seed = UhfSeed(3, 5)
    raw = wire.kem_ciphertext_to_bytes(params, src, IkemCiphertext(1, seed, seed))
    with pytest.raises(FormatError, match="^kem block must be 19 bytes, got 18$"):
        wire.kem_ciphertext_from_bytes(params, src, raw[:-1])
    with pytest.raises(FormatError, match="^ciphertext t=2 != params t=1$"):
        wire.kem_ciphertext_from_bytes(params, src, raw[:12] + b"\x00\x02" + raw[14:])
    with pytest.raises(FormatError, match="^key file too short$"):
        wire.key_from_bytes(b"\x00")
    with pytest.raises(FormatError, match="^key file must be 3 bytes for 5 bits$"):
        wire.key_from_bytes(b"\x00\x05\x01\x02")
    with pytest.raises(FormatError, match="^dem block too short$"):
        wire.dem_ciphertext_from_bytes(b"\x01\x00\x00\x00")
    with pytest.raises(FormatError, match="^unknown dem scheme byte 0x3$"):
        wire.dem_ciphertext_from_bytes(b"\x03\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="^source file is not readable JSON: "):
        wire.load_source(tmp_path / "missing.json")
    # a short hybrid block is refused by the decoder of the part it cuts short
    dem_block = wire.dem_ciphertext_to_bytes(dem.DemCiphertext(b"\x00", dem.SCHEME_OTP))
    hybrid = b"IHE1" + raw + dem_block
    assert wire.hybrid_from_bytes(params, src, hybrid).c1.g == 1
    with pytest.raises(FormatError, match="^kem block must be 19 bytes, got 9$"):
        wire.hybrid_from_bytes(params, src, hybrid[:13])
    with pytest.raises(FormatError, match="^dem block too short$"):
        wire.hybrid_from_bytes(params, src, hybrid[:-2])


def test_dem_refuses_an_unknown_scheme():
    with pytest.raises(FormatError, match="unknown scheme 'XOR'"):
        dem.DemCiphertext(b"", "XOR")
    with pytest.raises(FormatError, match="unknown scheme 'XOR'"):
        dem.encrypt(IkemKey(0, 8), b"", "XOR")


def test_count_use_refuses_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(FormatError, match="sample document must be a JSON object"):
        wire.count_use(path)
    assert path.read_text() == "[1, 2]\n"


# ---------------------------------------------------------------------------
# games and exact checks


def test_he_game_charges_every_symbol(tmp_path, capsys, monkeypatch):
    # a one-cell source scores one sample per trial, but each trial still
    # samples and hashes n symbols; past n = 512 the session rule refuses
    # first (test_a_one_cell_session_past_512_symbols_is_refused)
    def sample(*args):
        raise AssertionError("a trial ran past the work charge")

    monkeypatch.setattr(games, "sample_with_rng", sample)
    src = _write(tmp_path, "one.json", ONE_CELL)
    params = reliability_params(wire.load_source(src), 512, 0.5, 8)
    doc = _write(tmp_path, "params.json", wire.params_to_json(params))
    start = time.perf_counter()
    code, err = _run(capsys, ["verify", "--source", src, "--params", doc, "--mode", "he-game"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (4, "regime too large: 10000 trials over 1^512 samples plus 256 * 512 symbols"
                              f" exceed {games.HE_WORK_LIMIT}\n")


def _one_cell_session(tmp_path, n):
    """A one-cell source, its params file at n and alice's sample.  The
    source gives nu = 0 and t = 1 at every n, so the file is the
    operating point it gives even where reliability_params refuses n."""
    src = _write(tmp_path, "one.json", ONE_CELL)
    params = dataclasses.replace(reliability_params(wire.load_source(src), 512, 0.5, 8), n=n)
    zeros = np.zeros(n, np.int64)
    alice = wire.triple_to_sample_docs(params, SampleTriple(n, zeros, zeros, zeros))["alice"]
    return src, _write(tmp_path, "params.json", wire.params_to_json(params)), _write(tmp_path, "alice.json", alice)


@pytest.mark.parametrize("n", [513, 100_000])
def test_a_one_cell_session_past_512_symbols_is_refused(tmp_path, capsys, n):
    # a one-cell X packs into 0 bits, so the hash width never bounded n,
    # while sampling, hashing and the games all grow with it
    src, params, alice = _one_cell_session(tmp_path, n)
    with pytest.raises(RegimeTooLarge, match=f"^n = {n} symbols exceeds 512$"):
        reliability_params(wire.load_source(src), n, 0.5, 8)
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    common = ["--source", src, "--params", params]
    for argv in (["gen", *common, "--out", tmp_path / "s"],
                 ["encap", *common, "--sample", alice, "--out", tmp_path / "k"],
                 ["verify", *common, "--mode", "correctness", "--out", tmp_path / "report.json"]):
        start = time.perf_counter()
        code, err = _run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (4, f"regime too large: n = {n} symbols exceeds 512\n")
    # no output written, and alice's use not counted
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


def test_a_one_cell_session_at_512_symbols_runs(tmp_path, capsys):
    src, params, alice = _one_cell_session(tmp_path, 512)
    common = ["--source", src, "--params", params]
    assert _run(capsys, ["gen", *common, "--out", tmp_path / "s"]) == (0, "")
    code, err = _run(capsys, ["encap", *common, "--sample", alice, "--out", tmp_path / "k"])
    assert code == 0 and err.startswith("warning: ell=8 is past the secrecy bound")  # no key bound here
    assert _run(capsys, ["verify", *common, "--mode", "correctness", "--trials", 1000]) == (0, "")


def test_the_library_games_take_the_session_rule_before_a_draw(monkeypatch):
    def sample(*args):
        raise AssertionError("a game drew a sample past the session rule")

    monkeypatch.setattr(games, "sample_with_rng", sample)
    src = make_table_source((1, 1, 1), {(0, 0, 0): 1.0})
    for n in (1000, 100_000):  # 100_000 symbols pass the he game's charge at one trial
        params = dataclasses.replace(reliability_params(src, 512, 0.5, 8), n=n)
        for play in (lambda: run_ikem_game(src, params, RandomGuessAdversary(), 0, 1, 1),
                     lambda: run_he_game(src, params, RandomGuessHeAdversary(), 0, 1, 1),
                     lambda: correctness_mc(src, params, 1000, 1)):
            with pytest.raises(RegimeTooLarge, match=f"^n = {n} symbols exceeds 512$"):
                play()


def test_he_game_posterior_refuses_past_2_to_20_samples(tmp_path, capsys, monkeypatch):
    # one trial over 2^21 samples passes the game's charge; the posterior
    # adversary refuses it when it is built, before any draw
    def sample(*args):
        raise AssertionError("a trial drew past the posterior's regime")

    monkeypatch.setattr(games, "sample_with_rng", sample)
    src = _write(tmp_path, "sat.json", {"type": "satellite", "pa": 0.05, "pb": 0.05, "pe": 0.3})
    params = reliability_params(satellite_source(0.05, 0.05, 0.3), 21, 0.25, 8)
    doc = _write(tmp_path, "params.json", wire.params_to_json(params))
    code, err = _run(capsys, ["verify", "--source", src, "--params", doc, "--mode", "he-game",
                              "--trials", 1])
    assert (code, err) == (4, "regime too large: posterior enumeration needs |X|^n <= 2^20\n")
    # the one-time-pad adversary's ell rule is refused ahead of the posterior's
    params = reliability_params(satellite_source(0.05, 0.05, 0.3), 21, 0.25, 4)
    doc = _write(tmp_path, "params4.json", wire.params_to_json(params))
    code, err = _run(capsys, ["verify", "--source", src, "--params", doc, "--mode", "he-game"])
    assert (code, err) == (1, "error: the one-time-pad adversary pads whole bytes of key,"
                              " so it needs ell >= 8, got ell = 4\n")


def test_he_game_refuses_a_key_shorter_than_a_byte(tmp_path, capsys, monkeypatch):
    # the one-time-pad adversary's challenge messages are whole bytes of
    # key, so an ell < 8 session is refused where the adversary is built,
    # before any draw (it used to fail in the first trial's encryption)
    def sample(*args):
        raise AssertionError("a trial ran past the adversary's ell rule")

    monkeypatch.setattr(games, "sample_with_rng", sample)
    pair = deterministic_pair_source()  # the README demo source
    src = _write(tmp_path, "source.json", wire.source_to_json(pair))
    params = str(tmp_path / "params.json")
    assert main(["plan", "--source", src, "--n", "12", "--eps", "0.5", "--sigma", "0.25", "--ell", "4",
                 "--out", params]) == 0
    capsys.readouterr()
    code, err = _run(capsys, ["verify", "--source", src, "--params", params, "--mode", "he-game",
                              "--trials", 100])
    assert (code, err) == (1, "error: the one-time-pad adversary pads whole bytes of key,"
                              " so it needs ell >= 8, got ell = 4\n")
    with pytest.raises(FormatError, match="needs ell >= 8, got ell = 7$"):
        BestGuessOtpHeAdversary(pair, reliability_params(pair, 12, 0.5, 7))
    BestGuessOtpHeAdversary(pair, reliability_params(pair, 12, 0.5, 8))  # one byte of key is enough


@pytest.mark.parametrize("mode, trials, message", [
    ("he-game", 0, "trials must be >= 1"),
    ("correctness", 10, "correctness estimation needs >= 1000 trials"),
])
def test_verify_refuses_too_few_trials(capsys, det_session, mode, trials, message):
    src, params = det_session
    code, err = _run(capsys, ["verify", "--source", src, "--params", params, "--mode", mode,
                              "--trials", trials])
    assert (code, err) == (1, f"error: {message}\n")


class _UnequalMessages(HeAdversary):
    def choose(self, rng, z_vec, oracle):
        return None, b"\x00", b"\x00\x00"

    def guess(self, rng, states, ctxts) -> list[int]:
        return [0] * len(ctxts)


def test_he_game_refuses_unequal_challenge_messages():
    src = deterministic_pair_source()
    params = reliability_params(src, 8, 0.5, 16)
    with pytest.raises(FormatError, match="challenge messages must have equal length"):
        run_he_game(src, params, _UnequalMessages(), 0, 1, seed=1)


def test_naive_oracles_refuse_wide_hashes(monkeypatch):
    src = deterministic_pair_source()
    params = reliability_params(src, 7, 0.5, 1)  # w = 7: 2^28 seed quadruples

    def enumerate_seeds(*args, **kwargs):
        raise AssertionError("seeds enumerated past the width guard")

    monkeypatch.setattr(exact, "_iterprod", enumerate_seeds)
    with pytest.raises(RegimeTooLarge, match="naive enumeration is for tiny widths only"):
        naive_cea_sd(src, params, 0)
    with pytest.raises(RegimeTooLarge, match="naive enumeration is for tiny widths only"):
        naive_composability_sd(src, params)
    # w = 1 at q_e = 10^9: the guard once built 2^(4 (1 + q_e)), a 500 MB integer
    start = time.perf_counter()
    with pytest.raises(RegimeTooLarge, match="naive enumeration is for tiny widths only"):
        naive_cea_sd(src, reliability_params(src, 1, 0.5, 1), 10**9)
    assert time.perf_counter() - start < 1.0


def test_exact_checks_refuse_a_wide_hash_by_the_work_rule():
    # w = 13: the per-sample work alone, 2^26 terms, is past the limit
    src = deterministic_pair_source()
    params = reliability_params(src, 13, 0.5, 1)
    for check in (ot_bound_check, cea_bound_check, composability_check):
        with pytest.raises(RegimeTooLarge) as refused:
            check(src, params)
        assert str(refused.value) == ("enumeration of 1 * 2^26 terms over 1 * 2^28 cells exceeds 2^24;"
                                      " use micro params")


@pytest.mark.parametrize("q_e", [2000, 100_000])
def test_cea_bound_refuses_a_huge_q_e_by_its_exponents(tmp_path, capsys, det_session, q_e):
    # w = 8, t = 1, ell = 5: the counts, 2^(16 (1 + q_e)) terms and
    # 2^(22 (1 + q_e)) cells, have thousands of digits; their exponents do not
    src, params = det_session
    bad = _write(tmp_path, "bad.json", dict(json.loads(open(params).read()), q_e=q_e))
    start = time.perf_counter()
    code, err = _run(capsys, ["verify", "--source", src, "--params", bad, "--mode", "cea-bound"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (4, f"regime too large: enumeration of 1 * 2^{16 * (1 + q_e)} terms over"
                              f" 1 * 2^{22 * (1 + q_e)} cells exceeds 2^24; use micro params\n")
