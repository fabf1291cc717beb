"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).  Seeds are fixed so reruns are byte-identical.
"""

import time
from itertools import product

import numpy as np
import pytest

from corrkem import (
    UhfSpec,
    derive_lengths,
    enumerate_typical,
    make_table_source,
    pairwise_independence_census,
    reliability_params,
    satellite_source,
    surprisal,
)
from corrkem import wire
from corrkem.cli import main as cli_main
from corrkem.harness import (
    BestGuessOtpHeAdversary,
    cea_transcript_sd,
    composability_check,
    correctness_mc,
    exact_challenge_sd,
    lhl_bound,
    mc_sigma,
    ot_bound_check,
    run_he_game,
)
from corrkem.source import avg_cond_min_entropy

from conftest import (
    cea_transcript_distribution,
    deterministic_pair_source,
    dishonest,
    he_micro_instance,
    honest_cea_instance,
    honest_ot_instance,
    random_micro_source,
)


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_census_exactness():
    worst = 0.0
    slowest = 0.0
    for w, m in [(3, 1), (4, 2), (4, 4), (6, 3)]:
        start = time.perf_counter()
        dev = pairwise_independence_census(UhfSpec(w, m))
        elapsed = time.perf_counter() - start
        worst = max(worst, dev)
        slowest = max(slowest, elapsed)
        assert elapsed < 10.0, f"census({w},{m}) took {elapsed:.1f}s"
    _verdict(1, "uhf-census-exact-zero", worst == 0.0, f"max dev {worst}, slowest {slowest:.2f}s")


def test_criterion_02_lhl_extractor_bound():
    rng = np.random.default_rng(0xACCE71)
    violations = 0
    checked = 0
    while checked < 50:
        src, n = random_micro_source(rng, max_bits=8, n_max=2)
        t = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        from corrkem.ikem import IkemParams

        params = IkemParams(n=n, t=t, ell=ell, nu=1.0, eps=0.5, sigma=0.25,
                            q_e=0, source_digest="acc")
        sd, _ = exact_challenge_sd(src, params)
        h_xz = n * avg_cond_min_entropy(src, 0, (2,))
        if sd > lhl_bound(t, ell, h_xz) + 1e-12:
            violations += 1
        checked += 1
    _verdict(2, "lhl-extractor-bound", violations == 0, f"{checked} sources, {violations} violations")


def test_criterion_03_reliability_bound():
    start = time.perf_counter()
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=8, eps=0.25, ell=8)
    report = correctness_mc(src, params, 10_000, seed=0xACCE73)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    _verdict(3, "reliability-mc", ok,
             f"failure {report.advantage_estimate:.4f} vs eps {params.eps}, {elapsed:.1f}s")


def test_criterion_04_typical_set_oracle_equivalence():
    rng = np.random.default_rng(0xACCE74)
    sources = 0
    mismatches = 0
    while sources < 20:
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 4))
        n = int(rng.integers(1, 13))
        if nx**n > 4096:
            continue
        pmf = rng.random((nx, ny, 1)) * (rng.random((nx, ny, 1)) < 0.85)
        pmf[int(rng.integers(0, nx)), int(rng.integers(0, ny)), 0] += 0.1
        pmf /= pmf.sum()
        src = make_table_source(
            (nx, ny, 1), {(x, y, 0): pmf[x, y, 0] for x in range(nx) for y in range(ny)}
        )
        py = pmf.sum(axis=(0, 2))
        y_vec = np.array([int(v) for v in rng.integers(0, ny, size=n)])
        if any(py[v] <= 0 for v in y_vec):
            continue
        sources += 1
        for nu in (0.0, float(rng.random() * 1.5 * n), float(rng.random() * 4 * n)):
            fast = [tuple(v) for v in enumerate_typical(src, y_vec, nu)]
            brute = [
                xv for xv in product(range(nx), repeat=n)
                if surprisal(src, np.array(xv), y_vec) <= nu
            ]
            if fast != brute:
                mismatches += 1
    _verdict(4, "typical-set-equivalence", mismatches == 0, f"{sources} sources, exact set equality")


def test_criterion_05_ot_bound():
    rng = np.random.default_rng(0xACCE75)
    reports = []
    for _ in range(20):
        src, params = honest_ot_instance(rng)
        reports.append((src, params, ot_bound_check(src, params)))
    honest_ok = all(r.passed for _, _, r in reports)

    detector_ok = False
    for src, params, report in reports:
        if report.advantage_estimate > 1e-6:
            forced = dishonest(params, sigma=report.advantage_estimate / 2)
            detector_ok = not ot_bound_check(src, forced).passed
            break
    _verdict(5, "ot-bound", honest_ok and detector_ok,
             f"20 honest instances pass, detector fires: {detector_ok}")


def test_criterion_06_cea_bound():
    rng = np.random.default_rng(0xACCE76)
    violations = 0
    for _ in range(6):
        src, params = honest_cea_instance(rng)
        sd, _ = cea_transcript_sd(src, params, 1)
        if sd > 2.0 * params.sigma + 1e-12:
            violations += 1

    identical = True
    for _ in range(3):
        src, n = random_micro_source(rng, max_bits=4)
        from corrkem.ikem import IkemParams

        params = IkemParams(n=n, t=1, ell=1, nu=1.0, eps=0.5, sigma=0.5,
                            q_e=0, source_digest="acc")
        sd_joint = cea_transcript_distribution(src, params, 0)
        sd_ot, _ = exact_challenge_sd(src, params)
        sd_cea, _ = cea_transcript_sd(src, params, 0)
        identical &= abs(sd_joint - sd_ot) <= 1e-12
        identical &= abs(sd_joint - sd_cea) <= 1e-12
    _verdict(6, "cea-bound", violations == 0 and identical,
             f"q_e=1 violations {violations}, q_e=0 joint/ot/cea agree {identical}")


def test_criterion_07_composition_mc():
    src, params = he_micro_instance()
    trials = 2000
    report = run_he_game(
        src, params, BestGuessOtpHeAdversary(src, params), 0, trials,
        seed=0xACCE77, scheme_tag="OTP",
    )
    bound = params.sigma + 0.0 + 3.0 * mc_sigma(trials)  # OTP: sigma' = 0
    ok = report.advantage_estimate <= bound
    _verdict(7, "he-composition-mc", ok,
             f"advantage {report.advantage_estimate:.4f} <= {bound:.4f}")


def test_criterion_08_composability_bound():
    rng = np.random.default_rng(0xACCE78)
    violations = 0
    checked = 0
    for _ in range(6):
        src, params = honest_ot_instance(rng, max_bits=4)
        report = composability_check(src, params)
        checked += 1
        if not report.passed:
            violations += 1
    _verdict(8, "composability-bound", violations == 0,
             f"{checked} micro instances within eps+sigma")


def test_criterion_09_parameter_arithmetic():
    nu, t, _ = derive_lengths(2.0, 0.0, 0.5, 0.5, 0)
    ell_ot = derive_lengths(2.0, 40.0, 0.5, 2.0**-4, 0)[2]
    ell_cea = derive_lengths(2.0, 40.0, 0.5, 2.0**-4, 1)[2]
    ok = (nu, t, ell_ot, ell_cea) == (8.0, 8, 26, 5)
    _verdict(9, "parameter-arithmetic", ok, f"t={t}, ell_ot={ell_ot}, ell_cea={ell_cea}")


def test_criterion_10_cli_end_to_end(tmp_path):
    src_path = str(tmp_path / "source.json")
    wire.save_json(src_path, wire.source_to_json(deterministic_pair_source()))
    params_path = str(tmp_path / "params.json")
    code = cli_main(["plan", "--source", src_path, "--n", "280", "--eps", "0.5",
                     "--sigma", str(2.0**-8), "--qe", "0", "--ell", "256",
                     "--out", params_path])
    assert code == 0
    prefix = str(tmp_path / "run")
    assert cli_main(["gen", "--source", src_path, "--params", params_path,
                     "--out", prefix, "--seed", "41"]) == 0
    payload = tmp_path / "payload.bin"
    payload.write_bytes(np.random.default_rng(0xACCE70).bytes(1024))
    ct_path = str(tmp_path / "payload.ihe")
    assert cli_main(["encrypt", "--source", src_path, "--params", params_path,
                     "--sample", f"{prefix}.alice.json", "--in", str(payload),
                     "--scheme", "stream", "--out", ct_path, "--seed", "42"]) == 0
    plain_path = tmp_path / "payload.out"
    assert cli_main(["decrypt", "--source", src_path, "--params", params_path,
                     "--sample", f"{prefix}.bob.json", "--in", ct_path,
                     "--out", str(plain_path)]) == 0
    roundtrip = plain_path.read_bytes() == payload.read_bytes()

    blob = bytearray((tmp_path / "payload.ihe").read_bytes())
    blob[18] ^= 0x01  # kem tag byte: 4 hybrid magic + 4 kem magic + 8 digest + 2 t
    (tmp_path / "payload.ihe").write_bytes(bytes(blob))
    tamper_code = cli_main(["decrypt", "--source", src_path, "--params", params_path,
                            "--sample", f"{prefix}.bob.json", "--in", ct_path,
                            "--out", str(plain_path)])
    ok = roundtrip and tamper_code == 3
    _verdict(10, "cli-end-to-end", ok, f"1 KiB byte-exact {roundtrip}, tamper exit {tamper_code}")
