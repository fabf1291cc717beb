"""The three benchmark workloads.

Each workload builds its inputs from the run seed and exposes
``op(i)``: it performs operation ``i``, returns the seconds the program
spent on it, and raises :class:`OpFailed` when an output check fails.
Operation ``i`` is a pure function of (seed, i), so any prefix of the
op sequence repeats exactly for a given seed.

Every call into corrkem goes through a module attribute
(``ikem.decap``, ``cli.main``, ``harness.ot_bound_check``, ...) so that
the traced run can wrap those names without touching the program.
"""

import contextlib
import io
import json
import os
import tempfile
from time import perf_counter

import numpy as np

import corrkem
from corrkem import cli, harness, ikem, source, uhf
from corrkem.ikem import BOTTOM, IkemKey

# Index of the untimed warm-up op; far outside any timed op sequence.
WARMUP_OP = 1 << 40
# decap_failure_ratio is taken over ops 0..DECAP_WINDOW-1, so it repeats
# exactly for a seed whatever the run length.
DECAP_WINDOW = 200


class OpFailed(Exception):
    """An output check failed: the program returned a wrong result."""


class KemSatellite:
    """One op: draw a sample, encapsulate, decapsulate (n = 16).

    The receiver's list is the Hamming ball of radius 4 around y, 2517
    candidates for every y, so decapsulation dominates the op.
    """

    name = "kem_satellite_n16"
    pass_len = 1
    n = 16

    def __init__(self, seed: int, fault: str | None = None, workdir=None):
        self.seed = seed
        self.fault = fault
        self.src = source.satellite_source(0.05, 0.05, 0.3)
        self.params = ikem.reliability_params(self.src, n=self.n, eps=0.25, ell=8)
        self.outcomes: dict[int, str] = {}

    def prepare(self) -> None:
        self.op(WARMUP_OP)
        del self.outcomes[WARMUP_OP]

    def op(self, i: int) -> float:
        rng = np.random.default_rng([self.seed, i])
        t0 = perf_counter()
        triple = source.sample_with_rng(self.src, self.n, rng)
        ctxt, key = ikem.encap(self.params, self.src, triple.x, rng)
        got = ikem.decap(self.params, self.src, triple.y, ctxt)
        elapsed = perf_counter() - t0
        if self.fault == "key" and isinstance(got, IkemKey):
            got = IkemKey(got.bits ^ 1, got.length)
        self.outcomes[i] = self._classify(triple, key, got)
        return elapsed

    def _classify(self, triple, key, got) -> str:
        """"ok", or the paper's eps event: "bottom" or "wrong_key".

        A wrong key is a protocol outcome only when the sender's sample
        lies outside the receiver's list; inside it, the sample matches
        its own tag, so a unique match must be the sample itself.
        """
        if got is BOTTOM:
            return "bottom"
        if not isinstance(got, IkemKey) or got.length != self.params.ell:
            raise OpFailed(f"decap returned {got!r}")
        if got == key:
            return "ok"
        if source.surprisal(self.src, triple.x, triple.y) <= self.params.nu:
            raise OpFailed("decap returned a wrong key for a sample inside the list")
        return "wrong_key"

    def decap_failures(self) -> tuple[int, int]:
        """(failures, attempts) over the fixed window of the first ops."""
        window = [self.outcomes[i] for i in range(DECAP_WINDOW) if i in self.outcomes]
        return sum(o != "ok" for o in window), len(window)

    def close(self) -> None:
        pass


DEMO_SOURCE = {
    "type": "table",
    "alphabets": [2, 2, 1],
    "pmf": [{"x": 0, "y": 0, "z": 0, "p": 0.5}, {"x": 1, "y": 1, "z": 0, "p": 0.5}],
}
# Byte 18 of a hybrid block is the kem tag: 4 hybrid magic + 4 kem magic
# + 8 digest + 2 for t.
TAG_BYTE = 18
SIZE_STRATA = 256


class CliHybrid:
    """One op: ``plan -> gen -> encrypt --scheme stream -> decrypt`` through
    ``cli.main`` in-process, then a decrypt of the block with one flipped
    tag byte, which must exit 3.

    Message sizes are log-uniform between 1 KiB and 1 MiB, stratified
    over 256 strata so every seed sees the same size distribution.
    """

    name = "cli_hybrid_n280"
    pass_len = 1

    def __init__(self, seed: int, fault: str | None = None, workdir=None):
        self.seed = seed
        self.fault = fault
        self.tmp = tempfile.TemporaryDirectory(dir=workdir, prefix="cli-")
        self.src_path = os.path.join(self.tmp.name, "source.json")
        with open(self.src_path, "w", encoding="utf-8") as fh:
            json.dump(DEMO_SOURCE, fh)
        rng = np.random.default_rng([seed, 0xC11])
        strata = (np.arange(SIZE_STRATA) + rng.random(SIZE_STRATA)) / SIZE_STRATA
        self.sizes = rng.permutation(np.round(2.0 ** (10 + 10 * strata)).astype(np.int64))

    def prepare(self) -> None:
        self.op(WARMUP_OP)

    def _main(self, step: str, argv: list[str], expected: int) -> float:
        """Run one `corrkem` command; `step` names it for the traced run."""
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        elapsed = perf_counter() - t0
        if code != expected:
            raise OpFailed(f"corrkem {step} exited {code}, expected {expected}: {sink.getvalue()[-300:]}")
        return elapsed

    def op(self, i: int) -> float:
        rng = np.random.default_rng([self.seed, i])
        message = rng.bytes(int(self.sizes[i % SIZE_STRATA]))
        gen_seed, enc_seed = (str(int(v)) for v in rng.integers(0, 1 << 62, 2))
        prefix = os.path.join(self.tmp.name, f"op{i}")
        paths = {k: f"{prefix}.{k}" for k in ("params.json", "msg", "ihe", "out", "bad.ihe", "bad.out")}
        with open(paths["msg"], "wb") as fh:
            fh.write(message)
        session = ["--source", self.src_path, "--params", paths["params.json"]]
        try:
            elapsed = self._main("plan",
                ["plan", "--source", self.src_path, "--n", "280", "--eps", "0.5",
                 "--sigma", str(2.0**-8), "--ell", "256", "--out", paths["params.json"]], 0)
            elapsed += self._main("gen", ["gen", *session, "--seed", gen_seed, "--out", prefix], 0)
            elapsed += self._main("encrypt",
                ["encrypt", *session, "--sample", f"{prefix}.alice.json", "--in", paths["msg"],
                 "--scheme", "stream", "--seed", enc_seed, "--out", paths["ihe"]], 0)
            elapsed += self._main("decrypt",
                ["decrypt", *session, "--sample", f"{prefix}.bob.json", "--in", paths["ihe"],
                 "--out", paths["out"]], 0)
            with open(paths["ihe"], "rb") as fh:
                block = bytearray(fh.read())
            block[TAG_BYTE] ^= 0x01
            with open(paths["bad.ihe"], "wb") as fh:
                fh.write(block)
            elapsed += self._main("decrypt_tampered",
                ["decrypt", *session, "--sample", f"{prefix}.bob.json", "--in", paths["bad.ihe"],
                 "--out", paths["bad.out"]], 3)
            if self.fault == "plaintext":
                with open(paths["out"], "r+b") as fh:
                    first = fh.read(1)
                    fh.seek(0)
                    fh.write(bytes([first[0] ^ 0x01]))
            with open(paths["out"], "rb") as fh:
                if fh.read() != message:
                    raise OpFailed(f"round-trip of {len(message)} bytes is not byte-exact")
            if os.path.exists(paths["bad.out"]):
                raise OpFailed("tampered decrypt wrote a plaintext")
        finally:
            for name in os.listdir(self.tmp.name):
                if name.startswith(f"op{i}."):
                    os.remove(os.path.join(self.tmp.name, name))
        return elapsed

    def close(self) -> None:
        self.tmp.cleanup()


def _leaky_source(rng, xbits: int, leak: int, flip: float):
    """X near-uniform on 2^xbits symbols, Y = X with the low bit flipped
    at rate `flip`, Z = the top `leak` bits of X."""
    nx = 1 << xbits
    px = np.full(nx, 1.0 / nx) * (rng.random(nx) * 0.2 + 0.9)
    px /= px.sum()
    pmf = np.zeros((nx, nx, 1 << leak))
    for x in range(nx):
        z = x >> (xbits - leak)
        pmf[x, x, z] += px[x] * (1.0 - flip)
        pmf[x, x ^ 1, z] += px[x] * flip
    return corrkem.JointSource((nx, nx, 1 << leak), pmf, label=f"leaky{xbits}-{leak}")


OT_ELL = 2


def _honest_ot(rng, xbits: int, leak: int):
    """(source, params) from derive_params at q_e = 0 with hash width
    xbits, t = 1 and ell = 2; sigma lands half a bit above the bound."""
    src = _leaky_source(rng, xbits, leak, 0.03)
    h_xz = corrkem.avg_cond_min_entropy(src, 0, (2,))
    sigma = min(0.9, 2.0 ** (0.5 * (OT_ELL + 0.5 - (h_xz + 1.0))))
    return src, corrkem.derive_params(src, 1, 0.5, sigma, 0, ell_target=OT_ELL)


def _honest_cea(rng):
    src = _leaky_source(rng, 4, 0, 0.03)
    return src, corrkem.derive_params(src, 1, 0.5, float(rng.uniform(0.75, 0.95)), 1)


def _he_micro():
    """X = Y uniform on 16 symbols, n = 3, Z constant, ell = 8."""
    src = corrkem.make_table_source((16, 16, 1), {(x, x, 0): 1 / 16 for x in range(16)}, label="he-micro")
    return src, corrkem.derive_params(src, 3, 0.5, 2.0**-2.25, 0, ell_target=8)


# One pass of verify_micro.  Widths, Z alphabets, eps and ell are fixed so a
# check's cost does not depend on the seed; the seed draws the pmfs.
# (kind, hash width, leaked bits of X)
VERIFY_SLOTS = (
    [("ot", w, leak) for w, leak in ((3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (5, 1), (5, 2),
                                     (6, 1), (6, 2), (7, 1), (7, 2), (8, 2))]
    + [("composability", w, leak) for w, leak in ((2, 0), (3, 0), (3, 1), (4, 1), (4, 2),
                                                  (5, 1), (6, 1), (6, 2))]
    + [("cea", 4, 0)] * 3
    + [("census", 6, 3), ("he", 12, 0)]
)
# Full-seed oracles are affordable up to these hash widths.
NAIVE_OT_MAX_W = 3
NAIVE_COMPOSE_MAX_W = 2
ORACLE_TOL = 1e-12
HE_TRIALS = 200


class VerifyMicro:
    """One op: one exact or Monte Carlo check from a fixed pass of honest
    micro instances.  The loop always ends on a whole pass."""

    name = "verify_micro"

    def __init__(self, seed: int, fault: str | None = None, workdir=None):
        self.fault = fault
        rng = np.random.default_rng([seed, 0x7E51])
        self.checks = [self._build(kind, w, leak, rng) for kind, w, leak in VERIFY_SLOTS]
        self.pass_len = len(self.checks)
        self.reference: list[float] = []

    @staticmethod
    def _build(kind, w, leak, rng):
        """(label, run, oracle): run() -> (distance, passed); oracle is
        None or a naive full-seed recomputation of the distance."""
        if kind == "ot":
            src, params = _honest_ot(rng, w, leak)

            def run():
                rep = harness.ot_bound_check(src, params)
                return rep.advantage_estimate, rep.passed

            oracle = (lambda: harness.naive_challenge_sd(src, params)) if w <= NAIVE_OT_MAX_W else None
        elif kind == "composability":
            src, params = _honest_ot(rng, w, leak)

            def run():
                rep = harness.composability_check(src, params)
                return rep.advantage_estimate, rep.passed

            oracle = (lambda: harness.naive_composability_sd(src, params)) if w <= NAIVE_COMPOSE_MAX_W else None
        elif kind == "cea":
            src, params = _honest_cea(rng)

            def run():
                rep = harness.cea_bound_check(src, params)
                return rep.advantage_estimate, rep.passed

            oracle = None
        elif kind == "census":
            spec = uhf.UhfSpec(w, leak)

            def run():
                dev = uhf.pairwise_independence_census(spec)
                return dev, dev == 0.0

            oracle = None
        else:
            src, params = _he_micro()
            adversary = harness.BestGuessOtpHeAdversary(src, params)
            game_seed = int(rng.integers(0, 1 << 62))

            def run():
                rep = harness.run_he_game(src, params, adversary, 0, HE_TRIALS, game_seed, "OTP")
                return rep.advantage_estimate, rep.passed

            oracle = None
        return f"{kind} w={w}/{leak}", run, oracle

    def prepare(self) -> None:
        """Reference pass (untimed): every honest report passes, and the
        small instances agree with the naive full-seed oracles."""
        for label, run, oracle in self.checks:
            value, passed = run()
            if not passed:
                raise OpFailed(f"{label}: honest report fails its bound ({value!r})")
            if oracle is not None:
                naive = oracle()
                if abs(naive - value) > ORACLE_TOL:
                    raise OpFailed(f"{label}: distance {value!r} != naive oracle {naive!r}")
            self.reference.append(value)

    def op(self, i: int) -> float:
        label, run, _ = self.checks[i % self.pass_len]
        t0 = perf_counter()
        value, passed = run()
        elapsed = perf_counter() - t0
        if self.fault == "distance":
            value = float(np.nextafter(value, np.inf))
        if not passed:
            raise OpFailed(f"{label}: honest report fails its bound ({value!r})")
        # prepare() fills the reference; a set-up probe runs op 0 without it
        k = i % self.pass_len
        if k < len(self.reference) and value != self.reference[k]:
            raise OpFailed(f"{label}: distance {value!r} differs from the reference pass {self.reference[k]!r}")
        return elapsed

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (KemSatellite, CliHybrid, VerifyMicro)}
