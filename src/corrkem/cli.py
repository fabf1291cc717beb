"""Command-line front end.

Exit codes: 0 success or passing report, 1 usage/format problems
(argument errors, a negative seed, floats that overflow), 2 infeasible
operating point, 3 protocol failure (decapsulation or decryption
returned bottom), 4 enumeration regime too large.

Every subcommand is deterministic for a given ``--seed`` (default is
the documented constant ``DEFAULT_SEED``); pass ``--random-seed`` to
draw one from the OS instead.  Every session is checked as a whole:
the params file must equal the operating point its source gives at
the file's n, eps, ell, sigma and q_e.  ``encap`` and ``encrypt`` share
one sender path, ``decap`` and ``decrypt`` one receiver path; ``wire``
owns every file format, the sender sample's use counter included.  The
sender path warns on stderr when a sample is used past its q_e budget
or when ell is past the secrecy bound (a reliability-only session).
"""

import argparse
import functools
import json
import secrets
import sys

import numpy as np

from . import harness
from .dem import SCHEME_OTP, SCHEME_STREAM
from .errors import (
    CorrkemError,
    FormatError,
    InfeasibleKeyLength,
    RegimeTooLarge,
)
from .hybrid import he_decrypt, he_encrypt
from .ikem import BOTTOM, decap, derive_params, encap, hash_width, reliability_params
from .source import avg_cond_min_entropy, sample_n
from . import wire

DEFAULT_SEED = 101

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BOTTOM = 3
EXIT_REGIME = 4


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:  # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError(f"seed must be non-negative, not {seed}")
    return seed


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="corrkem", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, params=True, sample=None, seed=True):
        p.add_argument("--source", required=True, help="source spec JSON")
        if params:
            p.add_argument("--params", required=True, help="params JSON")
        if sample:
            p.add_argument("--sample", required=True, help=f"{sample} sample JSON")
        if seed:
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
            p.add_argument("--random-seed", action="store_true", help="use OS entropy")

    plan = sub.add_parser("plan", help="derive an operating point")
    plan.add_argument("--source", required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--eps", type=float, required=True)
    plan.add_argument("--sigma", type=float, required=True)
    plan.add_argument("--qe", type=int, default=0)
    plan.add_argument("--ell", type=int, default=None, help="request a shorter key")
    plan.add_argument("--out", required=True)

    gen = sub.add_parser("gen", help="sample the preprocessing triple")
    common(gen)
    gen.add_argument("--out", required=True, help="prefix for .alice/.bob/.eve.json")

    enc = sub.add_parser("encap", help="encapsulate a key")
    common(enc, sample="sender")
    enc.add_argument("--out", required=True, help="prefix for .ctxt/.key")

    dec = sub.add_parser("decap", help="decapsulate a key")
    common(dec, sample="receiver", seed=False)
    dec.add_argument("--ctxt", required=True)
    dec.add_argument("--out", required=True, help="key file path")

    encr = sub.add_parser("encrypt", help="hybrid-encrypt a file")
    common(encr, sample="sender")
    encr.add_argument("--in", dest="infile", required=True)
    encr.add_argument("--scheme", choices=("otp", "stream"), default="otp")
    encr.add_argument("--out", required=True)

    decr = sub.add_parser("decrypt", help="hybrid-decrypt a file")
    common(decr, sample="receiver", seed=False)
    decr.add_argument("--in", dest="infile", required=True)
    decr.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run a verification mode")
    common(ver)
    ver.add_argument("--mode", choices=tuple(_CHECKS), required=True)
    ver.add_argument("--trials", type=int, default=10000)
    ver.add_argument("--out", default=None, help="report JSON path (default stdout)")
    return top


def _seed_of(args) -> int:
    if getattr(args, "random_seed", False):
        return secrets.randbits(63)
    return args.seed


def _load_session(args):
    """Source and params, checked against each other: the params must be
    the operating point that the source gives at their own n, eps, ell,
    sigma and q_e (digest, nu and t included), so a file cannot widen
    the decap list."""
    source = wire.load_source(args.source)
    params = wire.load_params(args.params)
    derived = reliability_params(source, params.n, params.eps, params.ell, params.sigma, params.q_e)
    if params != derived:
        raise FormatError(f"params do not match their source: the file gives {params}, "
                          f"the source gives {derived}")
    return source, params


def _write(outputs: dict) -> int:
    for path, blob in outputs.items():
        with open(path, "wb") as fh:
            fh.write(blob)
    print("wrote " + " and ".join(outputs))
    return EXIT_OK


def _send(args, seal) -> int:
    """The sender side of encap and encrypt.  `seal(params, source,
    x_vec, rng)` returns the {path: bytes} outputs; the use is counted
    (warning past the q_e budget or the secrecy bound) before any is
    written, so a failed write still counts."""
    source, params = _load_session(args)
    x_vec = wire.load_sample(args.sample, params, source, "alice")
    outputs = seal(params, source, x_vec, np.random.default_rng(_seed_of(args)))
    uses = wire.count_use(args.sample)
    if uses > params.q_e + 1:
        print(f"warning: sample used {uses} times, beyond the q_e={params.q_e} budget",
              file=sys.stderr)
    try:
        derive_params(source, params.n, params.eps, params.sigma, params.q_e, ell_target=params.ell)
    except InfeasibleKeyLength as exc:
        print(f"warning: ell={params.ell} is past the secrecy bound: {exc}", file=sys.stderr)
    return _write(outputs)


def _receive(args, path, decode, unseal, encode) -> int:
    """The receiver side of decap and decrypt: the block at `path`
    through `decode`, `unseal` and `encode` to args.out, or BOTTOM."""
    source, params = _load_session(args)
    y_vec = wire.load_sample(args.sample, params, source, "bob")
    with open(path, "rb") as fh:
        ctxt = decode(params, source, fh.read())
    opened = unseal(params, source, y_vec, ctxt)
    if opened is BOTTOM:
        print("BOTTOM")
        return EXIT_BOTTOM
    return _write({args.out: encode(opened)})


def cmd_plan(args) -> int:
    source = wire.load_source(args.source)
    params = derive_params(source, args.n, args.eps, args.sigma, args.qe, ell_target=args.ell)
    wire.save_json(args.out, wire.params_to_json(params))
    h_xy = args.n * avg_cond_min_entropy(source, 0, (1,)) + 0.0
    h_xz = args.n * avg_cond_min_entropy(source, 0, (2,)) + 0.0
    rows = [
        ("source", source.label or args.source),
        ("n", params.n),
        ("H(X|Y) bits", f"{h_xy:.4f}"),
        ("H(X|Z) bits", f"{h_xz:.4f}"),
        ("nu", f"{params.nu:.4f}"),
        ("t", params.t),
        ("ell", params.ell),
        ("eps", params.eps),
        ("sigma", params.sigma),
        ("q_e", params.q_e),
        ("hash width", hash_width(source, params)),
    ]
    for name, value in rows:
        print(f"{name:<14} {value}")
    return EXIT_OK


def cmd_gen(args) -> int:
    source, params = _load_session(args)
    triple = sample_n(source, params.n, _seed_of(args))
    docs = wire.triple_to_sample_docs(params, triple)
    for role, doc in docs.items():
        wire.save_json(f"{args.out}.{role}.json", doc)
    print(f"wrote {args.out}.{{alice,bob,eve}}.json")
    return EXIT_OK


def cmd_encap(args) -> int:
    def seal(params, source, x_vec, rng):
        ctxt, key = encap(params, source, x_vec, rng)
        return {f"{args.out}.ctxt": wire.kem_ciphertext_to_bytes(params, source, ctxt),
                f"{args.out}.key": wire.key_to_bytes(key)}

    return _send(args, seal)


def cmd_encrypt(args) -> int:
    def seal(params, source, x_vec, rng):
        with open(args.infile, "rb") as fh:
            message = fh.read()
        scheme = SCHEME_OTP if args.scheme == "otp" else SCHEME_STREAM
        ctxt = he_encrypt(params, source, x_vec, message, rng, scheme)
        return {args.out: wire.hybrid_to_bytes(params, source, ctxt)}

    return _send(args, seal)


def cmd_decap(args) -> int:
    return _receive(args, args.ctxt, wire.kem_ciphertext_from_bytes, decap, wire.key_to_bytes)


def cmd_decrypt(args) -> int:
    return _receive(args, args.infile, wire.hybrid_from_bytes, he_decrypt, bytes)


_CHECKS = {
    "correctness": lambda source, params, args: harness.correctness_mc(
        source, params, args.trials, _seed_of(args)),
    "ot-bound": lambda source, params, args: harness.ot_bound_check(source, params),
    "cea-bound": lambda source, params, args: harness.cea_bound_check(source, params),
    "he-game": lambda source, params, args: harness.run_he_game(
        source, params, harness.BestGuessOtpHeAdversary(source, params), params.q_e,
        args.trials, _seed_of(args), SCHEME_OTP),
    "composability": lambda source, params, args: harness.composability_check(source, params),
}


def cmd_verify(args) -> int:
    source, params = _load_session(args)
    report = _CHECKS[args.mode](source, params, args)
    doc = harness.report_json(report)
    if args.out:
        wire.save_json(args.out, doc)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_USAGE


_COMMANDS = {
    "plan": cmd_plan,
    "gen": cmd_gen,
    "encap": cmd_encap,
    "decap": cmd_decap,
    "encrypt": cmd_encrypt,
    "decrypt": cmd_decrypt,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on an argument error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleKeyLength as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RegimeTooLarge as exc:
        print(f"regime too large: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (CorrkemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # plan arguments or params numbers past float range
        print(f"error: numbers out of range: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
