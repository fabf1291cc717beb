"""Command-line front end.

Exit codes: 0 success or passing report, 1 usage/format problems
(numbers that overflow a float included), 2 infeasible operating
point, 3 protocol failure (decapsulation or decryption returned
bottom), 4 enumeration regime too large.

Every subcommand is deterministic for a given ``--seed`` (default is
the documented constant ``DEFAULT_SEED``); pass ``--random-seed`` to
draw one from the OS instead.  Sender sample files carry a use
counter so the tool can warn when a triple exceeds its q_e budget.
"""

import argparse
import functools
import json
import os
import secrets
import sys
import tempfile

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
from .ikem import (
    BOTTOM,
    decap,
    derive_lengths,
    derive_params,
    encap,
    hash_width,
    source_digest,
)
from .source import avg_cond_min_entropy, sample_n
from . import wire

DEFAULT_SEED = 101

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BOTTOM = 3
EXIT_REGIME = 4

VERIFY_MODES = ("correctness", "ot-bound", "cea-bound", "he-game", "composability")


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
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    ver.add_argument("--mode", choices=VERIFY_MODES, required=True)
    ver.add_argument("--trials", type=int, default=10000)
    ver.add_argument("--out", default=None, help="report JSON path (default stdout)")
    return top


def _seed_of(args) -> int:
    if getattr(args, "random_seed", False):
        return secrets.randbits(63)
    return args.seed


def _load_session(args):
    """Source and params, checked against each other: the params must
    carry the source's digest and the (nu, t) that the source, n, eps,
    sigma and q_e give, so a file cannot widen the decap list."""
    source = wire.load_source(args.source)
    params = wire.load_params(args.params)
    if params.source_digest != source_digest(source):
        raise FormatError("params were derived for a different source")
    h_xy = params.n * avg_cond_min_entropy(source, 0, (1,))
    nu, t, _ = derive_lengths(h_xy, 0.0, params.eps, params.sigma, params.q_e)
    if (params.nu, params.t) != (nu, t):
        raise FormatError(
            f"params give nu={params.nu}, t={params.t}; the source gives nu={nu}, t={t}"
        )
    return source, params


def _bump_uses(args, params) -> None:
    """Count one more encapsulation of the sender sample; warn past the
    budget.

    Runs before the ciphertext is written, so a failed write still
    counts as a use.  The new document goes to a temp file in the
    sample's directory and replaces the sample atomically.
    """
    doc = wire._read_json(args.sample, "sample")
    uses = wire._json_number(doc.get("uses", 0), int, "uses")
    if uses < 0:
        raise FormatError(f"uses must be >= 0, got {uses}")
    doc["uses"] = uses + 1
    mode = os.stat(args.sample).st_mode & 0o7777
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(args.sample)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.chmod(tmp, mode)
        os.replace(tmp, args.sample)
    except BaseException:
        os.unlink(tmp)
        raise
    if doc["uses"] > params.q_e + 1:
        print(
            f"warning: sample used {doc['uses']} times, beyond the q_e={params.q_e} budget",
            file=sys.stderr,
        )


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
    source, params = _load_session(args)
    x_vec = wire.load_sample(args.sample, params, source, "alice")
    rng = np.random.default_rng(_seed_of(args))
    ctxt, key = encap(params, source, x_vec, rng)
    _bump_uses(args, params)
    with open(f"{args.out}.ctxt", "wb") as fh:
        fh.write(wire.kem_ciphertext_to_bytes(params, source, ctxt))
    with open(f"{args.out}.key", "wb") as fh:
        fh.write(wire.key_to_bytes(key))
    print(f"wrote {args.out}.ctxt and {args.out}.key")
    return EXIT_OK


def cmd_decap(args) -> int:
    source, params = _load_session(args)
    y_vec = wire.load_sample(args.sample, params, source, "bob")
    with open(args.ctxt, "rb") as fh:
        ctxt = wire.kem_ciphertext_from_bytes(params, source, fh.read())
    key = decap(params, source, y_vec, ctxt)
    if key is BOTTOM:
        print("BOTTOM")
        return EXIT_BOTTOM
    with open(args.out, "wb") as fh:
        fh.write(wire.key_to_bytes(key))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_encrypt(args) -> int:
    source, params = _load_session(args)
    x_vec = wire.load_sample(args.sample, params, source, "alice")
    with open(args.infile, "rb") as fh:
        message = fh.read()
    scheme = SCHEME_OTP if args.scheme == "otp" else SCHEME_STREAM
    rng = np.random.default_rng(_seed_of(args))
    ctxt = he_encrypt(params, source, x_vec, message, rng, scheme)
    _bump_uses(args, params)
    with open(args.out, "wb") as fh:
        fh.write(wire.hybrid_to_bytes(params, source, ctxt))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    source, params = _load_session(args)
    y_vec = wire.load_sample(args.sample, params, source, "bob")
    with open(args.infile, "rb") as fh:
        ctxt = wire.hybrid_from_bytes(params, source, fh.read())
    message = he_decrypt(params, source, y_vec, ctxt)
    if message is BOTTOM:
        print("BOTTOM")
        return EXIT_BOTTOM
    with open(args.out, "wb") as fh:
        fh.write(message)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    source, params = _load_session(args)
    seed = _seed_of(args)
    if args.mode == "correctness":
        report = harness.correctness_mc(source, params, args.trials, seed)
    elif args.mode == "ot-bound":
        report = harness.ot_bound_check(source, params)
    elif args.mode == "cea-bound":
        report = harness.cea_bound_check(source, params)
    elif args.mode == "composability":
        report = harness.composability_check(source, params)
    else:  # he-game: refuse before building the |X|^n posterior
        harness.check_he_work(source, params, args.trials)
        adversary = harness.BestGuessOtpHeAdversary(source, params)
        report = harness.run_he_game(
            source, params, adversary, params.q_e, args.trials, seed, SCHEME_OTP
        )
    doc = harness.report_json(report)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
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
    args = build_parser().parse_args(argv)
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
