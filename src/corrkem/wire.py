"""File and wire formats.

Integers on the wire are big-endian.  Bit strings occupy the minimal
whole number of bytes with zero-padded high bits.

* source spec (JSON): ``{"type": "table", "alphabets": [...], "pmf":
  [{"x": i, "y": j, "z": k, "p": r}, ...]}`` with unlisted cells zero,
  or ``{"type": "satellite", "pa": r, "pb": r, "pe": r}``.  Unknown
  types are rejected.
* params (JSON): the seven operating-point numbers plus the source
  digest.
* kem ciphertext: magic ``IKM1`` | 8-byte params digest | t as u16 |
  tag, ceil(t/8) bytes | key-family seed | tag-family seed (each seed
  a then b, ceil(w/8) bytes apiece).
* key file: declared bit length as u16 | ceil(ell/8) raw bytes.
* dem ciphertext: scheme byte (0x01 OTP, 0x02 STREAM) | u32 body
  length | body.
* hybrid ciphertext: magic ``IHE1`` | kem block | dem block.
* sample file (JSON): one party's private vector bound to the session
  digest; a sender sample also carries its ``uses`` counter.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np

from .dem import SCHEME_OTP, SCHEME_STREAM, DemCiphertext
from .errors import FormatError
from .hybrid import HybridCiphertext
from .ikem import IkemCiphertext, IkemKey, IkemParams, check_ciphertext, hash_specs, params_digest
from .source import JointSource, SampleTriple, check_symbols, make_table_source, satellite_source
from .uhf import UhfSpec, seed_from_bytes, seed_to_bytes

KEM_MAGIC = b"IKM1"
HYBRID_MAGIC = b"IHE1"
_SCHEME_BYTE = {SCHEME_OTP: 0x01, SCHEME_STREAM: 0x02}
_SCHEME_NAME = {v: k for k, v in _SCHEME_BYTE.items()}
_ROLES = ("alice", "bob", "eve")


# ---------------------------------------------------------------------------
# JSON documents


def source_to_json(source: JointSource) -> dict:
    cells = []
    for (x, y, z), p in np.ndenumerate(source.pmf):
        if p != 0.0:
            cells.append({"x": int(x), "y": int(y), "z": int(z), "p": float(p)})
    return {"type": "table", "alphabets": list(source.alphabet_sizes), "pmf": cells}


def _read_json(path, what: str):
    """The JSON document in the UTF-8 file at `path`; a file that cannot
    be read or parsed raises FormatError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"{what} file is not readable JSON: {exc}") from exc


def _json_number(value, kinds, what: str):
    """`value` if it is a JSON number of one of `kinds` (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise FormatError(f"{what} must be {kind}, got {value!r}")
    return value


def source_from_json(doc: dict) -> JointSource:
    if not isinstance(doc, dict):
        raise FormatError("source document must be a JSON object")
    kind = doc.get("type")
    if kind == "satellite":
        try:
            rates = [_json_number(doc[f], (int, float), f) for f in ("pa", "pb", "pe")]
        except KeyError as exc:
            raise FormatError(f"satellite source missing field {exc}") from exc
        return satellite_source(*rates)
    if kind == "table":
        try:
            sizes = [_json_number(s, int, "alphabet size") for s in doc["alphabets"]]
            entries = {
                tuple(_json_number(c[k], int, f"cell {k}") for k in "xyz"):
                    _json_number(c["p"], (int, float), "cell p")
                for c in doc["pmf"]
            }
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed table source: {exc}") from exc
        if len(entries) != len(doc["pmf"]):
            raise FormatError("table source lists a cell twice")
        return make_table_source(sizes, entries)
    raise FormatError(f"unknown source type {kind!r}")


def load_source(path) -> JointSource:
    return source_from_json(_read_json(path, "source"))


def params_to_json(params: IkemParams) -> dict:
    return dataclasses.asdict(params)


def params_from_json(doc: dict) -> IkemParams:
    """Params from their JSON document: n, t, ell and q_e must be JSON
    integers, nu, eps and sigma JSON numbers."""
    try:
        fields = {k: _json_number(doc[k], int, k) for k in ("n", "t", "ell", "q_e")}
        for k in ("nu", "eps", "sigma"):
            fields[k] = float(_json_number(doc[k], (int, float), k))
        return IkemParams(**fields, source_digest=str(doc["source_digest"]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"malformed params document: {exc}") from exc


def load_params(path) -> IkemParams:
    return params_from_json(_read_json(path, "params"))


def _dump_json(doc, fh) -> None:
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def save_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _dump_json(doc, fh)


def load_sample(path, params: IkemParams, source: JointSource, role: str) -> np.ndarray:
    """The symbols of `role`'s sample ("alice", "bob" or "eve"): a file
    of that role whose symbols pass :func:`check_symbols` for n symbols
    of the role's alphabet of `source`."""
    doc = _read_json(path, "sample")
    try:
        digest, symbols = doc["digest"], doc["symbols"]
        if doc["role"] != role:
            raise FormatError(f"sample is {doc['role']!r}'s, this command needs {role!r}'s")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed sample file: {exc}") from exc
    try:
        symbols = check_symbols(symbols, source.alphabet_sizes[_ROLES.index(role)], params.n)
    except FormatError as exc:
        raise FormatError(f"sample of {role}: {exc}") from exc
    if digest != params_digest(params).hex():
        raise FormatError("sample was generated under different params")
    return symbols


def triple_to_sample_docs(params: IkemParams, triple: SampleTriple) -> dict:
    digest = params_digest(params).hex()
    return {
        role: {"role": role, "digest": digest, "n": int(len(v)), "symbols": [int(s) for s in v]}
        for role, v in zip(_ROLES, (triple.x, triple.y, triple.z))
    }


def count_use(path) -> int:
    """Count one more use of the sample file at `path`; the new count.

    The counter must be a non-negative JSON integer (absent reads 0);
    otherwise FormatError leaves the file untouched.  The updated
    document goes to a temp file in the sample's directory that keeps
    the sample's mode bits and atomically replaces it.
    """
    doc = _read_json(path, "sample")
    if not isinstance(doc, dict):
        raise FormatError("sample document must be a JSON object")
    uses = _json_number(doc.get("uses", 0), int, "uses")
    if uses < 0:
        raise FormatError(f"uses must be >= 0, got {uses}")
    doc["uses"] = uses + 1
    mode = os.stat(path).st_mode & 0o7777
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _dump_json(doc, fh)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return doc["uses"]


# ---------------------------------------------------------------------------
# binary blocks


def kem_ciphertext_to_bytes(params: IkemParams, source: JointSource, ctxt: IkemCiphertext) -> bytes:
    tspec, kspec = check_ciphertext(params, source, ctxt)  # t fits its u16 too: no spec passes MAX_HASH_WIDTH
    out = bytearray()
    out += KEM_MAGIC
    out += params_digest(params)
    out += params.t.to_bytes(2, "big")
    out += ctxt.g.to_bytes((params.t + 7) // 8, "big")
    out += seed_to_bytes(kspec, ctxt.s_prime)
    out += seed_to_bytes(tspec, ctxt.s)
    return bytes(out)


def kem_block_size(tspec: UhfSpec, kspec: UhfSpec) -> int:
    return 4 + 8 + 2 + (tspec.output_bits + 7) // 8 + 2 * (kspec.seed_bytes + tspec.seed_bytes)


def kem_ciphertext_from_bytes(params: IkemParams, source: JointSource, raw: bytes) -> IkemCiphertext:
    tspec, kspec = hash_specs(source, params)
    expected = kem_block_size(tspec, kspec)
    if len(raw) != expected:
        raise FormatError(f"kem block must be {expected} bytes, got {len(raw)}")
    if raw[:4] != KEM_MAGIC:
        raise FormatError("bad kem magic")
    if raw[4:12] != params_digest(params):
        raise FormatError("params digest mismatch")
    t = int.from_bytes(raw[12:14], "big")
    if t != params.t:
        raise FormatError(f"ciphertext t={t} != params t={params.t}")
    seeds = 14 + (t + 7) // 8
    g = int.from_bytes(raw[14:seeds], "big")
    split = seeds + 2 * kspec.seed_bytes
    s_prime = seed_from_bytes(kspec, raw[seeds:split])
    s = seed_from_bytes(tspec, raw[split:])
    ctxt = IkemCiphertext(g, s_prime, s)
    check_ciphertext(params, source, ctxt)
    return ctxt


def key_to_bytes(key: IkemKey) -> bytes:
    nb = (key.length + 7) // 8
    return key.length.to_bytes(2, "big") + key.bits.to_bytes(nb, "big")


def key_from_bytes(raw: bytes) -> IkemKey:
    if len(raw) < 2:
        raise FormatError("key file too short")
    length = int.from_bytes(raw[:2], "big")
    nb = (length + 7) // 8
    if len(raw) != 2 + nb:
        raise FormatError(f"key file must be {2 + nb} bytes for {length} bits")
    return IkemKey(int.from_bytes(raw[2:], "big"), length)  # checks the length and that the bits fit it


def dem_ciphertext_to_bytes(ctxt: DemCiphertext) -> bytes:
    return bytes([_SCHEME_BYTE[ctxt.scheme_tag]]) + len(ctxt.body).to_bytes(4, "big") + ctxt.body


def dem_ciphertext_from_bytes(raw: bytes) -> DemCiphertext:
    if len(raw) < 5:
        raise FormatError("dem block too short")
    scheme = _SCHEME_NAME.get(raw[0])
    if scheme is None:
        raise FormatError(f"unknown dem scheme byte {raw[0]:#x}")
    length = int.from_bytes(raw[1:5], "big")
    if len(raw) != 5 + length:
        raise FormatError(f"dem body must be {length} bytes, got {len(raw) - 5}")
    return DemCiphertext(raw[5:], scheme)


def hybrid_to_bytes(params: IkemParams, source: JointSource, ctxt: HybridCiphertext) -> bytes:
    return (
        HYBRID_MAGIC
        + kem_ciphertext_to_bytes(params, source, ctxt.c1)
        + dem_ciphertext_to_bytes(ctxt.c2)
    )


def hybrid_from_bytes(params: IkemParams, source: JointSource, raw: bytes) -> HybridCiphertext:
    if raw[:4] != HYBRID_MAGIC:
        raise FormatError("bad hybrid magic")
    ksize = kem_block_size(*hash_specs(source, params))  # the kem and dem decoders refuse a block cut short
    c1 = kem_ciphertext_from_bytes(params, source, raw[4 : 4 + ksize])
    c2 = dem_ciphertext_from_bytes(raw[4 + ksize :])
    return HybridCiphertext(c1, c2)
