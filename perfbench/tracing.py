"""Span tracing from the benchmark's side, and the per-layer metrics.

The tracer replaces public corrkem functions at the names their callers
look up (``corrkem.ikem.hash_value``, ``corrkem.gf2.mul``,
``corrkem.hybrid.encrypt``, ...) with wrappers that record one span per
call: name, start, end, parent span and op id.  Spans stay in memory in
flat arrays and are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover.  A span also
covers the tracer's own work for that call (hooks, counters, recording),
so that cost stays in the child and out of the parent's self time.  Nothing inside
``src/`` is changed; :meth:`Tracer.uninstall` restores every name.
"""

import os
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from corrkem import _kernels, cli, gf2, harness, hybrid, ikem, source, uhf, wire
from corrkem.harness import exact, games
from corrkem.ikem import BOTTOM

import workloads

KEM, CLI, VERIFY = "kem_satellite_n16", "cli_hybrid_n280", "verify_micro"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.op_workload: list[str] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        # per decap: (op, candidates, tag hashes, tag matches, returned BOTTOM)
        self.decaps: list[tuple[int, int, int, int, bool]] = []
        self._decap = None  # [ctxt, candidates, tag hashes, tag matches] of the decap in progress
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin_op(self, workload: str) -> int:
        self.current_op = len(self.op_workload)
        self.op_workload.append(workload)
        return self.current_op

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float) -> None:
        self.end[sid] = perf_counter()
        self.start[sid] = t0
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[(key, self.current_op)] += value

    def wrap(self, fn, name, before=None, after=None):
        """`name` is a span name or a function of the call's arguments."""
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            # the span covers the hooks and the bookkeeping too, so the
            # tracer's cost lands in this span and not in its parent's self time
            t0 = perf_counter()
            if before is not None:
                before(self, args)
            sid = self._open(fixed if fixed is not None else self._id(name(args)))
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
            finally:
                self._close(sid, t0)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """One span per resume, so the spans cover the generator's own time
        (and the tracer's work for it) but not the consumer's loop body."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                sid = self._open(nid)
                try:
                    item = next(gen)
                    if self._decap is not None:
                        self._decap[1] += 1
                except StopIteration:
                    return
                finally:
                    self._close(sid, t0)
                yield item

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, hooks in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if hooks == "generator":
                setattr(module, attr, self.wrap_generator(original, name))
            else:
                setattr(module, attr, self.wrap(original, name, **(hooks or {})))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), op_workload=np.array(self.op_workload),
                 **self.arrays())


# -- hooks ---------------------------------------------------------------


def _decap_before(tr: Tracer, args) -> None:
    tr._decap = [args[3], 0, 0, 0]


def _decap_after(tr: Tracer, args, result) -> None:
    _, cand, hashes, matches = tr._decap
    tr.decaps.append((tr.current_op, cand, hashes, matches, result is BOTTOM))
    tr._decap = None


def _hash_after(tr: Tracer, args, result) -> None:
    d = tr._decap
    if d is not None and args[1] is d[0].s:
        d[2] += 1
        d[3] += result == d[0].g


def _counter(key, measure):
    return {"after": lambda tr, args, result: tr.count(key, measure(args, result))}


def _array_bytes(args, result) -> int:
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


_KERNEL_BYTES = _counter("kernels.bytes", _array_bytes)
_DEM_IN = _counter("dem.bytes", lambda args, result: len(args[1]))
_DEM_OUT = _counter("dem.bytes", lambda args, result: len(result))
_DECAP = {"before": _decap_before, "after": _decap_after}


def _terms(kind):
    return _counter(f"harness.{kind}.terms", lambda args, result: result.trials)


# (module, attribute, span name, hooks) -- each at the name its caller looks up
PATCHES = [
    (source, "sample_with_rng", "source.sample_with_rng", None),
    (games, "sample_with_rng", "source.sample_with_rng", None),
    (ikem, "encap", "ikem.encap", None),
    (hybrid, "encap", "ikem.encap", None),
    (games, "encap", "ikem.encap", None),
    (ikem, "decap", "ikem.decap", _DECAP),
    (hybrid, "decap", "ikem.decap", _DECAP),
    (games, "decap", "ikem.decap", _DECAP),
    (ikem, "enumerate_typical", "ikem.enumerate_typical", "generator"),
    (exact, "enumerate_typical", "ikem.enumerate_typical", "generator"),
    (ikem, "sample_seed", "uhf.sample_seed", None),
    (ikem, "encode_symbols", "uhf.encode_symbols", None),
    (exact, "encode_symbols", "uhf.encode_symbols", None),
    (ikem, "hash_value", "uhf.hash_value", {"after": _hash_after}),
    (games, "hash_value", "uhf.hash_value", None),
    (uhf, "pairwise_independence_census", "uhf.pairwise_independence_census", None),
    (gf2, "mul", lambda args: f"gf2.mul_w{args[2]}", None),
    (games, "mul_vector", "gf2.mul_vector", None),
    (hybrid, "encrypt", "dem.encrypt", _DEM_IN),
    (hybrid, "decrypt", "dem.decrypt", _DEM_OUT),
    (cli, "he_encrypt", "hybrid.he_encrypt", None),
    (cli, "he_decrypt", "hybrid.he_decrypt", None),
    (games, "he_encrypt", "hybrid.he_encrypt", None),
    (wire, "load_source", "wire.load_source", None),
    (wire, "load_params", "wire.load_params", None),
    (wire, "load_sample", "wire.load_sample", None),
    (wire, "save_json", "wire.save_json", _counter("wire.bytes_written", _file_size)),
    (wire, "hybrid_to_bytes", "wire.hybrid_to_bytes",
     _counter("wire.bytes_written", lambda args, result: len(result))),
    (wire, "hybrid_from_bytes", "wire.hybrid_from_bytes", None),
    (cli, "build_parser", "cli.build_parser", None),
    (workloads.CliHybrid, "_main", lambda args: f"cli.{args[1]}", None),
    (harness, "ot_bound_check", "harness.ot_bound_check", _terms("ot_bound_check")),
    (harness, "cea_bound_check", "harness.cea_bound_check", _terms("cea_bound_check")),
    (harness, "composability_check", "harness.composability_check", _terms("composability_check")),
    (harness, "run_he_game", "harness.run_he_game", _terms("run_he_game")),
    (exact, "challenge_sd", "kernels.challenge_sd", _KERNEL_BYTES),
    (exact, "cea_sd", "kernels.cea_sd", _KERNEL_BYTES),
    (exact, "compose_sd", "kernels.compose_sd", _KERNEL_BYTES),
    (exact, "mul_table", "kernels.mul_table", None),
    (uhf, "mul_table", "kernels.mul_table", None),
    (uhf, "census_max_dev", "kernels.census_max_dev", _KERNEL_BYTES),
]


# -- per-layer metrics ---------------------------------------------------


class SpanTable:
    """Queries over a finished trace, by span name and workload."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.tr = tr
        self.name = a["name"]
        self.op = a["op"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.wl_ids = {wl: k for k, wl in enumerate(dict.fromkeys(tr.op_workload))}
        op_wl = np.array([self.wl_ids[wl] for wl in tr.op_workload] + [-1], dtype=np.int16)
        self.workload = op_wl[self.op]  # op -1 (outside any op) maps to -1

    def ops(self, wl: str) -> int:
        return self.tr.op_workload.count(wl)

    def mask(self, name: str, wl: str) -> np.ndarray:
        nid = self.tr._ids.get(name, -1)
        return (self.name == nid) & (self.workload == self.wl_ids.get(wl, -2))

    def median(self, name: str, wl: str, scale: float) -> float:
        d = self.dur[self.mask(name, wl)]
        return float(np.median(d)) * scale if d.size else float("nan")

    def per_op(self, name: str, wl: str) -> float:
        return float(self.mask(name, wl).sum()) / max(1, self.ops(wl))

    def total(self, name: str, wl: str, field: str = "dur") -> float:
        return float(getattr(self, field)[self.mask(name, wl)].sum())

    def counted(self, key: str, wl: str) -> float:
        return sum(v for (k, op), v in self.tr.counts.items()
                   if k == key and 0 <= op < len(self.tr.op_workload) and self.tr.op_workload[op] == wl)

    def per_parent_sum(self, name: str, wl: str) -> np.ndarray:
        m = self.mask(name, wl)
        parents, inverse = np.unique(self.parent[m], return_inverse=True)
        return np.bincount(inverse, weights=self.dur[m], minlength=len(parents))


def layer_metrics(t: SpanTable, kem_outcomes: dict[int, str]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics; each comment names the workload it is read on."""
    us, ms = 1e6, 1e3
    m: dict[str, tuple[float, str]] = {}
    kem_decaps = [d for d in t.tr.decaps if t.tr.op_workload[d[0]] == KEM]
    n_decaps = max(1, len(kem_decaps))
    # kem: source, ikem, uhf, gf2 at w = 20
    m["source.sample_with_rng_us"] = (t.median("source.sample_with_rng", KEM, us), "us")
    m["ikem.encap_us"] = (t.median("ikem.encap", KEM, us), "us")
    m["ikem.decap_ms"] = (t.median("ikem.decap", KEM, ms), "ms")
    decap_self = t.self_time[t.mask("ikem.decap", KEM)]
    m["ikem.decap_self_ms"] = (float(np.median(decap_self)) * ms if decap_self.size else float("nan"), "ms")
    enum = t.per_parent_sum("ikem.enumerate_typical", KEM)
    m["ikem.enumerate_typical_ms"] = (float(np.median(enum)) * ms if enum.size else float("nan"), "ms")
    m["ikem.candidates_per_decap"] = (float(np.median([d[1] for d in kem_decaps])), "count")
    m["ikem.tag_hashes_per_decap"] = (float(np.median([d[2] for d in kem_decaps])), "count")
    m["ikem.useful_hash_ratio"] = (sum(d[3] for d in kem_decaps) / max(1, sum(d[2] for d in kem_decaps)), "ratio")
    m["ikem.bottom_outside_list"] = (sum(d[4] and d[3] == 0 for d in kem_decaps) / n_decaps, "ratio")
    m["ikem.bottom_ambiguous"] = (sum(d[4] and d[3] >= 2 for d in kem_decaps) / n_decaps, "ratio")
    m["ikem.wrong_key"] = (sum(o == "wrong_key" for o in kem_outcomes.values()) / n_decaps, "ratio")
    m["uhf.encode_symbols_us"] = (t.median("uhf.encode_symbols", KEM, us), "us")
    m["uhf.encode_symbols_calls_per_op"] = (t.per_op("uhf.encode_symbols", KEM), "count")
    m["uhf.hash_value_us"] = (t.median("uhf.hash_value", KEM, us), "us")
    m["uhf.hash_value_calls_per_op"] = (t.per_op("uhf.hash_value", KEM), "count")
    m["gf2.mul_w20_us"] = (t.median("gf2.mul_w20", KEM, us), "us")
    m["gf2.mul_calls_per_op"] = (t.per_op("gf2.mul_w20", KEM), "count")
    # cli: gf2 at w = 280, dem, hybrid, wire, cli
    m["gf2.mul_w280_us"] = (t.median("gf2.mul_w280", CLI, us), "us")
    dem_time = t.total("dem.encrypt", CLI) + t.total("dem.decrypt", CLI)
    m["dem.stream_MBps"] = (t.counted("dem.bytes", CLI) / dem_time / 1e6 if dem_time else float("nan"), "MB/s")
    m["hybrid.he_encrypt_ms"] = (t.median("hybrid.he_encrypt", CLI, ms), "ms")
    m["hybrid.he_decrypt_ms"] = (t.median("hybrid.he_decrypt", CLI, ms), "ms")
    for fn in ("load_source", "load_params", "load_sample", "save_json", "hybrid_to_bytes", "hybrid_from_bytes"):
        m[f"wire.{fn}_us"] = (t.median(f"wire.{fn}", CLI, us), "us")
    m["wire.bytes_written_per_op"] = (t.counted("wire.bytes_written", CLI) / max(1, t.ops(CLI)), "B")
    for step in ("plan", "gen", "encrypt", "decrypt"):
        m[f"cli.{step}_ms"] = (t.median(f"cli.{step}", CLI, ms), "ms")
    m["cli.build_parser_us"] = (t.median("cli.build_parser", CLI, us), "us")
    cli_self = sum(t.total(f"cli.{s}", CLI, "self_time")
                   for s in ("plan", "gen", "encrypt", "decrypt", "decrypt_tampered"))
    m["cli.self_ms_per_op"] = (cli_self * ms / max(1, t.ops(CLI)), "ms")
    # verify: harness, _kernels, census, gf2.mul_vector
    m["uhf.pairwise_independence_census_ms"] = (t.median("uhf.pairwise_independence_census", VERIFY, ms), "ms")
    m["gf2.mul_vector_ms"] = (t.median("gf2.mul_vector", VERIFY, ms), "ms")
    for kind in ("ot_bound_check", "cea_bound_check", "composability_check", "run_he_game"):
        m[f"harness.{kind}_ms"] = (t.median(f"harness.{kind}", VERIFY, ms), "ms")
        busy = t.total(f"harness.{kind}", VERIFY)
        m[f"harness.{kind}_terms_per_s"] = (t.counted(f"harness.{kind}.terms", VERIFY) / busy if busy else float("nan"), "1/s")
    for kernel in ("challenge_sd", "cea_sd", "compose_sd", "census_max_dev", "mul_table"):
        m[f"kernels.{kernel}_ms"] = (t.median(f"kernels.{kernel}", VERIFY, ms), "ms")
    m["kernels.mul_table_calls_per_op"] = (t.per_op("kernels.mul_table", VERIFY), "count")
    m["kernels.computed_bytes_per_op"] = (t.counted("kernels.bytes", VERIFY) / max(1, t.ops(VERIFY)), "B_computed")
    return m


# -- direct measurements in the traced run -----------------------------


def quartiles_ms(fn, reps: int) -> tuple[float, float, float]:
    """(q1, median, q3) in ms of `reps` timed calls of `fn`."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1e3)
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return q1, q2, q3


def kernel_cases() -> dict[str, tuple]:
    """The cases `benchmarks/bench_kernels.py` prints, built the same way,
    on the active backend."""
    rng = np.random.default_rng(0)
    table8 = _kernels.mul_table(8)
    table6 = _kernels.mul_table(6)
    table4 = _kernels.mul_table(4)
    pxz = rng.random((256, 4))
    pxz /= pxz.sum()
    prod8 = table8[:, np.arange(256)].astype(np.int64)
    prod4 = table4.astype(np.int64)
    pxz4 = rng.random((16, 2))
    pxz4 /= pxz4.sum()
    sup = 256
    xcol = rng.integers(0, 16, sup).astype(np.int64)
    ycol = rng.integers(0, 16, sup).astype(np.int64)
    zcol = rng.integers(0, 2, sup).astype(np.int64)
    ptr = rng.random(sup)
    ptr /= ptr.sum()
    cand = rng.integers(-1, 16, (16, 16, 2)).astype(np.int64)
    return {
        "census_w6_m3": (_kernels.census_max_dev, (table6, 6, 3)),
        "challenge_sd_w8": (_kernels.challenge_sd, (prod8 >> 6, prod8 >> 6, pxz, 2, 2)),
        "cea_sd_w4_q1": (_kernels.cea_sd, (prod4 >> 3, prod4 >> 3, pxz4, 1, 1, 1)),
        "compose_sd_w4": (_kernels.compose_sd, (prod4 >> 3, prod4 >> 3, xcol, ycol, zcol, ptr, cand, 1, 1, 2)),
    }


SWEEP = {8: 15, 12: 9, 16: 5, 20: 3}  # n -> timed repetitions


def list_size_sweep(tr: Tracer, seed: int) -> dict[str, tuple[float, str]]:
    """Decap time (untraced median) and list size (one traced decap) on
    the satellite source at each n."""
    src = source.satellite_source(0.05, 0.05, 0.3)
    out = {}
    for n, reps in SWEEP.items():
        params = ikem.reliability_params(src, n=n, eps=0.25, ell=8)
        rng = np.random.default_rng([seed, 0x5EE9, n])
        triple = source.sample_with_rng(src, n, rng)
        ctxt, _ = ikem.encap(params, src, triple.x, rng)
        tr.install()
        try:
            tr.begin_op(f"sweep_n{n}")
            ikem.decap(params, src, triple.y, ctxt)
        finally:
            tr.current_op = -1
            tr.uninstall()
        out[f"ikem.sweep_n{n}_candidates"] = (float(tr.decaps[-1][1]), "count")
        _, p50, _ = quartiles_ms(lambda: ikem.decap(params, src, triple.y, ctxt), reps)
        out[f"ikem.sweep_n{n}_decap_ms"] = (p50, "ms")
    return out


def direct_metrics(tr: Tracer, seed: int, reps: int) -> dict[str, tuple[float, str]]:
    m = list_size_sweep(tr, seed)
    for label, (fn, args) in kernel_cases().items():
        fn(*args)
        q1, q2, q3 = quartiles_ms(lambda: fn(*args), reps)
        m[f"kernels.case_{label}_p50_ms"] = (q2, "ms")
        m[f"kernels.case_{label}_q1_ms"] = (q1, "ms")
        m[f"kernels.case_{label}_q3_ms"] = (q3, "ms")
    # the first call at w = 280 searches for the reduction polynomial;
    # the uncached function repeats that search every time
    _, p50, _ = quartiles_ms(lambda: gf2.reduction_low.__wrapped__(280), 3)
    m["gf2.reduction_low_ms"] = (p50, "ms")
    return m
