"""The three benchmark workloads.

Each workload builds its inputs in `setup` (untimed, repeatable, same
inputs for the same seed), runs one closed-loop pass in `run_pass` and
checks the pass's outputs in `check`, outside the timed section. Program
functions are looked up through their modules at call time so that the
tracer's rebinding takes effect.
"""
from __future__ import annotations

import array
import collections
import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import time

import inputs

perf = time.perf_counter


@contextlib.contextmanager
def timing_probe(module, attr: str, samples: list):
    """Rebind module.attr to a wrapper that appends each call's duration."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = perf()
        result = fn(*args, **kwargs)
        samples.append(perf() - t0)
        return result

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from softtopo import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Pass:
    """What one timed pass did: work units, operations, per-op latencies."""

    def __init__(self):
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.latencies = array.array("d")
        self.outputs: list = []


# --- suite-t1 -----------------------------------------------------------------

SMALL_SIGNATURES = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (4, 1), (1, 4))

# sha256 of `softtopo suite <corpus> --no-banner` stdout on this corpus, taken
# at the commit that introduced the benchmark; the report must stay byte-exact.
SUITE_REPORT_SHA256 = "1fc46ecaf7b272ece049101b7d27c2c1e2128c971ae3fa008994ae429dad0bca"


class SuiteT1:
    """The claim suite over the exhaustive corpus of every signature up to 4 bits."""

    name = "suite-t1"
    unit = "suite instances"
    op = "claims.evaluate_claim call"

    def __init__(self, seed: int, workdir: str):
        self.corpus_dir = os.path.join(workdir, "corpus")
        self.witness_dir = os.path.join(workdir, "witnesses")

    def setup(self) -> None:
        from softtopo import Corpus, enumerate_topologies, export_corpus
        from softtopo.explorer import auto_signature

        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        instances = [t for n, m in SMALL_SIGNATURES
                     for t in enumerate_topologies(auto_signature(n, m))]
        export_corpus(Corpus(instances), self.corpus_dir)
        self.instances = instances

    def describe(self) -> dict:
        return {
            "corpus_spaces": len(self.instances),
            "distinct_encodings": len({t.encoding() for t in self.instances}),
            "opens_histogram": histogram(len(t.opens) for t in self.instances),
            "bits_histogram": histogram(t.signature.bits for t in self.instances),
        }

    def run_pass(self, probe: bool = True) -> Pass:
        """One suite run; `probe` times each claim evaluation (off when traced)."""
        from softtopo import explorer

        res = Pass()
        argv = ["suite", self.corpus_dir, "--witness-dir", self.witness_dir, "--no-banner"]
        timer = (timing_probe(explorer, "evaluate_claim", res.latencies) if probe
                 else contextlib.nullcontext())
        with timer:
            res.outputs.append(run_cli(argv))
        res.attempted = 1
        return res

    def check(self, res: Pass, first: bool) -> None:
        code, out, err = res.outputs[0]
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if code != 0 or digest != SUITE_REPORT_SHA256:
            res.failed += 1
            print(f"suite-t1 mismatch: exit={code} report sha256={digest} stderr={err.strip()!r}")
            return
        counts = dict(line.split(": ", 1) for line in out.splitlines()
                      if line.startswith(("spaces: ", "triples: ")))
        res.units = int(counts["spaces"]) + int(counts["triples"])

    def queries_per_load(self, res: Pass) -> float:
        return len(res.latencies) / res.units if res.units else 0.0


# --- queries-mid --------------------------------------------------------------

# lattice bits -> (universe, parameters, |opens| of the sparse/medium/dense spaces)
QUERY_POOL = {
    8: (4, 2, (24, 64, 128)),
    10: (5, 2, (40, 160, 400)),
    12: (4, 3, (64, 224, 448)),
    16: (4, 4, (128, 640, 2048)),
}
SPACES_PER_BAND = 2
QUERY_SCAN_BITS = 12   # whole-lattice scans only up to this size
QUERIES_PER_SPACE = 192
SIZE_TOLERANCE = 0.03
ORACLE_SAMPLE = 4      # per-set answers per space checked against the oracles


class QueriesMid:
    """Per-set queries and lattice scans on seeded non-discrete topologies."""

    name = "queries-mid"
    unit = "per-set queries"
    op = "per-set public call"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"queries-mid:{self.seed}")
        self.pool = []
        for bits, (n, m, targets) in QUERY_POOL.items():
            for target in targets * SPACES_PER_BAND:
                opens = inputs.sized_topology(rng, bits, target, SIZE_TOLERANCE)
                self.pool.append({
                    "n": n, "m": m, "bits": bits, "opens": opens,
                    "obj": inputs.space_obj(opens, n, m),
                    "queries": [rng.getrandbits(bits) for _ in range(QUERIES_PER_SPACE)],
                    "map": inputs.seeded_map(rng, n, m),
                })

    def describe(self) -> dict:
        return {
            "spaces": len(self.pool),
            "distinct_encodings": len({(p["n"], p["m"], tuple(p["opens"])) for p in self.pool}),
            "opens_histogram": histogram(len(p["opens"]) for p in self.pool),
            "bits_histogram": histogram(p["bits"] for p in self.pool),
        }

    def run_pass(self, probe: bool = True) -> Pass:
        from softtopo import analysis, maps, semi, topology
        from softtopo.core import SoftSet

        res = Pass()
        lat = res.latencies
        spaces = [topology.parse_space(space["obj"]) for space in self.pool]
        answers = [[] for _ in spaces]
        # round-robin over the loaded spaces, so every space's calls are spread
        # over the whole pass and see the same machine speed
        for k in range(QUERIES_PER_SPACE):
            for t, space, out in zip(spaces, self.pool, answers):
                g = SoftSet(t.signature, space["queries"][k])
                t0 = perf()
                c = semi.classify_set(t, g)
                t1 = perf()
                si = semi.ssint(t, g)
                t2 = perf()
                sc = semi.sscl(t, g)
                t3 = perf()
                it = t.interior(g)
                t4 = perf()
                cl = t.closure(g)
                t5 = perf()
                lat.extend((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4))
                out.append((c.is_open, c.is_closed, c.is_semiopen, c.is_semiclosed,
                            si.mask, sc.mask, it.mask, cl.mask))
        for t, space, out in zip(spaces, self.pool, answers):
            scans = None
            if space["bits"] <= QUERY_SCAN_BITS:
                f = maps.SoftFunction(t.signature, t.signature, *space["map"])
                scans = (semi.soss(t), semi.scss(t), analysis.axiom_report(t),
                         maps.classify_map(f, t, t))
            res.outputs.append((t, out, scans))
        res.units = len(lat)
        res.attempted = len(lat) + len(self.pool) + 4 * sum(
            1 for p in self.pool if p["bits"] <= QUERY_SCAN_BITS)
        return res

    def check(self, res: Pass, first: bool) -> None:
        """Sampled answers of the first pass against the *_definitional oracles
        and plain formulas; later passes must repeat the first pass's answers."""
        from softtopo import semi
        from softtopo.core import SoftSet

        per_space = [(out[1], None if out[2] is None else scan_answers(*out[2]))
                     for out in res.outputs]
        digest = hashlib.sha256(repr(per_space).encode()).hexdigest()
        if first:
            self.digest = digest
        elif digest != self.digest:
            res.failed += 1
            print("queries-mid: answers differ between passes")
            return
        if not first:
            return
        rng = random.Random(f"queries-mid-oracle:{self.seed}")
        for space, (t, _, _), (answers, scans) in zip(self.pool, res.outputs, per_space):
            opens, full = space["opens"], (1 << space["bits"]) - 1
            open_set = set(opens)
            if [o.mask for o in t.opens] != opens:
                res.failed += 1
                print(f"queries-mid: parse_space changed the opens of a {space['bits']}-bit space")
            picks = rng.sample(range(len(answers)), ORACLE_SAMPLE)
            for k in picks:
                mask = space["queries"][k]
                g = SoftSet(t.signature, mask)
                is_open, is_closed, so, sc, si, scl, it, cl = answers[k]
                want_it = interior(mask, opens)
                want_cl = closure(mask, opens, full)
                expect = [
                    (is_open, mask in open_set), (is_closed, full ^ mask in open_set),
                    (so, semi.is_semiopen_definitional(t, g)[0]),
                    (sc, semi.is_semiclosed_definitional(t, g)[0]),
                    (it, want_it), (cl, want_cl),
                ]
                if space["bits"] <= QUERY_SCAN_BITS:
                    expect += [(si, semi.ssint_definitional(t, g).mask),
                               (scl, semi.sscl_definitional(t, g).mask)]
                else:
                    # the lattice oracle is out of reach at this size: check the
                    # closed forms with this module's own interior and closure
                    expect += [(si, mask & closure(want_it, opens, full)),
                               (scl, mask | interior(want_cl, opens))]
                bad = [i for i, (got, want) in enumerate(expect) if got != want]
                if bad:
                    res.failed += 1
                    print(f"queries-mid: oracle mismatch on a {space['bits']}-bit space, "
                          f"set {mask:#x}, answers {bad}")
            if scans is not None:
                if scans[0] != [s.mask for s in semi.soss_definitional(t)] or \
                        scans[1] != [s.mask for s in semi.scss_definitional(t)]:
                    res.failed += 1
                    print(f"queries-mid: soss/scss differ from the oracle on a "
                          f"{space['bits']}-bit space")

    def queries_per_load(self, res: Pass) -> float:
        return len(res.latencies) / len(self.pool)


def scan_answers(soss, scss, report, map_class) -> tuple:
    return ([s.mask for s in soss], [s.mask for s in scss],
            [c.holds for c in report.checks],
            [getattr(map_class, flag) for flag in map_class.FLAGS])


def interior(mask: int, opens: list[int]) -> int:
    acc = 0
    for o in opens:
        if o & ~mask == 0:
            acc |= o
    return acc


def closure(mask: int, opens: list[int], full: int) -> int:
    acc = full
    for o in opens:
        if mask & o == 0:
            acc &= full ^ o
    return acc


# --- gen-16b ------------------------------------------------------------------

GEN_UNIVERSE, GEN_PARAMS, GEN_DENSITY = 4, 4, 0.0001
# (|opens|, spaces per pass) of the generated spaces. The middle band has
# the most spaces so the median latency sits inside one cluster of calls.
# Generation time grows with the square of |opens|, so each band takes the
# candidates nearest its target out of a fixed number of seeded candidates:
# the pass costs about the same for every seed, and so does the set-up.
GEN_BANDS = ((500, 2), (800, 2), (1100, 4), (1500, 2), (2100, 2))
GEN_CANDIDATES = 1200


def predicted_subbasis(gen_seed: int) -> list[int]:
    """Seed sets `softtopo gen --count 1 --seed S` draws for its one space.

    Mirrors the documented corpus seed chain (corpus-instance seed, then
    random-topology seed, then SplitMix64 sampling) so that the benchmark
    can size its inputs and check the generated family independently.
    """
    from softtopo.prng import SplitMix64, derive_seed

    bits = GEN_UNIVERSE * GEN_PARAMS
    sig_key = inputs.signature_obj(GEN_UNIVERSE, GEN_PARAMS)
    key = f"{'|'.join(sig_key['universe'])};{'|'.join(sig_key['parameters'])}"
    instance_seed = derive_seed("corpus-instance", gen_seed, 0)
    rng = SplitMix64(derive_seed("random-topology", key, instance_seed, repr(float(GEN_DENSITY))))
    return rng.sample_distinct(math.ceil(GEN_DENSITY * (1 << bits)), 1 << bits)


class Gen16b:
    """`softtopo gen` of one 16-bit space per |opens| band, then import_corpus."""

    name = "gen-16b"
    unit = "generated spaces"
    op = "softtopo gen call (one space)"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = os.path.join(workdir, "gen")

    def setup(self) -> None:
        bits = GEN_UNIVERSE * GEN_PARAMS
        rng = random.Random(f"gen-16b:{self.seed}")
        limit = 1.1 * max(target for target, _ in GEN_BANDS)
        sizes = {}
        for _ in range(GEN_CANDIDATES):
            gen_seed = rng.getrandbits(31)
            nbhds = inputs.neighbourhoods(predicted_subbasis(gen_seed), bits)
            sizes[gen_seed] = len(inputs.opens_of(nbhds, limit))
        picked = []
        for target, count in GEN_BANDS:
            nearest = sorted(sizes, key=lambda s: (abs(sizes[s] - target), s))[:count]
            for gen_seed in nearest:
                del sizes[gen_seed]
            picked.append([(gen_seed, sorted(inputs.opens_of(
                inputs.neighbourhoods(predicted_subbasis(gen_seed), bits)))) for gen_seed in nearest])
        # round-robin over the bands, so each band's calls are spread over the pass
        self.jobs = [band[r] for r in range(max(len(b) for b in picked))
                     for band in picked if r < len(band)]

    def describe(self) -> dict:
        return {
            "spaces": len(self.jobs),
            "distinct_encodings": len({tuple(o) for _, o in self.jobs}),
            "opens_histogram": histogram(len(o) for _, o in self.jobs),
            "bits_histogram": histogram(GEN_UNIVERSE * GEN_PARAMS for _ in self.jobs),
            "gen_seeds": [s for s, _ in self.jobs],
        }

    def run_pass(self, probe: bool = True) -> Pass:
        from softtopo import explorer

        shutil.rmtree(self.workdir, ignore_errors=True)
        dirs = [os.path.join(self.workdir, str(k)) for k in range(len(self.jobs))]
        res = Pass()
        for (gen_seed, _), out_dir in zip(self.jobs, dirs):
            argv = ["gen", "--universe", str(GEN_UNIVERSE), "--params", str(GEN_PARAMS),
                    "--density", str(GEN_DENSITY), "--count", "1", "--seed", str(gen_seed),
                    "-o", out_dir, "--no-banner"]
            t0 = perf()
            cli_out = run_cli(argv)
            res.latencies.append(perf() - t0)
            res.outputs.append((cli_out, explorer.import_corpus(out_dir)))
        res.units = len(self.jobs)
        res.attempted = 2 * len(self.jobs)
        return res

    def check(self, res: Pass, first: bool) -> None:
        """Fingerprint round trip, and the family against the N(x) construction."""
        for (gen_seed, opens), ((code, out, err), corpus) in zip(self.jobs, res.outputs):
            printed = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
            got = [o.mask for o in corpus.instances[0].opens] if len(corpus) == 1 else None
            if code != 0 or printed.get("fingerprint") != corpus.fingerprint or got != opens:
                res.failed += 1
                print(f"gen-16b mismatch for --seed {gen_seed}: exit={code} "
                      f"stderr={err.strip()!r} opens={None if got is None else len(got)}"
                      f"/{len(opens)}")

    def queries_per_load(self, res: Pass) -> float:
        return 0.0


def histogram(values) -> dict:
    return dict(sorted(collections.Counter(values).items()))


WORKLOADS = {w.name: w for w in (SuiteT1, QueriesMid, Gen16b)}
