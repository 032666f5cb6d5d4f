"""The three benchmark workloads: inputs, the timed job list, and the oracle.

Every workload is a fixed job list made from the seed; the runner times the
whole list in a fresh interpreter per round and checks its outputs
afterwards, outside the timed span.  Library calls go through the module
objects (``search.search_deep``, not a name bound at import time), so the
tracer's wrappers are seen when a traced run installs them.

* ``alpha-search``: ``search.search_deep`` on the criterion-10 shape (five
  strands, depth 3, precision 4, up to four commutator terms) with a budget
  cut.  The seed picks which four of the five strands carry the pool of
  band generators; every subset has the same hit structure.
* ``density``: build the witness library at (n, K) = (5, 6), then
  ``approximate`` the Burau images of random 15-letter words from
  ``data/density_words.json``, one from each third of it ranked by cost,
  at K = 6, and render each answer word as text.
* ``cli-exact``: in-process ``burau.cli.main`` calls (``eval``, ``check``,
  ``depth``, ``coeff --k d``) on 5- and 6-strand words from
  ``data/cli_words.json``, one from each twelfth of it ranked by cost,
  closed by one ``verify-paper``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from pathlib import Path

import burau.cli as cli
import burau.density as density
import burau.liealg as liealg
import burau.linalg as linalg
import burau.rep as rep
import burau.search as search
import burau.words as words

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("alpha-search", "density", "cli-exact")

#: job-list sizes.  "full" is what the benchmark measures; "tiny" is the
#: self-check's smallest input that still reaches every mapped boundary.
SIZES = {
    "full": {"alpha-search": {"budget": 160_000},
             "density": {"n": 5, "degree": 6, "ops": 3},
             "cli-exact": {"words": 12}},
    "tiny": {"alpha-search": {"budget": 60},
             "density": {"n": 5, "degree": 5, "ops": 1},
             "cli-exact": {"words": 1}},
}

#: the four-strand subsets the alpha search can run on, in a fixed order
ALPHA_SUBSETS = tuple(itertools.combinations(range(1, 6), 4))
ALPHA_BUDGET_REFERENCE = 200_000
#: one table build takes about 60 ms, too short to time steadily on a
#: shared machine from a few samples, so each round times it this often
ALPHA_TABLE_BUILDS = 15


def seed_rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def alpha_config(strands, budget: int):
    pool = [words.pure_gen(5, i, j) for i, j in itertools.combinations(strands, 2)]
    return search.SearchConfig(5, 3, pool, max_nesting=1, max_terms=4,
                               precision=4, budget=budget)


def stratified(rng: random.Random, pool: list[dict], k: int) -> list[dict]:
    """One word from each of ``k`` equal slices of the pool ranked by cost,
    in random order: every seed's session spans the same range of cost."""
    ranked = sorted(pool, key=lambda e: (e["cost_s"], e["word"]))
    picked = [rng.choice(ranked[len(ranked) * i // k:len(ranked) * (i + 1) // k])
              for i in range(k)]
    rng.shuffle(picked)
    return picked


def load_json(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs, made before the timed phase


def make_inputs(workload: str, seed: int, size: str) -> dict:
    spec = SIZES[size][workload]
    rng = seed_rng(workload, seed)
    if workload == "alpha-search":
        strands = rng.choice(ALPHA_SUBSETS)
        return {"strands": strands,
                "table": alpha_config(strands, 0),
                "config": alpha_config(strands, spec["budget"])}
    if workload == "density":
        n = spec["n"]
        picked = stratified(rng, load_json("density_words.json"), spec["ops"])
        return {"n": n, "degree": spec["degree"],
                "gammas": [rep.burau_eval(words.parse_word(e["word"], n))
                           for e in picked]}
    if workload == "cli-exact":
        picked = stratified(rng, load_json("cli_words.json"), spec["words"])
        session = []
        for entry in picked:
            base = ["--n", str(entry["n"]), "--word", entry["word"]]
            session += [["eval", *base], ["check", *base], ["depth", *base],
                        ["coeff", "--k", str(entry["depth"]), *base]]
        session.append(["verify-paper", "--n", "5", "--max-degree", "3"])
        return {"words": picked, "session": session}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the timed job list


def run_ops(workload: str, inputs: dict, tracer=None) -> dict:
    """Run the job list, timing each unit of it.

    Returns the outputs, ``units``, the seconds of every timed unit in
    order, and ``intervals``, each unit's ``(start, end)`` on the clock.  ``job`` lists the units that make up the job list, whose time
    is ``wall_s``; ``build`` lists the units whose median is ``build_s``;
    ``op_units`` are the indices of the units that are ops, and each stands
    for ``per_op`` ops (the candidates of a search, else 1).  ``tracer``
    (optional) gets the index of each unit before it starts, so spans of
    one unit share an op id.
    """
    clock = time.perf_counter
    units: list[float] = []
    intervals: list[tuple[float, float]] = []
    errors: list[str] = []

    def timed(fn, *args, **kwargs):
        if tracer is not None:
            tracer.op_id = len(units)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed op is counted, not fatal
            errors.append(f"unit {len(units)}: {exc!r}")
            return None
        finally:
            t1 = clock()
            units.append(t1 - t0)
            intervals.append((t0, t1))

    out: dict = {"units": units, "intervals": intervals, "errors": errors}
    if workload == "alpha-search":
        # the table builds are timed apart from the job list, the search
        for _ in range(ALPHA_TABLE_BUILDS):
            timed(search.search_deep, inputs["table"])
        outcome = timed(search.search_deep, inputs["config"])
        out.update(outcome=outcome, build=list(range(ALPHA_TABLE_BUILDS)),
                   job=[ALPHA_TABLE_BUILDS], op_units=[ALPHA_TABLE_BUILDS],
                   per_op=outcome.candidates if outcome else 1)
    elif workload == "density":
        lib = timed(density.build_witness_library, inputs["n"], inputs["degree"])

        def approximate(gamma):
            res = density.approximate(gamma, inputs["degree"], library=lib)
            return res, words.word_format(res.word)

        answers = [(timed(approximate, g) if lib else None) or (None, None)
                   for g in inputs["gammas"]]
        out.update(library=lib, results=[a[0] for a in answers],
                   texts=[a[1] for a in answers], build=[0],
                   job=list(range(len(units))),
                   op_units=list(range(1, len(units))), per_op=1)
    elif workload == "cli-exact":
        def call(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        out["calls"] = [timed(call, argv) or ("raised", "")
                        for argv in inputs["session"]]
        out.update(build=[len(units) - 1], job=list(range(len(units))),
                   op_units=list(range(len(units))), per_op=1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out["ops"] = len(out["op_units"]) * out["per_op"]
    return out


# ---------------------------------------------------------------------------
# the oracle, run after the timed phase


def _check_alpha(inputs: dict, out: dict) -> list[str]:
    cfg = inputs["config"]
    outcome = out["outcome"]
    ref = load_json("alpha_reference.json")["hits"]["".join(map(str, inputs["strands"]))]
    expected = [h for h in ref if h["index"] < cfg.budget]
    bad = []
    if outcome.candidates != cfg.budget:
        bad.append(f"{outcome.candidates} candidates, budget {cfg.budget}")
    got = [{"index": h.index, "depth": h.depth, "leading": h.leading.matrix.to_json()}
           for h in outcome.hits]
    for h in got:
        if h not in expected:
            bad.append(f"unexpected hit {h['index']}")
    for h in expected:
        if h not in got:
            bad.append(f"missing hit {h['index']}")
    for h in outcome.hits:
        m = rep.burau_eval_trunc(h.word, cfg.precision)
        if m.depth_bound() != h.depth or m.coefficient(h.depth) != h.leading.matrix:
            bad.append(f"hit {h.index} fails the truncated recheck")
    return bad


def _check_density(inputs: dict, out: dict) -> list[str]:
    n, k = inputs["n"], inputs["degree"]
    lib = out["library"]
    bad = []
    for d in range(1, k + 1):
        if lib.coefficient_lattice(d) != liealg.g_lattice(n, d):
            bad.append(f"library degree {d} does not span G_{d}")
    if bad:  # every approximation used the broken library
        return bad * len(inputs["gammas"])
    for i, (gamma, res) in enumerate(zip(inputs["gammas"], out["results"]), start=1):
        if res is None:
            bad.append(f"approximation #{i} raised")
        elif res.residual_depth(gamma, precision=k + 2) < k + 1:
            bad.append(f"approximation #{i} misses depth {k + 1}")
    return bad


def _check_cli(inputs: dict, out: dict) -> list[str]:
    bad = []
    calls = iter(zip(inputs["session"], out["calls"]))
    for entry in inputs["words"]:
        w = words.parse_word(entry["word"], entry["n"])
        got = {}
        for argv, (code, text) in itertools.islice(calls, 4):
            if code != 0:
                bad.append(f"{argv[0]} {entry['word']!r} exit {code}")
                continue
            got[argv[0]] = json.loads(text)
        k = entry["depth"]
        d = got.get("depth", {}).get("depth")
        # a depth the truncation certifies must lie below its precision
        trunc = rep.burau_eval_trunc(w, k + 2)
        if "eval" in got:
            m = linalg.LaurentMatrix.from_json(got["eval"]["matrix"])
            if m.truncate(k + 2) != trunc:
                bad.append(f"eval {entry['word']!r} disagrees with the truncation")
        if "check" in got and got["check"]["status"] != "pass":
            bad.append(f"check {entry['word']!r} reports {got['check']['violations']}")
        if "depth" in got and not (isinstance(d, int) and trunc.depth_bound() == d):
            bad.append(f"depth {entry['word']!r} says {d}, truncation "
                       f"{trunc.depth_bound()}")
        if "coeff" in got:
            el = got["coeff"]["element"]
            if el["degree"] != k or el["matrix"] != trunc.coefficient(k).to_json():
                bad.append(f"coeff {entry['word']!r} disagrees with the truncation")
    (argv, (code, text)), = calls
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if code != 0 or not lines or any(line["status"] != "pass" for line in lines):
        bad.append(f"verify-paper exit {code}: "
                   + ",".join(x["check"] for x in lines if x["status"] != "pass"))
    return bad


def check(workload: str, inputs: dict, out: dict) -> list[str]:
    """Every mismatch, one string each; an empty list means all correct.

    Call it only when no op raised: those are in ``out["errors"]``."""
    return {"alpha-search": _check_alpha, "density": _check_density,
            "cli-exact": _check_cli}[workload](inputs, out)


def digest(workload: str, out: dict) -> str:
    """A hash of everything a round answers with, to compare rounds.

    Rounds of one run get the same inputs, so a later round must answer
    exactly like the round the oracle checked.  verify-paper's per-check
    ``seconds`` are left out.
    """
    if workload == "alpha-search":
        o = out["outcome"]
        body = o and [o.candidates, o.budget_exhausted,
                      [[h.index, h.depth, h.leading.matrix.to_json(),
                        words.word_format(h.word)] for h in o.hits]]
    elif workload == "density":
        lib = out["library"]
        body = [out["texts"],
                lib and {k: [words.word_format(w.word) for w in ws]
                         for k, ws in sorted(lib.per_degree.items())}]
    else:
        body = []
        for code, text in out["calls"]:
            lines = [json.loads(line) for line in text.splitlines() if line.strip()]
            body.append([code, [{k: v for k, v in x.items() if k != "seconds"}
                                for x in lines]])
    body = [body, out["errors"]]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# answer size


def answer_log10_letters(workload: str, inputs: dict, out: dict) -> list[float]:
    """log10 ``letter_bound`` of each word a run answers with.

    density: the approximant words; alpha-search: the kept hit words;
    cli-exact: the session's words.
    """
    if workload == "density":
        ws = [r.word for r in out["results"] if r is not None]
    elif workload == "alpha-search":
        ws = [h.word for h in out["outcome"].hits] if out["outcome"] else []
    else:
        return [math.log10(e["letters"]) for e in inputs["words"]]
    return [math.log10(words.letter_bound(w)) for w in ws]
