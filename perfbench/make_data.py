"""Regenerate the benchmark's committed data files.

    python3 perfbench/make_data.py alpha   # data/alpha_reference.json
    python3 perfbench/make_data.py cli     # data/cli_words.json
    python3 perfbench/make_data.py density # data/density_words.json
    python3 perfbench/make_data.py cost    # re-time both word pools

``alpha_reference.json`` holds the kept hits (index, depth, leading
coefficient) of the alpha search on each four-strand subset at a budget of
2*10^5; the oracle compares every run against it, so it must be produced by
a commit whose search is known to be right.

``cli_words.json`` is the word corpus the cli-exact sessions sample from.
Words are products of nested commutators of band-generator powers, raised
to a small power.  The cost of an exact evaluation follows the number of
coefficient products its Laurent multiplications make, not the word's
length, so each candidate is kept only when that count, for one
``burau_eval``, lies in ``WORK_BAND``.  That keeps the per-call cost narrow
and a session's total steady from seed to seed.  The count is a property of
the input, measured once here; the benchmark never recomputes it.
The work count explains only about half of a call's time (JSON output and
additions make the rest), so each word also carries ``cost_s``, below.

``density_words.json`` is the pool of 15-letter words, drawn like the
random words of criterion 9, whose Burau images the density workload
approximates.  About one random word in five is a short braid whose
approximation ends exactly after a step or two, in 0.02 s instead of 1.5 s
and with a word of a few letters.  Those are left out: at three
approximations a round they would make the per-round cost and the answer
size jump from seed to seed.  A word is kept when its approximant at K = 6
has ``letter_bound`` of at least ``DENSITY_MIN_LETTERS``.

Every word of both pools carries ``cost_s``: the seconds of its op (the
four session calls of a cli word, the approximation of a density word),
timed once in-process at the reference speed of ``speed.py``.  A run draws
one word from each of a few equal slices of a pool ranked by ``cost_s``
(``workloads.stratified``), so every seed's job list spans the same range
of cost.  Only the ranking is used.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import burau.cli as cli  # noqa: E402
import burau.density as density  # noqa: E402
import burau.laurent as laurent  # noqa: E402
import burau.rep as rep  # noqa: E402
import burau.search as search  # noqa: E402
import burau.words as words  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORK_BAND = (150_000, 300_000)
DENSITY_WORDS = 120
DENSITY_MIN_LETTERS = 10 ** 6
CORPUS_PER_N = {5: 40, 6: 40}
LETTER_BAND = (300, 1500)


class _TooMuchWork(Exception):
    pass


def make_alpha() -> dict:
    hits = {}
    for strands in workloads.ALPHA_SUBSETS:
        cfg = workloads.alpha_config(strands, workloads.ALPHA_BUDGET_REFERENCE)
        out = search.search_deep(cfg)
        hits["".join(map(str, strands))] = [
            {"index": h.index, "depth": h.depth, "leading": h.leading.matrix.to_json()}
            for h in out.hits]
        print(strands, [h.index for h in out.hits], file=sys.stderr)
    return {"budget": workloads.ALPHA_BUDGET_REFERENCE, "hits": hits}


def _band(rng: random.Random, n: int) -> str:
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    e = rng.choice((1, 2, -1, -2))
    return f"A{i}{j}" + ("" if e == 1 else f"^{e}")


def _term(rng: random.Random, n: int) -> str:
    if rng.random() < 0.5:
        return f"[{_band(rng, n)},{_band(rng, n)}]"
    return f"[{_band(rng, n)},[{_band(rng, n)},{_band(rng, n)}]]"


def _work(w) -> int | None:
    """Coefficient products made by burau_eval(w), or None above the band."""
    orig = laurent.LaurentPoly.__mul__
    count = 0

    def counting(a, b):
        nonlocal count
        count += len(a._c) * len(getattr(b, "_c", (b,)))
        if count > WORK_BAND[1]:
            raise _TooMuchWork
        return orig(a, b)

    laurent.LaurentPoly.__mul__ = laurent.LaurentPoly.__rmul__ = counting
    try:
        rep.burau_eval(w)
    except _TooMuchWork:
        return None
    finally:
        laurent.LaurentPoly.__mul__ = laurent.LaurentPoly.__rmul__ = orig
    return count


def make_cli() -> list[dict]:
    rng = random.Random(20190327)
    need = dict(CORPUS_PER_N)
    corpus = []
    while any(need.values()):
        n = rng.choice(sorted(need))
        text = f"({_term(rng, n)} {_term(rng, n)})^{rng.choice((2, 3))}"
        if not need[n]:
            continue
        w = words.parse_word(text, n)
        letters = words.letter_bound(w)
        if not LETTER_BAND[0] <= letters <= LETTER_BAND[1]:
            continue
        work = _work(w)
        if work is None or work < WORK_BAND[0]:
            continue
        depth = rep.burau_eval(w).depth()
        if depth == float("inf"):
            continue
        corpus.append({"n": n, "word": text, "depth": depth,
                       "letters": letters, "work": work})
        need[n] -= 1
        print(len(corpus), n, letters, work, depth, file=sys.stderr)
    return add_cli_costs(corpus)


def reference_seconds(fn) -> float:
    """``fn()``'s time at the reference speed of ``speed.py``."""
    probe = speed.Probe().start()
    t0 = time.perf_counter()
    fn()
    t1 = time.perf_counter()
    probe.stop()
    return (t1 - t0) * probe.scale(t0, t1)


def _quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)


def add_cli_costs(corpus: list[dict]) -> list[dict]:
    """Set each entry's ``cost_s``, the time of its four session calls."""
    for entry in corpus:
        base = ["--n", str(entry["n"]), "--word", entry["word"]]
        entry["cost_s"] = round(sum(
            reference_seconds(lambda: _quiet_cli(argv))
            for argv in (["eval", *base], ["check", *base], ["depth", *base],
                         ["coeff", "--k", str(entry["depth"]), *base])), 4)
        print(entry["word"], entry["cost_s"], file=sys.stderr)
    return corpus


def add_density_costs(pool: list[dict]) -> list[dict]:
    """Set each entry's ``cost_s``, the time of its approximation."""
    lib = density.build_witness_library(5, 6)
    for entry in pool:
        gamma = rep.burau_eval(words.parse_word(entry["word"], 5))
        entry["cost_s"] = round(reference_seconds(
            lambda: density.approximate(gamma, 6, library=lib)), 4)
        print(entry["word"], entry["cost_s"], file=sys.stderr)
    return pool


def make_density() -> list[dict]:
    rng = random.Random(20190328)
    lib = density.build_witness_library(5, 6)
    kept = []
    while len(kept) < DENSITY_WORDS:
        w = words.Literal(5, [(rng.randrange(1, 5), rng.choice((1, -1)))
                              for _ in range(15)])
        res = density.approximate(rep.burau_eval(w), 6, library=lib)
        letters = words.letter_bound(res.word)
        if letters >= DENSITY_MIN_LETTERS:
            kept.append({"word": words.word_format(w)})
        print(len(kept), len(str(letters)), file=sys.stderr)
    return add_density_costs(kept)


def main(argv: list[str]) -> int:
    speed.pin_to_one_cpu()
    if argv == ["cost"]:
        for name, add in (("cli_words.json", add_cli_costs),
                          ("density_words.json", add_density_costs)):
            write(workloads.DATA / name, add(workloads.load_json(name)))
        return 0
    if argv == ["alpha"]:
        path, data = workloads.DATA / "alpha_reference.json", make_alpha()
    elif argv == ["cli"]:
        path, data = workloads.DATA / "cli_words.json", make_cli()
    elif argv == ["density"]:
        path, data = workloads.DATA / "density_words.json", make_density()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    write(path, data)
    return 0


def write(path: Path, data) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
