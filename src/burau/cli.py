"""Command line interface.

Every command prints line-oriented JSON on stdout (one object per line)
unless --human is passed, in which case matrices and tables are rendered
for reading.  Exit codes: 0 success, 1 domain failure (a membership check
failed, a target was unreachable, a verification missed), 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

from .density import (LibraryIntegrityError, NoSolution, NotInGamma,
                      SpanFailure, WitnessLibrary, approximate,
                      build_witness_library, default_library, solve_in_degree)
from .laurent import LaurentPoly
from .liealg import (GradedElement, bracket_lattice, g_basis, g_bracket,
                     g_lattice, g_rank, gen_x, gen_y, membership_violations,
                     orbit)
from .linalg import IntLattice, IntMatrix, LaurentMatrix, perm_matrix
from .phi import (CosetElement, KernelElement, KernelTerm, coset_modulus,
                  phi_eval, phi_from_w, reconstruct_plus, w_prime)
from .rep import (DepthTooSmall, burau_eval, burau_eval_trunc, burau_gen,
                  form_j, gamma_check, gamma_coeff, ones_row, vector_v)
from .words import (BraidWord, IndexOutOfRange, ParseError, alpha_word,
                    commutator, concat, delta_word, gen, parse_word, pure_gen,
                    reserved_name, word_format, word_permutation)


class UsageError(Exception):
    """Bad invocation mapped to exit code 2."""


def _emit(args, payload: dict, human: str | None = None) -> None:
    if args.human and human is not None:
        print(human)
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _bindings(n: int, lets: list[str] | None) -> dict[str, BraidWord]:
    table: dict[str, BraidWord] = {}
    if n >= 4:
        table["ALPHA"] = alpha_word(n)
    if n >= 5:
        table["DELTA"] = delta_word(n)
    seen: set[str] = set()
    for item in lets or []:
        name, eq, text = item.partition("=")
        if not eq:
            raise UsageError(f"--let needs NAME=WORD, got {item!r}")
        name = name.strip()
        if reserved_name(name):
            raise UsageError(f"binding name {name!r} shadows word syntax")
        if name in seen:
            raise UsageError(f"--let gives {name!r} twice")
        seen.add(name)
        table[name] = parse_word(text, n, table)
    return table


def _parse(text: str, n: int, lets) -> BraidWord:
    return parse_word(text, n, _bindings(n, lets))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_matrix(path: str) -> LaurentMatrix:
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    return LaurentMatrix.from_json(data)


def _graded_arg(text: str) -> GradedElement:
    if text.startswith("@"):
        return GradedElement.from_json(_load_json(text[1:]))
    return GradedElement.from_json(json.loads(text))


# ---------------------------------------------------------------------------
# simple wrappers


def cmd_eval(args) -> int:
    w = _parse(args.word, args.n, args.let)
    if args.truncate is not None:
        m = burau_eval_trunc(w, args.truncate)
        _emit(args, {"command": "eval", "matrix": m.to_json()}, str(m))
    else:
        m = burau_eval(w)
        _emit(args, {"command": "eval", "matrix": m.to_json()}, str(m))
    return 0


def _input_matrix(args) -> LaurentMatrix:
    if args.matrix is not None:
        return _load_matrix(args.matrix)
    if args.word is None:
        raise UsageError("need --word or --matrix")
    return burau_eval(_parse(args.word, args.n, args.let))


def cmd_check(args) -> int:
    m = _input_matrix(args)
    report = gamma_check(m)
    violations = [] if report else list(report.violations)
    status = "pass" if report else "fail"
    _emit(args, {"command": "check", "status": status,
                 "violations": violations},
          f"{status}: violations {violations}")
    return 0 if report else 1


def cmd_depth(args) -> int:
    if args.truncate is not None:
        if args.word is None:
            m = _load_matrix(args.matrix).truncate(args.truncate)
        else:
            m = burau_eval_trunc(_parse(args.word, args.n, args.let),
                                 args.truncate)
        d = m.depth_bound()
        payload = {"command": "depth", "depth": d,
                   "note": f"at least; certified through s^{args.truncate - 1}"
                   if d == args.truncate else "exact"}
    else:
        d = _input_matrix(args).depth()
        payload = {"command": "depth",
                   "depth": "infinity" if d == math.inf else d}
    _emit(args, payload, f"depth {payload['depth']}")
    return 0


def cmd_coeff(args) -> int:
    if args.word is not None:
        source: object = _parse(args.word, args.n, args.let)
    else:
        source = _input_matrix(args)
    el = gamma_coeff(source, args.k)
    _emit(args, {"command": "coeff", "element": el.to_json()},
          f"degree {el.degree}\n{el.matrix}")
    return 0


def cmd_expand(args) -> int:
    m = _input_matrix(args)
    coeffs = m.s_expand(args.precision)
    _emit(args, {"command": "expand",
                 "coefficients": [c.to_json() for c in coeffs]},
          "\n\n".join(f"s^{k}:\n{c}" for k, c in enumerate(coeffs)))
    return 0


def cmd_bracket(args) -> int:
    a = _graded_arg(args.a)
    b = _graded_arg(args.b)
    out = g_bracket(a, b)
    _emit(args, {"command": "bracket", "element": out.to_json()},
          f"degree {out.degree}\n{out.matrix}")
    return 0


# ---------------------------------------------------------------------------
# density and search


def cmd_library_build(args) -> int:
    t0 = time.time()
    lib = build_witness_library(args.n, args.max_degree)
    lib.save(args.out)
    sizes = {str(k): len(v) for k, v in lib.per_degree.items()}
    _emit(args, {"command": "library-build", "status": "pass",
                 "sizes": sizes, "path": args.out,
                 "seconds": round(time.time() - t0, 3)},
          f"built {args.out}: sizes {sizes} ({time.time() - t0:.2f}s)")
    return 0


def cmd_library_verify(args) -> int:
    t0 = time.time()
    lib = WitnessLibrary.load(args.library, trust=args.trust)
    if args.trust:
        note = "parsed without re-verification (--trust)"
    else:
        note = "all coefficients, spans, and induction congruences re-verified"
    _emit(args, {"command": "library-verify", "status": "pass", "note": note,
                 "seconds": round(time.time() - t0, 3)},
          f"pass: {note}")
    return 0


def cmd_approximate(args) -> int:
    data = _load_json(args.gamma)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    matrix = LaurentMatrix.from_json(data)
    library = None
    if args.library is not None:
        library = WitnessLibrary.load(args.library, trust=args.trust)
    exact = None
    if args.exact_check:
        exact = True
    elif args.no_exact_check:
        exact = False
    res = approximate(matrix, args.k, library=library, exact_check=exact)
    payload = {"command": "approximate", **res.to_json()}
    _emit(args, payload,
          f"word: {word_format(res.word)}\nachieved depth: {res.achieved_depth}")
    return 0


def cmd_search(args) -> int:
    from .search import (SearchConfig, alpha_search_config, delta_search_config,
                         search_deep)
    if args.alpha:
        cfg = alpha_search_config()
    elif args.delta:
        cfg = delta_search_config()
    elif args.config is not None:
        cfg = SearchConfig.from_json(_load_json(args.config),
                                     _bindings(args.n, args.let))
    else:
        raise UsageError("need --config, --alpha, or --delta")
    if args.budget is not None:
        cfg.budget = args.budget
    out = search_deep(cfg)
    for h in out.hits:
        _emit(args, {"command": "search", "hit": h.to_json()},
              f"depth {h.depth} at #{h.index}: {word_format(h.word)}")
    _emit(args, {"command": "search", "candidates": out.candidates,
                 "hits": len(out.hits), "budgetExhausted": out.budget_exhausted},
          f"{len(out.hits)} hits from {out.candidates} candidates"
          + (" (budget exhausted)" if out.budget_exhausted else ""))
    return 0


# ---------------------------------------------------------------------------
# verify-paper: the one-shot behavior suite


_DEPTH5_COEFF = [
    [0, 2, 0, 2, -4],
    [2, -2, -2, 1, 1],
    [0, -2, 0, -2, 4],
    [2, 1, -2, 1, -2],
    [-4, 1, 4, -2, 1],
]


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    from .words import Literal
    letters = [(rng.randrange(1, n), rng.choice((1, -1)))
               for _ in range(length)]
    return Literal(n, letters)


def _expect(ok: bool) -> None:
    """Fail a verify-paper check; unlike assert, this is kept under -O."""
    if not ok:
        raise AssertionError("check failed")


def _vp_checks(n: int, max_degree: int):
    rng = random.Random(20240811)

    def generator_blocks():
        for nn in range(2, 7):
            for i in range(1, nn):
                m = burau_gen(nn, i)
                for r in range(nn):
                    for c in range(nn):
                        e = m[(r, c)]
                        if r == c == i - 1:
                            _expect(e == LaurentPoly({0: 1, 1: -1}))
                        elif r == i - 1 and c == i:
                            _expect(e == LaurentPoly({0: 1}))
                        elif r == i and c == i - 1:
                            _expect(e == LaurentPoly({1: 1}))
                        elif r == i and c == i:
                            _expect(e == LaurentPoly({}))
                        else:
                            _expect(e == LaurentPoly({0: 1} if r == c else {}))
        for i in range(1, n - 1):
            a, b = gen(n, i), gen(n, i + 1)
            _expect(burau_eval(concat(a, b, a)) == burau_eval(concat(b, a, b)))
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                a, b = gen(n, i), gen(n, j)
                _expect(burau_eval(concat(a, b)) == burau_eval(concat(b, a)))

    def sample_words(count=20, length=14):
        return [_random_word(rng, n, length) for _ in range(count)]

    words = sample_words()

    def fixed_vector():
        v = vector_v(n)
        for w in words:
            _expect(burau_eval(w).mul_vec(v) == v)

    def fixed_row():
        row = ones_row(n)
        for w in words:
            _expect(burau_eval(w).vec_mul(row) == row)

    def hermitian_form():
        j = form_j(n)
        for w in words:
            m = burau_eval(w)
            _expect(m.star() * j * m == j)

    def permutation_reduction():
        for w in words:
            _expect(burau_eval(w).at_one() == perm_matrix(word_permutation(w)))

    lib = default_library(n, max_degree)

    def filtration_bracket():
        pool = [(k, w) for k in range(1, max_degree + 1)
                for w in lib.per_degree[k][:3]]
        for ka, wa in pool:
            for kb, wb in pool:
                if ka + kb > max_degree:
                    continue
                prec = ka + kb + 1
                m = burau_eval_trunc(commutator(wa.word, wb.word), prec)
                _expect(m.depth_bound() >= ka + kb)
                _expect(m.coefficient(ka + kb) ==
                        wa.element.matrix.commutator(wb.element.matrix))

    def graded_invariants():
        for k in range(1, max_degree + 1):
            for w in lib.per_degree[k]:
                _expect(membership_violations(k, w.element.matrix) == [])

    def determinant_one():
        one = LaurentPoly({0: 1})
        for k in range(2, max_degree + 1):
            w = lib.per_degree[k][0]
            _expect(burau_eval(w.word).det() == one)

    def bracket_formulas():
        import itertools
        idx = range(1, n + 1)
        for i, j, k in itertools.permutations(idx, 3):
            _expect(g_bracket(gen_x(i, j, n), gen_x(i, k, n)).matrix ==
                    gen_y(i, j, k, n).matrix)
            _expect(g_bracket(gen_x(i, j, n), gen_y(i, j, k, n)).matrix ==
                    2 * (gen_x(i, k, n) - gen_x(j, k, n)).matrix)
        for i, j, k, l in itertools.permutations(idx, 4):
            _expect(g_bracket(gen_x(i, j, n), gen_x(k, l, n)).matrix.is_zero())
        for i, j in itertools.permutations(idx, 2):
            _expect(g_bracket(gen_x(i, j, n), gen_x(i, j, n)).matrix.is_zero())
            _expect(g_bracket(gen_x(i, j, n), gen_x(j, i, n)).matrix.is_zero())

    def orbit_spans_degree3():
        seed = GradedElement(3, (gen_x(2, 4, n) - gen_x(1, 3, n)).matrix)
        lat = IntLattice(n * n, [g.matrix.vec() for g in orbit(seed)])
        _expect(lat.rank == g_rank(n, 3))
        _expect(lat == g_lattice(n, 3))

    def bracket_lattices():
        _expect(bracket_lattice(n, 1) == g_lattice(n, 2))
        _expect(bracket_lattice(n, 3) == g_lattice(n, 4))
        l5 = bracket_lattice(n, 4)
        for b in g_basis(n, 5):
            _expect(l5.contains(tuple(2 * x for x in b.matrix.vec())))
            _expect(not l5.contains(b.matrix.vec()))

    def symmetric_reconstruction():
        basis = g_basis(n, 3)
        for _ in range(4):
            coeffs = [rng.randrange(-2, 3) for _ in basis]
            m = IntMatrix.zero(n)
            for c, b in zip(coeffs, basis):
                m = m + c * b.matrix
            if m.is_zero():
                continue
            w = GradedElement(3, m)
            omega = solve_in_degree(lib, w)
            om4 = burau_eval_trunc(omega, 5).coefficient(4)
            plus = reconstruct_plus(w, 2)
            for i in range(n):
                for j in range(n):
                    _expect(plus[i][j] == Fraction(om4[(i, j)] + om4[(j, i)], 2))

    def banded_skew_sums():
        w = GradedElement(3, (gen_x(2, 4, n) - gen_x(2, 5, n)).matrix)
        wp = w_prime(w, 2)
        plus = reconstruct_plus(w, 2)
        u = [-sum(plus[i][j] for i in range(n)) for j in range(n)]
        for j in range(n):
            _expect(sum(wp[i][j] for i in range(n)) == u[j])
            for i in range(n):
                _expect(wp[i][j] == -wp[j][i])

    def _flagship():
        w = GradedElement(3, (gen_x(2, 4, n) - gen_x(2, 5, n)).matrix)
        omega = commutator(alpha_word(n), gen(n, 4))
        return KernelElement([KernelTerm((2, 5), w, omega),
                              KernelTerm((2, 5), w, omega),
                              KernelTerm((4, 5), w, omega)])

    def phi_expansion_identity():
        phi_eval(_flagship(), verify=True)

    def phi_witness_independence():
        d = _flagship()
        base = phi_eval(d)
        deep = commutator(alpha_word(n), pure_gen(n, 1, 2))
        alt = concat(commutator(alpha_word(n), gen(n, 4)), deep)
        d2 = d.with_witnesses([alt, d.terms[1].witness, d.terms[2].witness])
        _expect(phi_eval(d2) == base)
        _expect(phi_from_w(d) == base)

    def phi_coset_value():
        target = CosetElement(
            GradedElement(5, (gen_x(2, 4, n) - gen_x(2, 5, n)).matrix),
            coset_modulus(n, 2))
        _expect(phi_eval(_flagship()) == target)

    def alpha_reproduction():
        m = burau_eval(alpha_word(5))
        _expect(m.depth() == 3)
        expected = (gen_x(2, 4, 5) - gen_x(1, 3, 5)).matrix
        _expect(m.s_expand(4)[3] == expected)

    def delta_reproduction():
        m = burau_eval_trunc(delta_word(5), 6)
        _expect(m.depth_bound() == 5)
        _expect(m.coefficient(5) == IntMatrix(_DEPTH5_COEFF))

    def library_spans():
        for k in range(1, max_degree + 1):
            _expect(lib.coefficient_lattice(k) == g_lattice(n, k))

    def induction_congruence():
        lib.verify_induction()

    def solve_roundtrip():
        for k in range(1, max_degree + 1):
            basis = g_basis(n, k)
            coeffs = [rng.randrange(-1, 2) for _ in basis]
            m = IntMatrix.zero(n)
            for c, b in zip(coeffs, basis):
                m = m + c * b.matrix
            t = GradedElement(k, m)
            w = solve_in_degree(lib, t)
            out = burau_eval_trunc(w, k + 1)
            _expect(out.depth_bound() >= k and out.coefficient(k) == m)

    def approximation_roundtrip():
        for _ in range(3):
            w = _random_word(rng, n, 10)
            g = burau_eval(w)
            res = approximate(g, min(4, max_degree), library=lib)
            _expect(res.residual_depth(g) >= min(4, max_degree) + 1)

    return [
        ("generator-blocks", generator_blocks),
        ("fixed-vector", fixed_vector),
        ("fixed-row", fixed_row),
        ("hermitian-form", hermitian_form),
        ("permutation-reduction", permutation_reduction),
        ("filtration-bracket", filtration_bracket),
        ("graded-invariants", graded_invariants),
        ("determinant-one", determinant_one),
        ("bracket-formulas", bracket_formulas),
        ("orbit-spans-degree3", orbit_spans_degree3),
        ("bracket-lattices", bracket_lattices),
        ("symmetric-reconstruction", symmetric_reconstruction),
        ("banded-skew-sums", banded_skew_sums),
        ("phi-expansion-identity", phi_expansion_identity),
        ("phi-witness-independence", phi_witness_independence),
        ("phi-coset-value", phi_coset_value),
        ("alpha-reproduction", alpha_reproduction),
        ("delta-reproduction", delta_reproduction),
        ("library-spans", library_spans),
        ("induction-congruence", induction_congruence),
        ("solve-roundtrip", solve_roundtrip),
        ("approximation-roundtrip", approximation_roundtrip),
    ]


def cmd_verify_paper(args) -> int:
    if args.n < 5:
        raise UsageError("verify-paper needs --n >= 5: the witness-library "
                         "checks have no five-condition analogue below five "
                         "strands")
    if args.max_degree < 3:
        raise UsageError("verify-paper needs --max-degree >= 3")
    ok = True
    for name, fn in _vp_checks(args.n, args.max_degree):
        t0 = time.time()
        try:
            fn()
            status = "pass"
        except Exception as exc:  # report and continue
            status = "fail"
            ok = False
            if args.human:
                print(f"FAIL {name}: {exc}")
        dt = round(time.time() - t0, 3)
        _emit(args, {"check": name, "status": status, "seconds": dt},
              f"{'PASS' if status == 'pass' else 'FAIL'} {name} ({dt}s)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="burau",
                                description="exact Burau-representation "
                                "computations, depth analysis, and "
                                "constructive approximation")
    p.add_argument("--human", action="store_true",
                   help="render output for reading instead of JSON lines")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, word=True):
        sp.add_argument("--n", type=int, default=5)
        sp.add_argument("--let", action="append", metavar="NAME=WORD",
                        help="bind NAME for use inside --word "
                        "(ALPHA and DELTA are built in)")
        if word:
            sp.add_argument("--word")
        sp.add_argument("--matrix", help="JSON matrix file")

    sp = sub.add_parser("eval", help="image of a braid word")
    common(sp)
    sp.add_argument("--truncate", type=int, metavar="N",
                    help="work in the ring truncated at s^N")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("check", help="group membership report")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("depth", help="s-adic depth")
    common(sp)
    sp.add_argument("--truncate", type=int, metavar="N")
    sp.set_defaults(fn=cmd_depth)

    sp = sub.add_parser("coeff", help="graded leading coefficient")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_coeff)

    sp = sub.add_parser("expand", help="s-expansion coefficients")
    common(sp)
    sp.add_argument("--precision", type=int, required=True)
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("bracket", help="bracket of two graded elements")
    sp.add_argument("--a", required=True, metavar="JSON|@FILE")
    sp.add_argument("--b", required=True, metavar="JSON|@FILE")
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("approximate", help="braid word matching a matrix "
                        "through degree K")
    sp.add_argument("--gamma", required=True, help="JSON matrix file")
    sp.add_argument("--k", "--K", dest="k", type=int, required=True)
    sp.add_argument("--library", help="witness library JSON file")
    sp.add_argument("--trust", action="store_true",
                    help="skip re-verification of a loaded library")
    sp.add_argument("--exact-check", action="store_true")
    sp.add_argument("--no-exact-check", action="store_true")
    sp.set_defaults(fn=cmd_approximate)

    sp = sub.add_parser("search", help="bounded commutator search")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--let", action="append", metavar="NAME=WORD")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--alpha", action="store_true",
                    help="the depth-3 reconstruction config")
    sp.add_argument("--delta", action="store_true",
                    help="the depth-5 reconstruction config")
    sp.add_argument("--budget", type=int)
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("verify-paper", help="run the named behavior checks")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--max-degree", type=int, default=5)
    sp.set_defaults(fn=cmd_verify_paper)

    sp = sub.add_parser("library-build", help="build and save a witness library")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--max-degree", type=int, default=4)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_library_build)

    sp = sub.add_parser("library-verify", help="reload and re-verify a library")
    sp.add_argument("--library", required=True)
    sp.add_argument("--trust", action="store_true")
    sp.set_defaults(fn=cmd_library_verify)

    # accepted after the subcommand too; SUPPRESS keeps the subparser from
    # clobbering a --human given before it
    for sp in sub.choices.values():
        sp.add_argument("--human", action="store_true", default=argparse.SUPPRESS,
                        help="render output for reading instead of JSON lines")

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, UsageError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
        return 2
    except (NotInGamma, NoSolution, SpanFailure, DepthTooSmall,
            LibraryIntegrityError, IndexOutOfRange, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
