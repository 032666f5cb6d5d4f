"""Command line interface.

Every command prints line-oriented JSON on stdout (one object per line)
unless --human is passed, in which case matrices and tables are rendered
for reading.  Exit codes: 0 success, 1 domain failure (a membership check
failed, a target was unreachable, a verification missed), 2 usage or
parse errors, 3 an internal invariant failed (two exact computations of
one value disagreed: a bug, never a property of the input).  Sizes and
degrees beyond what the witness libraries support are usage errors.  An
error that ends a command prints one JSON line {"error", "kind"} on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .checks import paper_checks
from .density import (MAX_DEGREE, MAX_N, MIN_N, DepthRegression,
                      LibraryIntegrityError, NoSolution, NotInGamma,
                      SpanFailure, WitnessLibrary, approximate,
                      build_witness_library)
from .liealg import GradedElement, g_bracket
from .laurent import json_int
from .linalg import LaurentMatrix
from .rep import (DepthTooSmall, burau_eval, burau_eval_trunc, gamma_check,
                  gamma_coeff)
from .words import (BraidWord, IndexOutOfRange, ParseError, alpha_word,
                    delta_word, parse_word, reserved_name, word_format)


class UsageError(Exception):
    """Bad invocation mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Argument errors raise UsageError, so main reports them as JSON."""

    def error(self, message: str):
        raise UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


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


def _decode(source: str, decode, data):
    """decode(data), with a missing, mistyped or out-of-range field
    reported as a UsageError that names the file or argument it came from."""
    try:
        return decode(data)
    except KeyError as exc:
        raise UsageError(f"{source} lacks the field {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise UsageError(f"{source} is malformed: {exc}") from exc


def _load_matrix(path: str) -> LaurentMatrix:
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    return _decode(path, LaurentMatrix.from_json, data)


def _supported(option: str, value: int, high: int, low: int = 1) -> None:
    """Refuse a size or degree outside what the witness libraries support."""
    if not low <= value <= high:
        raise UsageError(f"{option} {value} is outside the supported range "
                         f"{low}..{high}")


def _graded_arg(text: str, name: str) -> GradedElement:
    if text.startswith("@"):
        return _decode(text[1:], GradedElement.from_json, _load_json(text[1:]))
    return _decode(name, GradedElement.from_json, json.loads(text))


def _load_library(path: str, trust: bool) -> WitnessLibrary:
    lib = _decode(path, lambda data: WitnessLibrary.from_json(data, trust=True),
                  _load_json(path))
    if not trust:
        lib.verify()
    return lib


# ---------------------------------------------------------------------------
# simple wrappers


def cmd_eval(args) -> int:
    w = _parse(args.word, args.n, args.let)
    if args.truncate is not None:
        m = burau_eval_trunc(w, args.truncate)
    else:
        m = burau_eval(w)
    _emit(args, {"command": "eval", "matrix": m.to_json()}, str(m))
    return 0


def _input_matrix(args) -> LaurentMatrix:
    if args.matrix is not None:
        return _load_matrix(args.matrix)
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


#: the precision at which ``depth`` of a word is read before any exact
#: evaluation; only a word that is the identity to this precision is folded
#: exactly
_DEPTH_PROBE = 8


def cmd_depth(args) -> int:
    if args.truncate is not None:
        if args.matrix is not None:
            m = _load_matrix(args.matrix).truncate(args.truncate)
        else:
            m = burau_eval_trunc(_parse(args.word, args.n, args.let),
                                 args.truncate)
        d = m.depth_bound()
        payload = {"command": "depth", "depth": d,
                   "note": f"at least; certified through s^{args.truncate - 1}"
                   if d == args.truncate else "exact"}
    else:
        if args.matrix is not None:
            d = _load_matrix(args.matrix).depth()
        else:
            # truncation is a ring homomorphism, so a depth below the
            # probe's precision is exact, whatever the word's exponents
            w = _parse(args.word, args.n, args.let)
            d = burau_eval_trunc(w, _DEPTH_PROBE).depth_bound()
            if d == _DEPTH_PROBE:
                d = burau_eval(w).depth()
        payload = {"command": "depth",
                   "depth": "infinity" if d == math.inf else d}
    _emit(args, payload, f"depth {payload['depth']}")
    return 0


def cmd_coeff(args) -> int:
    if args.matrix is not None:
        source: object = _load_matrix(args.matrix)
    else:
        source = _parse(args.word, args.n, args.let)
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
    a = _graded_arg(args.a, "--a")
    b = _graded_arg(args.b, "--b")
    out = g_bracket(a, b)
    _emit(args, {"command": "bracket", "element": out.to_json()},
          f"degree {out.degree}\n{out.matrix}")
    return 0


# ---------------------------------------------------------------------------
# density and search


def cmd_library_build(args) -> int:
    _supported("--n", args.n, MAX_N, MIN_N)
    _supported("--max-degree", args.max_degree, MAX_DEGREE)
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
    lib = _load_library(args.library, args.trust)
    if args.trust:
        note = "parsed without re-verification (--trust)"
    else:
        note = "all coefficients, spans, and induction congruences re-verified"
    _emit(args, {"command": "library-verify", "status": "pass", "note": note,
                 "seconds": round(time.time() - t0, 3)},
          f"pass: {note}")
    return 0


def cmd_approximate(args) -> int:
    matrix = _load_matrix(args.gamma)
    library = None
    if args.library is not None:
        library = _load_library(args.library, args.trust)
        if library.n != matrix.n:
            raise UsageError(f"{args.library} is a library for {library.n} "
                             f"strands, and --gamma has {matrix.n}")
        if args.k > library.max_degree:
            raise UsageError(f"--k {args.k} exceeds the degree "
                             f"{library.max_degree} of {args.library}")
    else:
        _supported("--k", args.k, MAX_DEGREE)
        _supported("--gamma strand count", matrix.n, MAX_N, MIN_N)
    res = approximate(matrix, args.k, library=library,
                      exact_check=args.exact_check)
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
    else:
        data = _load_json(args.config)
        n = _decode(args.config, lambda data: json_int(data["n"], name="n"),
                    data)
        if n < 1:
            raise UsageError(f"{args.config}: n must be at least 1, got {n}")
        bindings = _bindings(n, args.let)
        cfg = _decode(args.config,
                      lambda data: SearchConfig.from_json(data, bindings), data)
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


def cmd_verify_paper(args) -> int:
    if args.n < 5:
        raise UsageError("verify-paper needs --n >= 5: the witness-library "
                         "checks have no five-condition analogue below five "
                         "strands")
    if args.max_degree < 3:
        raise UsageError("verify-paper needs --max-degree >= 3")
    _supported("--n", args.n, MAX_N)
    _supported("--max-degree", args.max_degree, MAX_DEGREE)
    ok = True
    for name, fn in paper_checks(args.n, args.max_degree):
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
    p = _Parser(prog="burau", description="exact Burau-representation "
                "computations, depth analysis, and constructive approximation")
    p.add_argument("--human", action="store_true",
                   help="render output for reading instead of JSON lines")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, matrix: bool = True):
        """--n, --let and the operand: exactly one of --word and --matrix,
        or --word alone when ``matrix`` is false."""
        sp.add_argument("--n", type=positive_int, default=5)
        sp.add_argument("--let", action="append", metavar="NAME=WORD",
                        help="bind NAME for use inside --word "
                        "(ALPHA and DELTA are built in)")
        operand = sp.add_mutually_exclusive_group(required=True)
        operand.add_argument("--word")
        if matrix:
            operand.add_argument("--matrix", help="JSON matrix file")

    sp = sub.add_parser("eval", help="image of a braid word")
    common(sp, matrix=False)
    sp.add_argument("--truncate", type=positive_int, metavar="N",
                    help="work in the ring truncated at s^N")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("check", help="group membership report")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("depth", help="s-adic depth")
    common(sp)
    sp.add_argument("--truncate", type=positive_int, metavar="N")
    sp.set_defaults(fn=cmd_depth)

    sp = sub.add_parser("coeff", help="graded leading coefficient")
    common(sp)
    sp.add_argument("--k", type=positive_int, required=True)
    sp.set_defaults(fn=cmd_coeff)

    sp = sub.add_parser("expand", help="s-expansion coefficients")
    common(sp)
    sp.add_argument("--precision", type=positive_int, required=True)
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("bracket", help="bracket of two graded elements")
    sp.add_argument("--a", required=True, metavar="JSON|@FILE")
    sp.add_argument("--b", required=True, metavar="JSON|@FILE")
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("approximate", help="braid word matching a matrix "
                        "through degree K")
    sp.add_argument("--gamma", required=True, help="JSON matrix file")
    sp.add_argument("--k", "--K", dest="k", type=positive_int, required=True)
    sp.add_argument("--library", help="witness library JSON file")
    sp.add_argument("--trust", action="store_true",
                    help="skip re-verification of a loaded library")
    exact = sp.add_mutually_exclusive_group()
    exact.add_argument("--exact-check", dest="exact_check",
                       action="store_const", const=True)
    exact.add_argument("--no-exact-check", dest="exact_check",
                       action="store_const", const=False)
    sp.set_defaults(fn=cmd_approximate)

    sp = sub.add_parser("search", help="bounded commutator search")
    sp.add_argument("--let", action="append", metavar="NAME=WORD")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--config", help="JSON config file")
    mode.add_argument("--alpha", action="store_true",
                      help="the depth-3 reconstruction config")
    mode.add_argument("--delta", action="store_true",
                      help="the depth-5 reconstruction config")
    sp.add_argument("--budget", type=non_negative_int)
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("verify-paper", help="run the named behavior checks")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--max-degree", type=int, default=5)
    sp.set_defaults(fn=cmd_verify_paper)

    sp = sub.add_parser("library-build", help="build and save a witness library")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--max-degree", type=positive_int, default=4)
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


def _report(exc: Exception, code: int) -> int:
    print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
          file=sys.stderr)
    return code


#: the parser, built once per process: parsing keeps no state on it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered nowhere, so
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, UsageError, json.JSONDecodeError, FileNotFoundError) as exc:
        return _report(exc, 2)
    except (NotInGamma, NoSolution, SpanFailure, DepthTooSmall,
            DepthRegression, LibraryIntegrityError, IndexOutOfRange,
            ValueError) as exc:
        return _report(exc, 1)
    except AssertionError as exc:
        return _report(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
