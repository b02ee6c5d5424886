"""Command line interface: constructions in, JSON certificates out.

Exit codes: 0 when the property holds or a value was computed, 1 when the
property was refuted (the certificate carries the witness), 2 on usage or
input errors, 3 when a subset budget or cap was exceeded.  Certificates go
to stdout as a single strict JSON document, with no NaN or infinity;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

# Only modules without numpy are imported here, so that dft-analyze, orbit,
# rip-check, Hall matroid-girth and clique-gadget never load it; handlers
# import constructions, spark_engine and numpy themselves.
from . import dft_analysis, matroid
from .errors import (BudgetExceeded, CapExceeded, ShapeError, SparkforgeError, _quoted,
                     json_count, json_field, json_int, json_list)
from .exact_arith import CycInt, ExactScalar, euler_phi, is_prime, is_prime_power
from .exact_linalg import ExactMatrix, dft_submatrix
from .sweep import DEFAULT_BUDGET

SCHEMA_VERSION = 1

BUDGET_ENV = "SPARKFORGE_BUDGET"

# Largest cyclotomic order taken from a matrix file or an option.  Exact
# arithmetic in Z[w] keeps one table per order, the order * phi(order)
# power-basis coefficients of w^0 .. w^(order-1), shared with the root
# table: about 32 MiB at the prime 2039, growing as the square of the order.
MAX_ORDER = 2048

# Most row entries `orbit` prints, and most entries of a `construct` document
# (coefficients with --exact): 10^6, as for the adjacency entries of `clique-gadget`.
MAX_PRINTED_ENTRIES = matroid.MAX_GADGET_ENTRIES


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return _count(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{BUDGET_ENV} {exc}") from None


class UsageError(Exception):
    pass


def matrix_to_json(obj) -> dict:
    """Serialize an ExactMatrix or complex array as a matrix document."""
    order = {}  # only a cyclotomic document names its order
    if isinstance(obj, ExactMatrix):
        kind, rows, cols, entries = "integer", obj.rows, obj.cols, list(obj.entries)
        if not obj.is_integer():
            if any(e.den != 1 for e in entries):
                raise UsageError("cyclotomic matrix files cannot carry denominators")
            kind, order = "cyclotomic", {"order": obj.order}
            entries = [list(e.num.coeffs) for e in entries]
    else:
        from .constructions import _complex_matrix

        arr = _complex_matrix(obj)
        (rows, cols), kind = map(int, arr.shape), "complex_float"
        entries = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "rows": rows, "cols": cols,
            **order, "entries": entries}


def _order(value) -> int:
    order = json_int(value, "order")
    if not 1 <= order <= MAX_ORDER:
        raise UsageError(f"order must lie in 1..{MAX_ORDER}, got {_quoted(order)}")
    return order


def matrix_from_json(doc: dict):
    """Parse a matrix document into an ExactMatrix or a complex array."""
    if not isinstance(doc, dict):
        raise UsageError("matrix file must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {_quoted(version)}")
    kind, rows, cols, entries = (json_field(doc, key, "matrix file")
                                 for key in ("kind", "rows", "cols", "entries"))
    rows, cols = json_count(rows, "rows"), json_count(cols, "cols")
    entries = json_list(entries, "entries")
    order = _order(json_field(doc, "order", "matrix file")) if kind == "cyclotomic" else 1
    if len(entries) != rows * cols:
        raise UsageError(f"expected {_quoted(rows * cols)} entries, got {len(entries)}")
    if kind == "integer":
        return ExactMatrix(rows, cols, [json_int(e, "integer entry") for e in entries])
    if kind == "cyclotomic":
        phi = euler_phi(order)
        scalars = []
        for coeffs in entries:
            coeffs = json_list(coeffs, "cyclotomic entry")
            coeffs = [json_int(c, "cyclotomic coefficient") for c in coeffs]
            if len(coeffs) > phi:
                raise UsageError(f"coefficient vector longer than {phi}")
            coeffs += [0] * (phi - len(coeffs))
            scalars.append(ExactScalar(CycInt(order, coeffs)))
        return ExactMatrix(rows, cols, scalars, order)
    if kind == "complex_float":
        for e in entries:
            pair = json_list(e, "complex entry", 2)
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
                raise ShapeError("complex entry must be a [real, imag] pair of numbers, "
                                 f"got {_quoted(e)}")
        try:
            data = [complex(re, im) for re, im in entries]
        except OverflowError as exc:
            raise UsageError(f"complex entry out of float range: {exc}") from exc
        import numpy as np

        return np.array(data, dtype=complex).reshape(rows, cols)
    raise UsageError(f"unknown matrix kind {_quoted(kind)}")


def _read_text(path: str) -> str:
    """The text of a file option; - is stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str, text: str | None = None, what: str = "invalid JSON"):
    try:  # the text, when given, is the file's, already read
        return json.loads(_read_text(path) if text is None else text)
    # RecursionError: deep nesting; a plain ValueError: an integer of more digits than int() reads
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what} in {path}: {exc}") from exc


# The one rule for a number on the command line, an integer in an option, list
# or $SPARKFORGE_BUDGET or a real in --tol and --delta: int() and float() would also
# take "0_3", padding and non-ASCII digits.  nan and inf go on to the library.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_REAL_TOKEN = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|infinity|nan)", re.I)


def _number(token: re.Pattern, convert, what: str):
    """An option's type: its text must match token, and convert must read it
    (int() reads at most sys.get_int_max_str_digits() digits); argparse names
    the option in the error, and never the text itself."""
    def read(text: str):
        if token.fullmatch(text):
            with contextlib.suppress(ValueError):
                return convert(text)
        raise argparse.ArgumentTypeError(f"must be {what}, got {_quoted(text)}")
    return read


_integer = _number(_INT_TOKEN, int, "an integer")
_real = _number(_REAL_TOKEN, float, "a decimal number")


def _count(text: str) -> int:
    """An option's non-negative integer."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {_quoted(value)}")
    return value


def _parse_int_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    for token in tokens:
        if not _INT_TOKEN.fullmatch(token):
            raise UsageError(f"expected integers, got {_quoted(token)}")
    return [int(tok) for tok in tokens]


def _index_set(order: int, args) -> dft_analysis.IndexSet:
    """The rows of the given order, read once from the one row source."""
    order = _order(order)
    qr = getattr(args, "rows_qr", False)  # construct alone has --rows-qr
    given = [flag for flag, on in (("--rows", args.rows is not None),
                                   ("--rows-file", args.rows_file is not None),
                                   ("--rows-qr", qr)) if on]
    if len(given) > 1:  # every source but one would be ignored
        raise UsageError("give one row source, not " + " and ".join(given))
    if qr:
        from .constructions import quadratic_residue_rows

        return quadratic_residue_rows(order)
    if args.rows_file is not None:  # a JSON list if it opens with [, else separated integers
        text = _read_text(args.rows_file)
        if text.lstrip().startswith("["):
            rows = _read_json(args.rows_file, text, "rows file must hold a JSON list; invalid JSON")
            rows = [json_int(x, "row") for x in rows]
        else:
            rows = _parse_int_list(text)
    elif args.rows is not None:
        rows = _parse_int_list(args.rows)
    else:
        raise UsageError("need --rows or --rows-file")
    return dft_analysis.IndexSet.from_iterable(order, rows)


def _order_and_rows(args) -> tuple:
    rows = _index_set(args.n, args)
    return rows.order, rows


def _load_matrix(args):
    return matrix_from_json(_read_json(args.matrix))


# construct kind -> (options it needs, other options it reads, its builder in
# constructions, reader of the builder's arguments from args, _shape of its
# document from those arguments); each kind is also a flag, and --exact goes
# with every kind.  The arguments are read once, for the count and the builder.
_ROW_SOURCES = ("rows", "rows_file", "rows_qr")
FRAMES = {
    "vandermonde": (
        ("bases", "m"), (), "vandermonde", lambda a: (_parse_int_list(a.bases), a.m),
        lambda bases, m: _shape(m, len(bases), 1),
    ),
    "harmonic": (
        ("n",), (*_ROW_SOURCES, "normalize"), "harmonic",
        lambda a: (*_order_and_rows(a), a.normalize),
        lambda n, rows, _: _shape(len(rows), n, n),
    ),
    "harmonic-identity": (
        ("n", "k"), _ROW_SOURCES, "harmonic_identity", lambda a: (*_order_and_rows(a), a.k),
        lambda n, rows, k: _shape(len(rows), n + k, n, k) if is_prime(n) else (0, n),
    ),
    "optimal": (
        ("n", "m"), ("normalize",), "optimal_vandermonde",
        lambda a: (_order(a.n), a.m, a.normalize), lambda n, m, _: _shape(m, n, n),
    ),
    "parseval": (("matrix",), (), "parseval_projection", lambda a: (_load_matrix(a),),
                 lambda f: _shape(*(getattr(f, "shape", None) or (f.rows, f.cols)), None)),
}


def _shape(rows: int, cols: int, order: int | None, spikes: int = 1) -> tuple[int, int | None]:
    """Entries of a rows x cols document, counted before it is built, and the
    order of its exact shadow (1 for an integer one, None for none).  A shape
    its builder refuses (no rows, more rows than columns, spikes outside
    1..rows) counts 0, so that the builder's own error, exit 2, comes first."""
    return rows * cols if 1 <= rows <= cols and 1 <= spikes <= rows else 0, order


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_construct(args):
    kinds = [kind for kind in FRAMES if getattr(args, kind.replace("-", "_"))]
    if len(kinds) != 1:
        raise UsageError("pick exactly one of " + " ".join(f"--{kind}" for kind in FRAMES))
    needs, reads, builder, read, shape = FRAMES[kinds[0]]
    if any(getattr(args, name) is None for name in needs):
        raise UsageError(f"--{kinds[0]} needs " + " and ".join(map(_flag, needs)))
    # An option the kind does not read would be ignored; None and False
    # are the defaults of the value options and of the flags.
    known = {"command", "exact", *needs, *reads, *(kind.replace("-", "_") for kind in FRAMES)}
    unread = [name for name, value in vars(args).items()
              if name not in known and value is not None and value is not False]
    if unread:
        raise UsageError(f"--{kinds[0]} does not read " + " and ".join(map(_flag, unread)))
    inputs = read(args)
    entries, order = shape(*inputs)
    if args.exact and order is None:
        raise UsageError("this construction has no exact shadow")
    if (count := entries * euler_phi(order) if args.exact else entries) > MAX_PRINTED_ENTRIES:
        what = "exact matrix has {} coefficients" if args.exact else "matrix has {} entries"
        raise CapExceeded(f"{what.format(count)}, cap {MAX_PRINTED_ENTRIES}")
    from . import constructions

    frame = getattr(constructions, builder)(*inputs)
    return matrix_to_json(frame.exact_shadow if args.exact else frame), 0


def _matrix_for_spark(args):
    if (args.matrix is None) == (args.dft is None):
        raise UsageError("give exactly one of --matrix (path or - for stdin) and --dft")
    if args.dft is not None:
        rows = _index_set(args.dft, args)
        cols = None if args.cols is None else _parse_int_list(args.cols)
        return dft_submatrix(rows.order, rows, cols)
    for flag, value in (("--rows", args.rows), ("--rows-file", args.rows_file),
                        ("--cols", args.cols)):
        if value is not None:
            raise UsageError(f"{flag} needs --dft; it cannot restrict a --matrix file")
    return _load_matrix(args)


def _cmd_spark(args):
    from .spark_engine import numeric_spark_probe, spark

    target = _matrix_for_spark(args)
    if isinstance(target, ExactMatrix):
        return spark(target, budget=args.budget).as_dict(), 0
    return numeric_spark_probe(target, tol=args.tol, budget=args.budget).as_dict(), 0


def _cmd_full_spark(args):
    from .spark_engine import is_full_spark

    target = _matrix_for_spark(args)
    if not isinstance(target, ExactMatrix):
        raise UsageError("full-spark certifies exact matrices only; use spark --tol for floats")
    cert = is_full_spark(target, budget=args.budget)
    return cert.as_dict(), 0 if cert.full_spark else 1


def _cmd_dft_analyze(args):
    index_set = _index_set(args.n, args)
    result = dft_analysis.is_uniformly_distributed(index_set)
    prime_power = is_prime_power(index_set.order)  # uniformity decides full spark there
    full = result.uniform if prime_power else None
    violations = [
        {"divisor": rep.divisor, "coset_counts": list(rep.coset_counts), "lo": rep.lo, "hi": rep.hi}
        for rep in result.violations
    ]
    doc = {"n": args.n, "rows": list(index_set), "uniform": result.uniform,
           "violations": violations, "prime_power": prime_power, "full_spark": full}
    return doc, 0 if result.uniform else 1


def _cmd_orbit(args):
    index_set = _index_set(args.n, args)
    orbit = dft_analysis.closure_orbit(index_set, cap=args.cap, max_entries=MAX_PRINTED_ENTRIES)
    members = sorted(list(s) for s in orbit)
    return {"n": args.n, "seed_rows": list(index_set), "size": len(members), "orbit": members}, 0


def _cmd_rip_check(args):
    index_set = _index_set(args.n, args)
    result = dft_analysis.rip_necessary_check(index_set, args.k, args.delta)
    doc = {"n": args.n, "rows": list(index_set), "k": args.k, "delta": args.delta,
           "pass": result.passes, "violations": [list(v) for v in result.violations]}
    return doc, 0 if result.passes else 1


def _cmd_coherence(args):
    from .constructions import _complex_matrix, coherence, welch_bound_sq

    matrix = _complex_matrix(_load_matrix(args))
    result = coherence(matrix)
    m, n = matrix.shape
    return {"rows": int(m), "cols": int(n), "mu": result.mu, "pair": list(result.pair),
            "welch_bound_sq": welch_bound_sq(m, n)}, 0


def _cmd_matroid_girth(args):
    graph = matroid.BipartiteGraph.from_dict(_read_json(args.graph))
    if args.method == "hall":
        return matroid.hall_girth(graph, budget=args.budget).as_dict(), 0
    result = matroid.girth_via_representation(
        graph, trials=args.trials, rng_seed=args.seed, budget=args.budget
    )
    return result.as_dict(), 0


def _cmd_clique_gadget(args):
    graph = matroid.SimpleGraph.from_dict(_read_json(args.graph))
    gadget = matroid.clique_gadget(graph, args.k)
    doc = dict(gadget.to_dict(), edge_order=[list(e) for e in graph.edges],
               target_girth=math.comb(args.k, 2))
    if args.girth:
        doc["girth"] = matroid.hall_girth(gadget, budget=args.budget).as_dict()
    return doc, 0


def _cmd_probe(args):
    from .spark_engine import compressed_spark_probe, spark

    target = _load_matrix(args)
    if not isinstance(target, ExactMatrix) or not target.is_integer():
        raise UsageError("probe needs an integer matrix file")
    result = compressed_spark_probe(
        target, args.k, trials=args.trials, rng_seed=args.seed, p_cap=args.p_cap,
        allow_cap=not args.no_cap, budget=args.budget,
    )
    if result.capped:
        print(f"warning: sketch base pool capped at {result.p}; "
              "the success guarantee degrades", file=sys.stderr)
    doc = dict(result.as_dict(), witness=None, corroborated=False)
    if result.exceeds_k or not args.corroborate:
        return doc, 0 if result.exceeds_k else 1
    # The exact spark decides: a sketch can make independent columns dependent.
    cert = spark(target, budget=args.budget)
    doc["spark"] = cert.spark
    if cert.spark <= args.k:
        doc.update(witness=list(cert.witness) if cert.witness else None, corroborated=True)
    return doc, 0 if cert.spark > args.k else 1


# Options shared by several subcommands, as (flag, add_argument keywords).
_FLAG = {"action": "store_true"}
_INT = {"type": _integer}
_REQUIRED_INT = {"type": _integer, "required": True}
_ROWS = [("--rows", {"help": "comma separated residues, e.g. 0,1,4"}),
         ("--rows-file", {"help": "file of residues, JSON list or separated (- for stdin)"})]
_MATRIX_OR_DFT = [("--matrix", {"help": "matrix file (- for stdin)"}),
                  ("--dft", {"type": _integer, "help": "build DFT rows of this order instead"}),
                  ("--cols", {"help": "column restriction for --dft"})]
_TRIALS_SEED = [("--trials", dict(_INT, default=10)), ("--seed", dict(_INT, default=0))]
_BUDGET = ("--budget", {"type": _count,
                        "help": f"subset budget (default {DEFAULT_BUDGET}, or ${BUDGET_ENV})"})

# name -> (help, handler, options).  A handler returns (document, exit code);
# run() wraps the document in the schema_version/command envelope.
COMMANDS = {
    "construct": ("build a frame and print its matrix file", _cmd_construct, [
        *((f"--{kind}", _FLAG) for kind in FRAMES),
        ("--n", _INT), ("--m", _INT), ("--k", _INT),
        ("--bases", {"help": "comma separated integer bases"}),
        ("--normalize", _FLAG),
        ("--rows-qr", dict(_FLAG, help="use quadratic residue rows")),
        ("--exact", dict(_FLAG, help="emit the exact shadow")),
        ("--matrix", {"help": "input matrix file for --parseval (- for stdin)"}),
        *_ROWS,
    ]),
    "spark": ("spark certificate of a matrix", _cmd_spark, [
        *_MATRIX_OR_DFT,
        ("--tol", {"type": _real, "default": 1e-10, "help": "numeric rank threshold"}),
        *_ROWS, _BUDGET,
    ]),
    "full-spark": ("certify every maximal minor invertible", _cmd_full_spark, [
        *_MATRIX_OR_DFT,
        *_ROWS, _BUDGET,
    ]),
    "dft-analyze": ("coset uniformity of DFT row sets", _cmd_dft_analyze, [
        ("--n", _REQUIRED_INT), *_ROWS,
    ]),
    "orbit": ("closure orbit of a row set", _cmd_orbit, [
        ("--n", _REQUIRED_INT), ("--cap", {"type": _count, "default": dft_analysis.ORBIT_CAP}), *_ROWS,
    ]),
    "rip-check": ("coset balance necessary condition", _cmd_rip_check, [
        ("--n", _REQUIRED_INT), ("--k", _REQUIRED_INT),
        ("--delta", {"type": _real, "required": True}), *_ROWS,
    ]),
    "coherence": ("worst column pair correlation", _cmd_coherence, [
        ("--matrix", {"default": "-", "help": "matrix file (default stdin)"}),
    ]),
    "matroid-girth": ("transversal matroid girth", _cmd_matroid_girth, [
        ("--graph", {"default": "-", "help": "bipartite graph JSON (default stdin)"}),
        ("--method", {"choices": ["hall", "representation"], "default": "hall"}),
        *_TRIALS_SEED, _BUDGET,
    ]),
    "clique-gadget": ("bipartite gadget for clique detection", _cmd_clique_gadget, [
        ("--graph", {"default": "-", "help": "simple graph JSON (default stdin)"}),
        ("--k", _REQUIRED_INT),
        ("--girth", dict(_FLAG, help="also compute the gadget girth")),
        _BUDGET,
    ]),
    "probe": ("randomized compressed spark probe", _cmd_probe, [
        ("--matrix", {"default": "-", "help": "integer matrix file (default stdin)"}),
        ("--k", _REQUIRED_INT), *_TRIALS_SEED,
        ("--p-cap", {"type": _count, "default": 10**6}),
        ("--no-cap", dict(_FLAG, help="error instead of capping")),
        ("--no-corroborate", {"dest": "corroborate", "action": "store_false",
                              "help": "skip the exact spark run after a negative probe"}),
        _BUDGET,
    ]),
}


class _Parser(argparse.ArgumentParser):
    # A parse error takes the same one-line path as every other usage error.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparkforge",
        description="Exact spark certificates, frame constructions, matroid girth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", 0) is None:
            args.budget = _default_budget()
        doc, code = COMMANDS[args.command][1](args)
        if args.command != "construct":  # construct prints a bare matrix file
            doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
        print(json.dumps(doc, indent=2, allow_nan=False))
        return code
    except SystemExit as exc:  # only --help exits; parse errors raise UsageError
        return int(exc.code or 0)
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SparkforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
