"""Command line interface: constructions in, JSON certificates out.

Exit codes: 0 when the property holds or a value was computed, 1 when the
property was refuted (the certificate carries the witness), 2 on usage or
input errors, 3 when a subset budget or cap was exceeded.  Certificates go
to stdout as a single strict JSON document, with no NaN or infinity;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings

# Only modules without numpy are imported here, so that dft-analyze, orbit,
# rip-check, Hall matroid-girth and clique-gadget never load it; handlers
# import constructions, spark_engine and numpy themselves.
from . import dft_analysis, matroid
from .errors import BudgetExceeded, CapExceeded, SparkforgeError
from .exact_arith import CycInt, ExactScalar, euler_phi, is_prime_power
from .exact_linalg import ExactMatrix, dft_submatrix
from .sweep import DEFAULT_BUDGET

SCHEMA_VERSION = 1

BUDGET_ENV = "SPARKFORGE_BUDGET"

# Largest cyclotomic order taken from a matrix file or an option.  Exact
# arithmetic in Z[w] keeps one table per order, the order * phi(order)
# power-basis coefficients of w^0 .. w^(order-1), shared with the root
# table: about 32 MiB at the prime 2039, growing as the square of the order.
MAX_ORDER = 2048

# Most row entries `orbit` prints: 10^6, as for the adjacency entries of
# `clique-gadget`.
MAX_ORBIT_ENTRIES = matroid.MAX_GADGET_ENTRIES


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if budget < 0:
        raise UsageError(f"{BUDGET_ENV} must be non-negative, got {budget}")
    return budget


class UsageError(Exception):
    pass


def matrix_to_json(obj) -> dict:
    """Serialize an ExactMatrix or complex array as a matrix document."""
    if isinstance(obj, ExactMatrix):
        if obj.is_integer():
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "integer",
                "rows": obj.rows,
                "cols": obj.cols,
                "entries": list(obj.entries),
            }
        entries = []
        for e in obj.entries:
            if e.den != 1:
                raise UsageError("cyclotomic matrix files cannot carry denominators")
            entries.append(list(e.num.coeffs))
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cyclotomic",
            "rows": obj.rows,
            "cols": obj.cols,
            "order": obj.order,
            "entries": entries,
        }
    from .constructions import _complex_matrix

    arr = _complex_matrix(obj)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "complex_float",
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)],
    }


def _json_int(value, what: str) -> int:
    # bool is an int subclass, and int() would truncate floats silently.
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _json_count(value, what: str) -> int:
    value = _json_int(value, what)
    if value < 0:
        raise UsageError(f"{what} must be non-negative, got {value}")
    return value


def _order(value) -> int:
    order = _json_int(value, "order")
    if not 1 <= order <= MAX_ORDER:
        raise UsageError(f"order must lie in 1..{MAX_ORDER}, got {order}")
    return order


def matrix_from_json(doc: dict):
    """Parse a matrix document into an ExactMatrix or a complex array."""
    if not isinstance(doc, dict):
        raise UsageError("matrix file must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {version!r}")
    try:
        kind = doc["kind"]
        rows = _json_count(doc["rows"], "rows")
        cols = _json_count(doc["cols"], "cols")
        entries = doc["entries"]
        order = _order(doc["order"]) if kind == "cyclotomic" else 1
    except KeyError as exc:
        raise UsageError(f"matrix file missing field {exc}") from exc
    if not isinstance(entries, list):
        raise UsageError(f"entries must be a JSON list, got {entries!r}")
    if len(entries) != rows * cols:
        raise UsageError(f"expected {rows * cols} entries, got {len(entries)}")
    if kind == "integer":
        return ExactMatrix(rows, cols, [_json_int(e, "integer entry") for e in entries])
    if kind == "cyclotomic":
        phi = euler_phi(order)
        scalars = []
        for coeffs in entries:
            if not isinstance(coeffs, list):
                raise UsageError(f"cyclotomic entry must be a list of coefficients, got {coeffs!r}")
            coeffs = [_json_int(c, "cyclotomic coefficient") for c in coeffs]
            if len(coeffs) > phi:
                raise UsageError(f"coefficient vector longer than {phi}")
            coeffs += [0] * (phi - len(coeffs))
            scalars.append(ExactScalar(CycInt(order, coeffs)))
        return ExactMatrix(rows, cols, scalars, order)
    if kind == "complex_float":
        for e in entries:
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in e)):
                raise UsageError(f"complex entry must be a [real, imag] pair of numbers, got {e!r}")
        try:
            data = [complex(re, im) for re, im in entries]
        except OverflowError as exc:
            raise UsageError(f"complex entry out of float range: {exc}") from exc
        import numpy as np

        return np.array(data, dtype=complex).reshape(rows, cols)
    raise UsageError(f"unknown matrix kind {kind!r}")


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    # int() would also take "0_3", padding and non-ASCII digits.
    tokens = text.replace(",", " ").split()
    if not all(re.fullmatch(r"[+-]?[0-9]+", tok) for tok in tokens):
        raise UsageError(f"expected integers, got {text!r}")
    return [int(tok) for tok in tokens]


def _rows_from_args(args) -> list[int]:
    qr = getattr(args, "rows_qr", False)  # construct alone has --rows-qr
    given = [flag for flag, on in (("--rows", args.rows is not None),
                                   ("--rows-file", args.rows_file is not None),
                                   ("--rows-qr", qr)) if on]
    if len(given) > 1:  # every source but one would be ignored
        raise UsageError("give one row source, not " + " and ".join(given))
    if qr:
        from .constructions import quadratic_residue_rows

        return list(quadratic_residue_rows(args.n))
    if args.rows_file:
        if args.rows_file.endswith(".json"):
            data = _read_json(args.rows_file)
            if not isinstance(data, list):
                raise UsageError("rows file must hold a JSON list")
            return [_json_int(x, "row") for x in data]
        with open(args.rows_file, "r", encoding="utf-8") as fh:
            return _parse_int_list(fh.read())
    if args.rows is not None:
        return _parse_int_list(args.rows)
    raise UsageError("need --rows or --rows-file")


def _index_set(order: int, args) -> dft_analysis.IndexSet:
    return dft_analysis.IndexSet.from_iterable(_order(order), _rows_from_args(args))


def _load_matrix(args):
    return matrix_from_json(_read_json(args.matrix))


# construct kind -> (options it needs, other options it reads, builder of
# (constructions module, args)); each kind is also a flag, and --exact goes
# with every kind.
_ROW_SOURCES = ("rows", "rows_file", "rows_qr")
FRAMES = {
    "vandermonde": (
        ("bases", "m"), (), lambda c, a: c.vandermonde(_parse_int_list(a.bases), a.m)
    ),
    "harmonic": (
        ("n",), (*_ROW_SOURCES, "normalize"),
        lambda c, a: c.harmonic(_order(a.n), _rows_from_args(a), normalize=a.normalize),
    ),
    "harmonic-identity": (
        ("n", "k"), _ROW_SOURCES,
        lambda c, a: c.harmonic_identity(_order(a.n), _rows_from_args(a), a.k),
    ),
    "optimal": (
        ("n", "m"), ("normalize",),
        lambda c, a: c.optimal_vandermonde(_order(a.n), a.m, normalize=a.normalize),
    ),
    "parseval": (
        ("matrix",), (), lambda c, a: c.parseval_projection(_load_matrix(a))
    ),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_construct(args):
    kinds = [kind for kind in FRAMES if getattr(args, kind.replace("-", "_"))]
    if len(kinds) != 1:
        raise UsageError("pick exactly one of " + " ".join(f"--{kind}" for kind in FRAMES))
    needs, reads, build = FRAMES[kinds[0]]
    if any(getattr(args, name) is None for name in needs):
        raise UsageError(f"--{kinds[0]} needs " + " and ".join(map(_flag, needs)))
    # An option the kind does not read would be ignored; None and False
    # are the defaults of the value options and of the flags.
    known = {"command", "exact", *needs, *reads, *(kind.replace("-", "_") for kind in FRAMES)}
    unread = [name for name, value in vars(args).items()
              if name not in known and value is not None and value is not False]
    if unread:
        raise UsageError(f"--{kinds[0]} does not read " + " and ".join(map(_flag, unread)))
    from . import constructions

    frame = build(constructions, args)
    if args.exact:
        if frame.exact_shadow is None:
            raise UsageError("this construction has no exact shadow")
        frame = frame.exact_shadow
    return matrix_to_json(frame), 0


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
    orbit = dft_analysis.closure_orbit(index_set, cap=args.cap, max_entries=MAX_ORBIT_ENTRIES)
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = compressed_spark_probe(
            target, args.k, trials=args.trials, rng_seed=args.seed, p_cap=args.p_cap,
            allow_cap=not args.no_cap, budget=args.budget,
        )
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    doc = dict(result.as_dict(), witness=None, corroborated=False)
    if not result.exceeds_k and args.corroborate:
        cert = spark(target, budget=args.budget)
        if cert.spark <= args.k:
            doc.update(witness=list(cert.witness) if cert.witness else None,
                       spark=cert.spark, corroborated=True)
    return doc, 0 if result.exceeds_k else 1


def _count(text: str) -> int:
    """An option's non-negative integer; argparse names the option in the error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# Options shared by several subcommands, as (flag, add_argument keywords).
_FLAG = {"action": "store_true"}
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_ROWS = [("--rows", {"help": "comma separated residues, e.g. 0,1,4"}),
         ("--rows-file", {"help": "file of residues (JSON list or separated)"})]
_MATRIX_OR_DFT = [("--matrix", {"help": "matrix file (- for stdin)"}),
                  ("--dft", {"type": int, "help": "build DFT rows of this order instead"}),
                  ("--cols", {"help": "column restriction for --dft"})]
_TRIALS_SEED = [("--trials", {"type": int, "default": 10}), ("--seed", {"type": int, "default": 0})]
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
        ("--tol", {"type": float, "default": 1e-10, "help": "numeric rank threshold"}),
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
        ("--delta", {"type": float, "required": True}), *_ROWS,
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
