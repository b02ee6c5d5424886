"""Command line interface: constructions in, JSON certificates out.

Exit codes: 0 when the property holds or a value was computed, 1 when the
property was refuted (the certificate carries the witness), 2 on usage or
input errors, 3 when a subset budget or cap was exceeded.  Certificates go
to stdout as a single JSON document; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import constructions, dft_analysis, matroid
from .errors import BudgetExceeded, CapExceeded, SparkforgeError
from .exact_arith import ExactScalar, euler_phi, CycInt
from .exact_linalg import ExactMatrix, dft_submatrix
from .spark_engine import (
    DEFAULT_BUDGET,
    compressed_spark_probe,
    is_full_spark,
    numeric_spark_probe,
    spark,
)

SCHEMA_VERSION = 1

BUDGET_ENV = "SPARKFORGE_BUDGET"


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc


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
    arr = np.asarray(getattr(obj, "matrix", obj), dtype=complex)
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
        order = _json_int(doc["order"], "order") if kind == "cyclotomic" else 1
    except KeyError as exc:
        raise UsageError(f"matrix file missing field {exc}") from exc
    if not isinstance(entries, list):
        raise UsageError(f"entries must be a JSON list, got {entries!r}")
    if order < 1:
        raise UsageError("order must be positive")
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
        data = [complex(re, im) for re, im in entries]
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
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"expected integers, got {text!r}") from exc


def _rows_from_args(args) -> list[int]:
    if getattr(args, "rows_file", None):
        path = args.rows_file
        if path.endswith(".json"):
            data = _read_json(path)
            if not isinstance(data, list):
                raise UsageError("rows file must hold a JSON list")
            return [_json_int(x, "row") for x in data]
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_int_list(fh.read())
    if getattr(args, "rows", None) is not None:
        return _parse_int_list(args.rows)
    raise UsageError("need --rows or --rows-file")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _load_matrix_arg(args):
    return matrix_from_json(_read_json(args.matrix))


def _cmd_construct(args) -> int:
    kinds = [
        name
        for name, flag in (
            ("vandermonde", args.vandermonde),
            ("harmonic", args.harmonic),
            ("harmonic_identity", args.harmonic_identity),
            ("optimal", args.optimal),
            ("parseval", args.parseval),
        )
        if flag
    ]
    if len(kinds) != 1:
        raise UsageError(
            "pick exactly one of --vandermonde --harmonic --harmonic-identity "
            "--optimal --parseval"
        )
    kind = kinds[0]
    if kind == "vandermonde":
        if args.bases is None or args.m is None:
            raise UsageError("--vandermonde needs --bases and --m")
        frame = constructions.vandermonde(_parse_int_list(args.bases), args.m)
    elif kind == "harmonic":
        if args.n is None:
            raise UsageError("--harmonic needs --n")
        frame = constructions.harmonic(
            args.n, _construct_rows(args), normalize=args.normalize
        )
    elif kind == "harmonic_identity":
        if args.n is None or args.k is None:
            raise UsageError("--harmonic-identity needs --n and --k")
        frame = constructions.harmonic_identity(args.n, _construct_rows(args), args.k)
    elif kind == "optimal":
        if args.n is None or args.m is None:
            raise UsageError("--optimal needs --n and --m")
        frame = constructions.optimal_vandermonde(args.n, args.m, normalize=args.normalize)
    else:
        if args.matrix is None:
            raise UsageError("--parseval needs --matrix (path or - for stdin)")
        loaded = _load_matrix_arg(args)
        if isinstance(loaded, ExactMatrix):
            loaded = np.array(loaded.to_complex_rows(), dtype=complex)
        frame = constructions.parseval_projection(loaded)

    if args.exact:
        if frame.exact_shadow is None:
            raise UsageError("this construction has no exact shadow")
        _emit(matrix_to_json(frame.exact_shadow))
    else:
        _emit(matrix_to_json(frame))
    return 0


def _construct_rows(args) -> list[int]:
    if args.rows_qr:
        if args.n is None:
            raise UsageError("--rows-qr needs --n")
        return list(constructions.quadratic_residue_rows(args.n))
    return _rows_from_args(args)


def _matrix_for_spark(args):
    if args.dft is not None:
        rows = _rows_from_args(args)
        dft_analysis.IndexSet.from_iterable(args.dft, rows)  # rejects repeated rows
        cols = _parse_int_list(args.cols) if args.cols else None
        return dft_submatrix(args.dft, rows, cols)
    if args.matrix is None:
        raise UsageError("need --matrix (path or - for stdin) or --dft")
    return _load_matrix_arg(args)


def _cmd_spark(args) -> int:
    target = _matrix_for_spark(args)
    if isinstance(target, ExactMatrix):
        cert = spark(target, budget=args.budget)
    else:
        cert = numeric_spark_probe(target, tol=args.tol, budget=args.budget)
    doc = {"schema_version": SCHEMA_VERSION, "command": "spark"}
    doc.update(cert.as_dict())
    _emit(doc)
    return 0


def _cmd_full_spark(args) -> int:
    target = _matrix_for_spark(args)
    if not isinstance(target, ExactMatrix):
        raise UsageError(
            "full-spark certifies exact matrices only; use spark --tol for floats"
        )
    cert = is_full_spark(target, budget=args.budget, threads=args.threads)
    doc = {"schema_version": SCHEMA_VERSION, "command": "full-spark"}
    doc.update(cert.as_dict())
    _emit(doc)
    return 0 if cert.full_spark else 1


def _cmd_dft_analyze(args) -> int:
    index_set = dft_analysis.IndexSet.from_iterable(args.n, _rows_from_args(args))
    result = dft_analysis.is_uniformly_distributed(index_set)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "dft-analyze",
        "n": args.n,
        "rows": list(index_set),
        "uniform": result.uniform,
        "violations": [
            {
                "divisor": rep.divisor,
                "coset_counts": list(rep.coset_counts),
                "lo": rep.lo,
                "hi": rep.hi,
            }
            for rep in result.violations
        ],
    }
    try:
        verdict = dft_analysis.full_spark_prime_power(index_set)
        doc["prime_power"] = True
        doc["full_spark"] = verdict.full_spark
    except SparkforgeError:
        doc["prime_power"] = False
        doc["full_spark"] = None
    _emit(doc)
    return 0 if result.uniform else 1


def _cmd_orbit(args) -> int:
    index_set = dft_analysis.IndexSet.from_iterable(args.n, _rows_from_args(args))
    orbit = dft_analysis.closure_orbit(index_set, cap=args.cap)
    members = sorted(list(s) for s in orbit)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "orbit",
            "n": args.n,
            "seed_rows": list(index_set),
            "size": len(members),
            "orbit": members,
        }
    )
    return 0


def _cmd_rip_check(args) -> int:
    index_set = dft_analysis.IndexSet.from_iterable(args.n, _rows_from_args(args))
    result = dft_analysis.rip_necessary_check(index_set, args.k, args.delta)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "rip-check",
            "n": args.n,
            "rows": list(index_set),
            "k": args.k,
            "delta": args.delta,
            "pass": result.passes,
            "violations": [list(v) for v in result.violations],
        }
    )
    return 0 if result.passes else 1


def _cmd_coherence(args) -> int:
    loaded = _load_matrix_arg(args)
    if isinstance(loaded, ExactMatrix):
        loaded = np.array(loaded.to_complex_rows(), dtype=complex)
    result = constructions.coherence(loaded)
    m, n = loaded.shape
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "coherence",
            "rows": int(m),
            "cols": int(n),
            "mu": result.mu,
            "pair": list(result.pair),
            "welch_bound_sq": constructions.welch_bound_sq(m, n),
        }
    )
    return 0


def _cmd_matroid_girth(args) -> int:
    graph = matroid.BipartiteGraph.from_dict(_read_json(args.graph))
    if args.method == "hall":
        result = matroid.hall_girth(graph, budget=args.budget)
    else:
        result = matroid.girth_via_representation(
            graph, trials=args.trials, rng_seed=args.seed, budget=args.budget
        )
    doc = {"schema_version": SCHEMA_VERSION, "command": "matroid-girth"}
    doc.update(result.as_dict())
    _emit(doc)
    return 0


def _cmd_clique_gadget(args) -> int:
    graph = matroid.SimpleGraph.from_dict(_read_json(args.graph))
    gadget = matroid.clique_gadget(graph, args.k)
    doc = {"schema_version": SCHEMA_VERSION, "command": "clique-gadget"}
    doc.update(gadget.to_dict())
    doc["edge_order"] = [list(e) for e in graph.edges]
    doc["target_girth"] = math.comb(args.k, 2)
    if args.girth:
        doc["girth"] = matroid.hall_girth(gadget, budget=args.budget).as_dict()
    _emit(doc)
    return 0


def _cmd_probe(args) -> int:
    target = _load_matrix_arg(args)
    if not isinstance(target, ExactMatrix) or not target.is_integer():
        raise UsageError("probe needs an integer matrix file")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = compressed_spark_probe(
            target,
            args.k,
            trials=args.trials,
            rng_seed=args.seed,
            p_cap=args.p_cap,
            allow_cap=not args.no_cap,
            budget=args.budget,
        )
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    doc = {"schema_version": SCHEMA_VERSION, "command": "probe"}
    doc.update(result.as_dict())
    doc["witness"] = None
    doc["corroborated"] = False
    if not result.exceeds_k and args.corroborate:
        cert = spark(target, budget=args.budget)
        if cert.spark <= args.k:
            doc["witness"] = list(cert.witness) if cert.witness else None
            doc["spark"] = cert.spark
            doc["corroborated"] = True
    _emit(doc)
    return 0 if result.exceeds_k else 1


def _add_rows_opts(sub) -> None:
    sub.add_argument("--rows", help="comma separated residues, e.g. 0,1,4")
    sub.add_argument("--rows-file", help="file of residues (JSON list or separated)")


def _add_budget_opt(sub) -> None:
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"subset budget (default {DEFAULT_BUDGET}, or ${BUDGET_ENV})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparkforge",
        description="Exact spark certificates, frame constructions, matroid girth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a frame and print its matrix file")
    p.add_argument("--vandermonde", action="store_true")
    p.add_argument("--harmonic", action="store_true")
    p.add_argument("--harmonic-identity", action="store_true")
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--parseval", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--bases", help="comma separated integer bases")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--rows-qr", action="store_true", help="use quadratic residue rows")
    p.add_argument("--exact", action="store_true", help="emit the exact shadow")
    p.add_argument("--matrix", help="input matrix file for --parseval (- for stdin)")
    _add_rows_opts(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spark", help="spark certificate of a matrix")
    p.add_argument("--matrix", help="matrix file (- for stdin)")
    p.add_argument("--dft", type=int, help="build DFT rows of this order instead")
    p.add_argument("--cols", help="column restriction for --dft")
    p.add_argument("--tol", type=float, default=1e-10, help="numeric rank threshold")
    _add_rows_opts(p)
    _add_budget_opt(p)
    p.set_defaults(func=_cmd_spark)

    p = sub.add_parser("full-spark", help="certify every maximal minor invertible")
    p.add_argument("--matrix", help="matrix file (- for stdin)")
    p.add_argument("--dft", type=int)
    p.add_argument("--cols", help="column restriction for --dft")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; the sweep runs in one process",
    )
    _add_rows_opts(p)
    _add_budget_opt(p)
    p.set_defaults(func=_cmd_full_spark)

    p = sub.add_parser("dft-analyze", help="coset uniformity of DFT row sets")
    p.add_argument("--n", type=int, required=True)
    _add_rows_opts(p)
    p.set_defaults(func=_cmd_dft_analyze)

    p = sub.add_parser("orbit", help="closure orbit of a row set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=dft_analysis.ORBIT_CAP)
    _add_rows_opts(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("rip-check", help="coset balance necessary condition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_rows_opts(p)
    p.set_defaults(func=_cmd_rip_check)

    p = sub.add_parser("coherence", help="worst column pair correlation")
    p.add_argument("--matrix", default="-", help="matrix file (default stdin)")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("matroid-girth", help="transversal matroid girth")
    p.add_argument("--graph", default="-", help="bipartite graph JSON (default stdin)")
    p.add_argument("--method", choices=["hall", "representation"], default="hall")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_budget_opt(p)
    p.set_defaults(func=_cmd_matroid_girth)

    p = sub.add_parser("clique-gadget", help="bipartite gadget for clique detection")
    p.add_argument("--graph", default="-", help="simple graph JSON (default stdin)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--girth", action="store_true", help="also compute the gadget girth")
    _add_budget_opt(p)
    p.set_defaults(func=_cmd_clique_gadget)

    p = sub.add_parser("probe", help="randomized compressed spark probe")
    p.add_argument("--matrix", default="-", help="integer matrix file (default stdin)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-cap", type=int, default=10**6)
    p.add_argument("--no-cap", action="store_true", help="error instead of capping")
    p.add_argument(
        "--no-corroborate",
        dest="corroborate",
        action="store_false",
        help="skip the exact spark run after a negative probe",
    )
    _add_budget_opt(p)
    p.set_defaults(func=_cmd_probe)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "budget", None) is None and hasattr(args, "budget"):
        try:
            args.budget = _default_budget()
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SparkforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
