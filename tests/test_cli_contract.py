"""The CLI contract on malformed input files, property-tested.

Every matrix, graph or rows file below is malformed by construction: one
field of a valid document is deleted or replaced by a value that cannot
be read as that field, or one entry is.  Each must give exit 2, nothing on
stdout and one ``error:`` line on stderr; an exception escaping cli.run
would be a traceback.  So must an exact matrix with an entry beyond float
range wherever a command needs it as floats, while the exact commands
still read it, a matrix that is not a frame given to ``construct
--parseval``, and a document holding a float that is NaN or infinite:
every document printed is strict JSON.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from sparkforge import cli

from test_cli_golden import GOLDEN
from test_float_range import BIG_FILE, FRAME_1E200_FILE

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def _plain_int(value) -> bool:
    return type(value) is int


def _run_on(text: str, argv: list[str], suffix: str = ".json") -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([arg.replace("{path}", str(path)) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_usage_error(text: str, argv: list[str], suffix: str = ".json") -> None:
    code, out, err = _run_on(text, argv, suffix)
    assert (code, out) == (2, ""), (text, code, out, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (text, err)


# Valid documents, and for each field a test that a value is still readable
# there; a corruption draws only values that fail it.
MATRICES = [
    {"schema_version": 1, "kind": "integer", "rows": 2, "cols": 2, "entries": [1, 2, 3, 4]},
    {"schema_version": 1, "kind": "cyclotomic", "order": 5, "rows": 1, "cols": 2,
     "entries": [[1], [0, 1]]},
    {"schema_version": 1, "kind": "complex_float", "rows": 1, "cols": 2,
     "entries": [[1, 0], [0.5, 2]]},
]
ENTRY_OK = {
    "integer": _plain_int,
    "cyclotomic": lambda e: isinstance(e, list) and len(e) <= 4 and all(map(_plain_int, e)),
    "complex_float": lambda e: isinstance(e, list) and len(e) == 2
    and all(type(x) in (int, float) for x in e),
}


@st.composite
def malformed_matrices(draw):
    doc = dict(draw(st.sampled_from(MATRICES)))
    kind, size = doc["kind"], len(doc["entries"])
    how = draw(st.sampled_from(["drop", "field", "entry", "not an object"]))
    if how == "not an object":
        return draw(JUNK.filter(lambda v: not isinstance(v, dict)))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(set(doc) - {"schema_version"})))]
    elif how == "field":
        key = draw(st.sampled_from(sorted(doc)))
        ok = {
            "schema_version": lambda v: v == 1,
            "kind": lambda v: v == kind,
            "rows": lambda v: v == doc["rows"],
            "cols": lambda v: v == doc["cols"],
            # Another order up to the bound can still read these entries.
            "order": lambda v: _plain_int(v) and 1 <= v <= cli.MAX_ORDER,
            # Any list of the right length of readable entries.
            "entries": lambda v: isinstance(v, list) and len(v) == size
            and all(map(ENTRY_OK[kind], v)),
        }[key]
        other_kinds = st.sampled_from(sorted(ENTRY_OK)) if key == "kind" else st.nothing()
        doc[key] = draw((JUNK | other_kinds).filter(lambda v: not ok(v)))
    else:
        entries = list(doc["entries"])
        bad = draw(JUNK.filter(lambda e: not ENTRY_OK[kind](e)))
        entries[draw(st.integers(0, len(entries) - 1))] = bad
        doc["entries"] = entries
    return doc


BIPARTITE = {"ground": 2, "right": 1, "adj": [[0], [0]]}
SIMPLE = {"vertices": 3, "edges": [[0, 1], [1, 2]]}
GRAPH_OK = {
    "ground": lambda v: v == 2,
    "right": lambda v: _plain_int(v) and v >= 1,
    "adj": lambda v: isinstance(v, list) and len(v) == 2
    and all(isinstance(n, list) and all(x == 0 and _plain_int(x) for x in n) for n in v),
    "vertices": lambda v: _plain_int(v) and v >= 3,
    "edges": lambda v: isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 2 and all(_plain_int(x) and 0 <= x < 3 for x in e)
        and e[0] != e[1] for e in v),
}


@st.composite
def malformed_graphs(draw, base):
    doc = dict(base)
    how = draw(st.sampled_from(["drop", "field", "not an object"]))
    if how == "not an object":
        return draw(JUNK.filter(lambda v: not isinstance(v, dict)))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[key]
    else:
        doc[key] = draw(JUNK.filter(lambda v: not GRAPH_OK[key](v)))
    return doc


def _rows_ok(v):
    return isinstance(v, list) and len(v) > 0 \
        and all(_plain_int(x) and 0 <= x < 7 for x in v) and len(set(v)) == len(v)


@SETTINGS
@hypothesis.given(
    doc=malformed_matrices(), command=st.sampled_from(["spark", "full-spark", "coherence"])
)
def test_malformed_matrix_files_exit_two(doc, command):
    _assert_usage_error(json.dumps(doc), [command, "--matrix", "{path}"])


@SETTINGS
@hypothesis.given(data=st.data())
def test_malformed_graph_files_exit_two(data):
    argv, base = data.draw(st.sampled_from([
        (["matroid-girth", "--graph", "{path}"], BIPARTITE),
        (["clique-gadget", "--graph", "{path}", "--k", "4"], SIMPLE),
    ]))
    _assert_usage_error(json.dumps(data.draw(malformed_graphs(base))), argv)


# A rows text that opens with [ is read as JSON, so "[0" is the bracketed
# token: malformed JSON first, and a malformed integer after another token.
BAD_TOKENS = st.sampled_from(["a", "1.5", "[0", "true", "--", "0x1", "1e3", "{}", "None"])


@SETTINGS
@hypothesis.given(
    # Any other text is separated integers: a bare JSON integer is one row.
    doc=JUNK.filter(lambda v: not _rows_ok(v if isinstance(v, list) else [v])),
    tokens=st.lists(st.integers(0, 6).map(str) | BAD_TOKENS, max_size=4),
    bad=BAD_TOKENS,
    separator=st.sampled_from([" ", ",", "\n"]),
)
def test_malformed_rows_files_exit_two(doc, tokens, bad, separator):
    argv = ["dft-analyze", "--n", "7", "--rows-file", "{path}"]
    _assert_usage_error(json.dumps(doc), argv)
    _assert_usage_error(separator.join(tokens + [bad]), argv, suffix=".txt")


BIG = 10**400
BIG_MATRICES = [
    {"schema_version": 1, "kind": "integer", "rows": 1, "cols": 2, "entries": [1, BIG]},
    {"schema_version": 1, "kind": "cyclotomic", "order": 5, "rows": 1, "cols": 2,
     "entries": [[1], [0, BIG]]},
]


@pytest.mark.parametrize("doc", BIG_MATRICES, ids=["integer", "cyclotomic"])
def test_exact_entries_beyond_float_range(doc):
    text = json.dumps(doc)
    _assert_usage_error(text, ["coherence", "--matrix", "{path}"])
    _assert_usage_error(text, ["construct", "--parseval", "--matrix", "{path}"])
    for command in ("spark", "full-spark"):
        assert _run_on(text, [command, "--matrix", "{path}"])[0] == 0


@pytest.mark.parametrize("extra", [[], ["--exact"]])
def test_vandermonde_base_beyond_float_range(extra):
    _assert_usage_error("", ["construct", "--vandermonde", f"--bases=1,2,{BIG}", "--m", "2"] + extra)


def _complex_file(rows, cols):
    entries = [[1, 0] if i % (cols + 1) == 0 else [0.5, -1] for i in range(rows * cols)]
    return {"schema_version": 1, "kind": "complex_float", "rows": rows, "cols": cols,
            "entries": entries}


# Not frames: no rows or no columns, or more rows than columns, whose frame
# operator is singular and has no inverse square root.
NOT_FRAMES = [
    (_complex_file(0, 0), "ShapeError"),
    (_complex_file(0, 3), "ShapeError"),
    (_complex_file(2, 0), "ShapeError"),
    (_complex_file(2, 1), "RankDeficient"),
    ({"schema_version": 1, "kind": "integer", "rows": 3, "cols": 2,
      "entries": [1, 0, 0, 1, 1, 1]}, "RankDeficient"),
]


@pytest.mark.parametrize("doc, error", NOT_FRAMES, ids=["0x0", "0x3", "2x0", "2x1", "int3x2"])
def test_parseval_refuses_what_is_not_a_frame(doc, error):
    argv = ["construct", "--parseval", "--matrix", "{path}"]
    _assert_usage_error(json.dumps(doc), argv)
    assert _run_on(json.dumps(doc), argv)[2].startswith(f"error: {error}: ")


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _strict(text: str):
    return json.loads(text, parse_constant=_refuse_constant)


def test_documents_are_strict_json():
    goldens = sorted(GOLDEN.glob("*.stdout"))
    assert goldens
    for path in goldens:
        _strict(path.read_text(encoding="utf-8"))
    runs = [(json.dumps(doc), [command, "--matrix", "{path}"])
            for doc in BIG_MATRICES for command in ("spark", "full-spark")]
    runs.append((json.dumps(_complex_file(2, 3)), ["construct", "--parseval", "--matrix", "{path}"]))
    runs.append((json.dumps(_complex_file(2, 3)), ["coherence", "--matrix", "{path}"]))
    runs += [(json.dumps(BIG_FILE), [command, "--matrix", "{path}"]) for command in ("coherence", "spark")]
    runs.append((json.dumps(FRAME_1E200_FILE), ["construct", "--parseval", "--matrix", "{path}"]))
    for text, argv in runs:
        code, out, err = _run_on(text, argv)
        assert code == 0 and err == "", (argv, err)
        _strict(out)
    with pytest.raises(ValueError):
        _strict('{"mu": NaN}')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_in_a_document_exits_two(value, monkeypatch):
    options = cli.COMMANDS["orbit"][2]
    monkeypatch.setitem(cli.COMMANDS, "orbit", ("", lambda args: ({"x": [value]}, 0), options))
    _assert_usage_error("", ["orbit", "--n", "5", "--rows", "0,1"])
