"""The one reader behind every input document.

Unit tests of the reader's rules, then a seeded mutation test: each
fixture document the command line reads (an LP, a solution, the four
certify families, both configs and the three panel CSVs) is broken in
one place at a time, and every broken run must exit 2 with one
``error:`` line that names the broken path, and write no output.
"""

import copy
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from postfeas import _reader as rd
from postfeas.cli import main
from postfeas.errors import DomainError

DATA = Path(__file__).parent / "data" / "panel_simple"


class TestRules:
    @pytest.mark.parametrize("value", [1, -2.5, 0.0, 10**300, np.float64(3.0),
                                       np.int64(4)])
    def test_numbers(self, value):
        assert rd.number(value, "v") == value

    @pytest.mark.parametrize("value, shown", [
        (True, "true"), ("1", '"1"'), (None, "null"), (math.nan, "NaN"),
        (math.inf, "Infinity"), (-math.inf, "-Infinity"), (10**400, "1" + "0" * 400),
        ([1.0], "a list of 1"), ({"a": 1}, "an object"),
    ])
    def test_not_numbers(self, value, shown):
        with pytest.raises(DomainError) as raised:
            rd.number(value, "doc.v")
        assert str(raised.value) == f"doc.v: expected a finite number, got {shown}"

    @pytest.mark.parametrize("value", [2.0, 2.5, True, np.float64(2.0)])
    def test_integers(self, value):
        with pytest.raises(DomainError, match="doc.n: expected an integer"):
            rd.number(value, "doc.n", integer=True)
        assert rd.number(np.int64(2), "doc.n", integer=True) == 2

    def test_is_number_is_the_one_rule(self):
        assert [rd.is_number(v) for v in (1, 1.5, np.float32(1), True, "1", None)] \
            == [True, True, True, False, False, False]
        assert rd.numbers_only([[1, 2.0], np.ones(2)])
        assert not rd.numbers_only([[1, True]])
        assert not rd.numbers_only(np.array(["1"]))

    def test_object_keys(self):
        assert rd.obj({"a": 1}, "doc", ("a",), ("b",)) == {"a": 1}
        with pytest.raises(DomainError, match=r"^doc\.b: missing required key$"):
            rd.obj({"a": 1}, "doc", ("a", "b"))
        with pytest.raises(DomainError, match=r"^doc\.c: unknown key; "
                                              r"expected one of \['a', 'b'\]$"):
            rd.obj({"a": 1, "c": 2}, "doc", ("a",), ("b",))
        with pytest.raises(DomainError,
                           match=r"^doc: expected an object, got a list of 0$"):
            rd.obj([], "doc", ())

    def test_one_of_takes_any_value(self):
        assert rd.one_of("=", "s", ("<=", "=")) == "="
        for value in (["="], {}, 1, None):
            with pytest.raises(DomainError, match=r"^s: expected one of \['<=', '='\]"):
                rd.one_of(value, "s", ("<=", "="))

    def test_array_shapes(self):
        arr = rd.array([[1, 2], [3, 4.5]], "m", (None, 2))
        assert arr.dtype == float and arr.tolist() == [[1.0, 2.0], [3.0, 4.5]]
        for value, shape, message in (
                ([], (None,), "m: expected a non-empty list, got a list of 0"),
                ([[1.0], [1.0, 2.0]], (None, None), "m[1]: expected a list of 1, got "
                                                    "a list of 2"),
                ([1.0, 2.0], (3,), "m: expected a list of 3, got a list of 2"),
                ([[1.0], 2.0], (None, None), "m[1]: expected a list of 1, got 2.0"),
                ([[[1.0]]], (None, None), "m[0][0]: expected a finite number, got "
                                          "a list of 1"),
                ([[1.0, True]], (None, None), "m[0][1]: expected a finite number, "
                                              "got true")):
            with pytest.raises(DomainError) as raised:
                rd.array(value, "m", shape)
            assert str(raised.value) == message

    @pytest.mark.parametrize("text, integer", [
        ("ten", True), ("1.5", True), ("nan", True), ("", False), ("nan", False),
        ("inf", False), ("1e400", False), ("true", False), ("[1.0]", False),
        # int() and float() read these; JSON's number grammar does not
        ("1_000", False), ("1_0", True), ("+1", True), (".5", False),
        ("5.", False), ("01", True),
    ])
    def test_csv_cells(self, text, integer):
        with pytest.raises(DomainError,
                           match=r"^f\.csv: x: expected (an integer|a finite number)"):
            rd.cell(text, "f.csv: x", integer)

    def test_csv_cell_values(self):
        assert rd.cell(" 12 ", "c", integer=True) == 12
        assert rd.cell("2.5", "c") == 2.5
        assert rd.cell("-0.5e-3", "c") == -0.0005
        assert rd.cell("1E+2", "c") == 100.0

    def test_invalid_json_names_the_document(self):
        with pytest.raises(DomainError, match=r"^problem: not valid JSON"):
            rd.load("{nope", "problem")


# ---------------------------------------------------------------------------
# Seeded mutation test
# ---------------------------------------------------------------------------

SOLUTION = {"status": "Optimal", "x": [1.0, 2.0], "objective_value": 3.0,
            "iterations": 4}
MODEL_T = {"family": "rhs_student_t", "rows": [[1.0, 1.0], [0.5, 1.5]],
           "predictive": [{"dof": 5.0, "loc": 4.5, "scale": 0.5},
                          {"dof": 7, "loc": 4.0, "scale": 1.0}]}

# name: (document, command, root path, arrays whose length another field
# fixes, number leaves where null is a valid value)
DOCUMENTS = {
    "problem": (
        {"maximize": [3.0, 2.0],
         "constraints": [{"row": [1.0, 1.0], "sense": "<=", "rhs": 4.0},
                         {"row": [1.0, -1.0], "sense": ">=", "rhs": -2.0}],
         "bounds": [[0.0, None], [-1.0, 3.0]]},
        "solve", "problem",
        {"problem.constraints[0].row", "problem.constraints[1].row",
         "problem.bounds", "problem.bounds[0]", "problem.bounds[1]"},
        {"problem.bounds[0][0]", "problem.bounds[1][0]", "problem.bounds[1][1]"}),
    "solution": (SOLUTION, "certify-solution", "solution", set(),
                 {"solution.objective_value"}),
    "replay": ({"family": "replay", "violations": 12}, "certify-model", "model",
               set(), set()),
    "rhs_student_t": (MODEL_T, "certify-model", "model",
                      {"model.rows", "model.rows[0]", "model.rows[1]"}, set()),
    "gaussian_rows": (
        {"family": "gaussian_rows",
         "blocks": [{"center": [1.0, 1.0, 4.5],
                     "cov": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.25]]}]},
        "certify-model", "model",
        {"model.blocks[0].center", "model.blocks[0].cov", "model.blocks[0].cov[0]",
         "model.blocks[0].cov[2]"}, set()),
    "beta_coverage": (
        {"family": "beta_coverage", "a": [[2.0, 3.0], [4.0, 1.5]],
         "b": [[2.0, 2.0], [1.0, 3.0]], "threshold": 0.9},
        "certify-model", "model",
        {"model.a[0]", "model.a[1]", "model.b", "model.b[1]"}, set()),
    "SimConfig": (
        {"n": 8, "m": 3, "d_ctx": 3, "n_obs": 40, "n_scen": 60, "m_cert": 400,
         "trials_per_alpha": 1, "alphas": [0.05, 0.1], "x_max": 50.0,
         "master_seed": 7, "a_range": [0.5, 1.5], "sigma_range": [3.0, 9.0]},
        "sim", "SimConfig", {"SimConfig.a_range", "SimConfig.sigma_range"}, set()),
    "PanelConfig": (
        {"budget": 3, "threshold": 1.5, "n_scen": 50, "m_cert": 200, "beta": 0.05},
        "panel", "PanelConfig", set(), set()),
}
CONFIGS = {"SimConfig", "PanelConfig"}  # every key optional
OTHER_FAMILY_KEYS = ("violations", "rows", "blocks", "threshold")
BIG = "__1e400__"  # stands for the JSON literal 1e400, which json reads as inf
REPEAT = "__repeat__"  # a key so prefixed is written as the key it repeats


def _at(doc, loc):
    for key in loc:
        doc = doc[key]
    return doc


def _changed(doc, loc, change):
    """A deep copy of doc with change(parent, key) applied at loc."""
    out = copy.deepcopy(doc)
    change(_at(out, loc[:-1]), loc[-1])
    return out


def _set(value):
    def change(parent, key):
        parent[key] = value
    return change


def json_mutations(name, rng):
    """(label, text, path the error must start with) of every single
    mutation of the named fixture document."""
    doc, _, root, fixed, nullable = DOCUMENTS[name]
    out = []

    def walk(value, path, loc):
        if isinstance(value, dict):
            extra = "zz_" + "".join(rng.choice("abcdefgh") for _ in range(5))
            out.append(("unknown key", _changed(doc, loc + [extra], _set(1.0)),
                        f"{path}.{extra}"))
            if path == "model":
                for key in OTHER_FAMILY_KEYS:
                    if key not in value:
                        out.append((f"other family's {key}",
                                    _changed(doc, loc + [key], _set(1.0)),
                                    f"{path}.{key}"))
            for key, item in value.items():
                out.append((f"repeat {key}", _changed(doc, loc + [REPEAT + key],
                                                      _set(copy.deepcopy(item))),
                            f'{root}: repeated key "{key}"'))
                if name not in CONFIGS:
                    out.append((f"drop {key}", _changed(doc, loc + [key],
                                                        lambda p, k: p.pop(k)),
                                f"{path}.{key}"))
                walk(item, f"{path}.{key}", loc + [key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]", loc + [i])
            if path in fixed:
                out.append(("shorten", _changed(doc, loc, lambda p, k: p[k].pop()),
                            path))
                longer = (rng.uniform(0.5, 2.0) if not isinstance(value[-1], list)
                          else copy.deepcopy(value[-1]))
                out.append(("lengthen", _changed(doc, loc,
                                                 lambda p, k: p[k].append(longer)),
                            path))
        elif rd.is_number(value):
            bad = [True, False, "1", str(value), math.nan, BIG]
            if path not in nullable:
                bad.append(None)
            for v in bad:
                out.append((f"number as {v!r}", _changed(doc, loc, _set(v)), path))
        if loc:
            out.append(("wrap", _changed(doc, loc, _set([value])), path))

    walk(doc, root, [])
    return [(label, json.dumps(d).replace(f'"{BIG}"', "1e400")
             .replace(f'"{REPEAT}', '"'), path)
            for label, d, path in out]


CSV_FILES = {"weights": "weights.csv", "clusters": "clusters.csv",
             "detections": "detections.csv"}


def csv_mutations(name, rng):
    """(label, text, what the error must name) of single mutations of one
    panel CSV: a column dropped or added, a number cell swapped for a
    non-number or wrapped in a list, a row shortened or lengthened."""
    lines = (DATA / CSV_FILES[name]).read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    out = []

    def text(head, body):
        return "\n".join(",".join(r) for r in [head, *body]) + "\n"

    for j, column in enumerate(header):
        dropped = text(header[:j] + header[j + 1:], [r[:j] + r[j + 1:] for r in rows])
        out.append((f"drop {column}", dropped, "header"))
    out.append(("unknown column", text(header + ["zz"], [r + ["1"] for r in rows]),
                "header"))
    i = rng.randrange(len(rows))
    row_id = {"weights": f"gene {rows[i][0]!r}", "clusters": f"cluster {rows[i][0]!r}",
              "detections": f"({rows[i][0]}, {rows[i][1]})"}[name]
    number = header[-1]
    for bad in ("true", "abc", "", "nan", "1e400", "null", f"[{rows[i][-1]}]",
                "1_0", "+1"):
        body = copy.deepcopy(rows)
        body[i][-1] = bad
        out.append((f"{number} as {bad!r}", text(header, body), f"{row_id} {number}"))
    for label, row in (("shorten", rows[i][:-1]), ("lengthen", rows[i] + ["7"])):
        body = copy.deepcopy(rows)
        body[i] = row
        out.append((f"{label} a row", text(header, body), "fields"))
    return out


def _run(tmp_path, command, document_text):
    """Run command with the broken document; the other inputs are valid."""
    doc = tmp_path / "doc"
    doc.write_text(document_text, encoding="utf-8")
    sol, model = tmp_path / "sol.json", tmp_path / "model.json"
    sol.write_text(json.dumps(SOLUTION), encoding="utf-8")
    model.write_text(json.dumps(MODEL_T), encoding="utf-8")
    out = tmp_path / "out"
    panel = {name: str(DATA / filename) for name, filename in CSV_FILES.items()}
    if command.startswith("panel-"):
        panel[command[len("panel-"):]] = str(doc)
    argv = {
        "solve": ["solve", str(doc), "--out", str(out / "s.json")],
        "certify-solution": ["certify", "--solution", str(doc), "--model", str(model),
                             "--M", "64", "--out", str(out / "c.json")],
        "certify-model": ["certify", "--solution", str(sol), "--model", str(doc),
                          "--M", "64", "--out", str(out / "c.json")],
        "sim": ["sim", "--config", str(doc), "--out", str(out)],
    }.get(command, ["panel", "--detections", panel["detections"],
                    "--clusters", panel["clusters"], "--weights", panel["weights"],
                    "--out", str(out)] + (["--config", str(doc)]
                                          if command == "panel" else []))
    return main(argv), out


def _check(tmp_path, capsys, command, label, text, *named):
    rc, out = _run(tmp_path, command, text)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2, (label, text)
    assert len(err) == 1 and err[0].startswith("error: "), (label, err)
    assert all(part in err[0] for part in named), (label, err[0])
    assert not out.exists(), label


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_json_mutation_exits_2_naming_its_path(tmp_path, capsys, name):
    rng = random.Random(f"json-{name}")
    mutations = json_mutations(name, rng)
    assert len(mutations) >= 10
    command = DOCUMENTS[name][1]
    for label, text, path in mutations:
        _check(tmp_path, capsys, command, label, text, f"error: {path}")
    # the fixture itself is valid
    rc, out = _run(tmp_path, command, json.dumps(DOCUMENTS[name][0]))
    assert rc == 0 and out.exists()


@pytest.mark.parametrize("name", sorted(CSV_FILES))
def test_every_csv_mutation_exits_2_naming_its_file(tmp_path, capsys, name):
    rng = random.Random(f"csv-{name}")
    for label, text, named in csv_mutations(name, rng):
        _check(tmp_path, capsys, f"panel-{name}", label, text,
               f"error: {tmp_path / 'doc'}", named)


def test_repeated_keys_exit_2(tmp_path, capsys):
    # json keeps a repeated key's last value: this document once solved
    # to objective 4.0 and exited 0
    text = ('{"maximize": [1.0, 1.0], "maximize": [2.0, 1.0], "constraints": '
            '[{"row": [1.0, 1.0], "sense": "<=", "rhs": true, "rhs": 2.0}], '
            '"bounds": [[0.0, null], [0.0, null]]}')
    rc, out = _run(tmp_path, "solve", text)
    assert rc == 2
    assert capsys.readouterr().err == 'error: problem: repeated key "rhs"\n'
    assert not out.exists()


def _edited(name, edit):
    doc = copy.deepcopy(DOCUMENTS[name][0])
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("name, edit, message", [
    ("problem", lambda d: d["constraints"][0].update(rhs=True),
     "problem.constraints[0].rhs: expected a finite number, got true"),
    ("problem", lambda d: d["constraints"][0].update(rhs="1"),
     'problem.constraints[0].rhs: expected a finite number, got "1"'),
    ("problem", lambda d: d["constraints"][0].update(row=[True, 1.0]),
     "problem.constraints[0].row[0]: expected a finite number, got true"),
    ("problem", lambda d: d["bounds"].__setitem__(0, [0.0, None, 7]),
     "problem.bounds[0]: expected a list of 2, got a list of 3"),
    ("problem", lambda d: d.update(minimize=[1.0, 1.0]),
     "problem.minimize: unknown key; expected one of "
     "['maximize', 'constraints', 'bounds']"),
    ("problem", lambda d: d["constraints"][1].update(name="c2"),
     "problem.constraints[1].name: unknown key; expected one of "
     "['row', 'sense', 'rhs']"),
    ("problem", lambda d: d.pop("maximize"), "problem.maximize: missing required key"),
    ("rhs_student_t", lambda d: d.update(note="x"),
     "model.note: unknown key; expected one of ['family', 'rows', 'predictive']"),
    ("rhs_student_t", lambda d: d["predictive"][1].update(df=3.0),
     "model.predictive[1].df: unknown key; expected one of ['dof', 'loc', 'scale']"),
    ("gaussian_rows", lambda d: d["blocks"][0].update(mean=[1.0]),
     "model.blocks[0].mean: unknown key; expected one of ['center', 'cov']"),
    ("replay", lambda d: d.update(family=["replay"]),
     "model.family: expected one of ['replay', 'rhs_student_t', 'gaussian_rows', "
     "'beta_coverage'], got a list of 1"),
    ("replay", lambda d: d.update(family={}),
     "model.family: expected one of ['replay', 'rhs_student_t', 'gaussian_rows', "
     "'beta_coverage'], got an object"),
    ("solution", lambda d: d.update(x=[True]),
     "solution.x[0]: expected a finite number, got true"),
    ("solution", lambda d: d.update(x=["1"]),
     'solution.x[0]: expected a finite number, got "1"'),
    ("solution", lambda d: d.update(iterations="7"),
     'solution.iterations: expected an integer, got "7"'),
    ("solution", lambda d: d.update(duals=[0.0]),
     "solution.duals: unknown key; expected one of "
     "['status', 'x', 'objective_value', 'iterations']"),
])
def test_inputs_once_misread_exit_2(tmp_path, capsys, name, edit, message):
    rc, out = _run(tmp_path, DOCUMENTS[name][1], _edited(name, edit))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
