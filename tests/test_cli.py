"""File formats and the command-line surface, exercised in-process."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import tempfile
import zipfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dins import (EVAL_NEGATIVE_CATEGORIES, VOCABULARY, PipelineConfig, SamplerConfig,
                  SampleSet, build_graph, sample_batches)
from dins.cli import main
from dins.runner import average_ranks, run_experiment
from dins.sample_io import (IngestError, atomic_open, eval_lines, load_graph,
                            read_edge_csv, read_samples_jsonl,
                            read_scores_jsonl, sample_key, sample_keys, save_graph,
                            write_samples_jsonl, write_scores_jsonl)
from dins.sampling import NEG, OBSERVED, POS
from dins.synthetic import multi_month_records


def run_cli(*argv: str):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_json(*argv: str) -> dict:
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def months_csv(tmp_path):
    """Two calendar months of synthetic traffic as an edge CSV."""
    records = multi_month_records(10, 150, 2, seed=1)
    path = tmp_path / "months.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "timestamp"])
        w.writerows(records)
    return path


# -- interchange formats ------------------------------------------------------------


def test_sample_key_is_frozen():
    assert sample_key(1, 2, 3, "temporal") == "35fe651d2ff7a924"
    assert sample_key(0, 0, 0, "observed") == "46c9725a06e009bc"


def test_samples_jsonl_roundtrip(tmp_path):
    g = build_graph([("a", "b", 0), ("b", "c", 300), ("c", "a", 600)])
    sets = list(sample_batches(g, "dins", SamplerConfig(k=2, q=2, t_f=4, seed=3),
                               include_positives=True))
    path = tmp_path / "s.jsonl"
    meta = write_samples_jsonl(path, sets, with_keys=True)
    recs = read_samples_jsonl(path)
    assert len(recs) == meta["n_samples"] == sum(len(ss.samples) for ss in sets)
    assert meta["n_batches"] == len(sets)
    for rec in recs:
        assert rec["label"] in ("pos", "neg")
        assert rec["key"] == sample_key(rec["src"], rec["dst"], rec["t"],
                                        rec["category"])


def test_samples_jsonl_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"src": 0, "dst": 1, "t": 2, "label": "negative",
                       "category": "temporal", "batch": 0})
    path.write_text(good + "\n{not json\n")
    with pytest.raises(IngestError, match="line 2"):
        read_samples_jsonl(path)
    path.write_text(good + "\n" + json.dumps({"src": 0, "dst": 1}) + "\n")
    with pytest.raises(IngestError, match="line 2.*missing"):
        read_samples_jsonl(path)
    wide = good.replace('"dst": 1', f'"dst": {-2 ** 63 - 1}').replace('"t": 2', f'"t": {2 ** 64}')
    for line, message in [
        ("5", "line 2: expected a JSON object"),
        (good.replace('"src": 0', '"src": "x"'), r"line 2: fields \['src'\] must be integers"),
        (good.replace('"src": 0', f'"src": {2 ** 63}'),
         r"line 2: fields \['src'\] are outside int64"),
        (wide, r"line 2: fields \['dst', 't'\] are outside int64"),
        (good.replace('"t": 2', '"t": 2.5').replace('"batch": 0', '"batch": true'),
         r"line 2: fields \['t', 'batch'\] must be integers"),
    ]:
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(IngestError, match=message):
            read_samples_jsonl(path)
    code, _, err = run_cli("score", "--scorer", "constant", "--samples", str(path),
                           "--out", str(tmp_path / "scores.jsonl"))
    assert code == 1 and "line 2: fields ['t', 'batch']" in json.loads(err)["message"]
    # the column scorers would otherwise fail on it with a bare OverflowError
    path.write_text(good + "\n" + wide + "\n")
    code, _, err = run_cli("score", "--scorer", "constant", "--samples", str(path),
                           "--out", str(tmp_path / "scores.jsonl"))
    assert code == 1 and "line 2: fields ['dst', 't'] are outside int64" in \
        json.loads(err)["message"]
    # the int64 extremes themselves are ids like any other
    extremes = good.replace('"src": 0', f'"src": {2 ** 63 - 1}').replace(
        '"dst": 1', f'"dst": {-2 ** 63}')
    path.write_text(good + "\n" + extremes + "\n")
    assert read_samples_jsonl(path)[1]["src"] == 2 ** 63 - 1


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# int64 columns that favour the extremes, where a formatter would break first
INT64_EDGES = st.one_of(st.sampled_from([-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 63 - 1]),
                        INT64)
CODES = st.integers(0, len(VOCABULARY) - 1)


def sample_sets():
    """Sample sets over int64-extreme columns, every category code and any
    origin batch."""
    one = st.tuples(st.lists(st.tuples(INT64_EDGES, INT64_EDGES, INT64_EDGES, CODES),
                             max_size=12),
                    st.integers(0, 2 ** 31))
    return st.lists(one, max_size=4).map(lambda sets: [
        SampleSet(*(np.array([r[i] for r in rows], dtype=np.int64) for i in range(3)),
                  np.array([r[3] for r in rows], dtype=np.uint8), batch)
        for rows, batch in sets])


@given(sample_sets(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sample_lines_are_json_dumps_of_their_records(sets, keyed):
    want = []
    for ss in sets:
        for src, dst, t, label, cat in ss.rows():
            rec = {"src": src, "dst": dst, "t": t, "label": label, "category": cat,
                   "batch": ss.origin_batch}
            if keyed:
                rec["key"] = sample_key(src, dst, t, cat)
            want.append(json.dumps(rec) + "\n")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.jsonl"
        meta = write_samples_jsonl(path, sets, with_keys=keyed)
        assert path.read_text() == "".join(want)
        assert meta["n_samples"] == len(want) and meta["n_batches"] == len(sets)
        assert read_samples_jsonl(path) == [json.loads(line) for line in want]


@given(st.lists(st.tuples(INT64_EDGES, INT64_EDGES, INT64_EDGES, CODES), max_size=30))
@settings(max_examples=100, deadline=None)
def test_sample_keys_are_sample_key_row_by_row(rows):
    src, dst, t, code = (np.array([r[i] for r in rows], dtype=np.int64) for i in range(4))
    assert sample_keys(src, dst, t, code) == [
        sample_key(s, d, u, VOCABULARY[c]) for s, d, u, c in rows]
    # any vocabulary, such as the categories that a samples file names
    names = ["zeta", "caf\u00e9", "a|b"]
    code = code % len(names)
    assert sample_keys(src, dst, t, code, names) == [
        sample_key(s, d, u, names[c]) for s, d, u, c in zip(src.tolist(), dst.tolist(),
                                                           t.tolist(), code.tolist())]


@given(st.lists(st.tuples(INT64, INT64, INT64, INT64,
                          st.sampled_from((OBSERVED,) + EVAL_NEGATIVE_CATEGORIES),
                          st.sampled_from((POS, NEG))), max_size=20))
@settings(max_examples=100, deadline=None)
def test_eval_lines_are_json_dumps_of_their_records(rows):
    records = [{"src": src, "dst": dst, "t": t, "label": label, "category": cat,
                "batch": batch, "key": sample_key(src, dst, t, cat)}
               for src, dst, t, batch, cat, label in rows]
    assert eval_lines(records) == "".join(json.dumps(rec, sort_keys=True) + "\n"
                                          for rec in records)


def test_scores_jsonl_roundtrip_and_errors(tmp_path):
    path = tmp_path / "scores.jsonl"
    scores = {"aa": 0.25, "bb": 1.0, "cc": 0.0}
    write_scores_jsonl(path, scores)
    assert read_scores_jsonl(path) == scores
    path.write_text('{"key": "aa", "score": 0.5}\n{"key": "bb"}\n')
    with pytest.raises(IngestError, match="line 2"):
        read_scores_jsonl(path)


@pytest.mark.parametrize("scores, problem", [
    ({"a": math.nan, 5: 0.5}, "score of key 'a' is not finite (nan)"),
    ({"a": 0.5, "b": -math.inf}, "score of key 'b' is not finite (-inf)"),
    ({"a": 0.5, 5: 0.5}, "score key 5 is not a string"),
])
def test_scores_writer_rejects_what_its_reader_would(tmp_path, scores, problem):
    # it wrote these, and read_scores_jsonl then refused its own file
    with pytest.raises(ValueError, match=re.escape(problem)):
        write_scores_jsonl(tmp_path / "scores.jsonl", scores)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_scores_jsonl_rejects_non_finite_scores(tmp_path, bad):
    # a NaN ranks as its own group: one NaN positive against one NaN
    # negative would read AUC 0.0, not 0.5
    path = tmp_path / "scores.jsonl"
    path.write_text('{"key": "aa", "score": 0.5}\n'
                    f'{{"key": "bb", "score": {bad}}}\n')
    with pytest.raises(IngestError, match="line 2.*'bb'.*not finite"):
        read_scores_jsonl(path)


def test_scores_jsonl_rejects_conflicting_duplicate_keys(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"key": "aa", "score": 0.5}\n{"key": "bb", "score": 1}\n'
                    '{"key": "aa", "score": 0.5}\n')
    assert read_scores_jsonl(path) == {"aa": 0.5, "bb": 1.0}   # equal repeats are fine
    path.write_text('{"key": "aa", "score": 0.5}\n{"key": "aa", "score": 0.25}\n')
    with pytest.raises(IngestError, match="line 2.*'aa'.*0.25.*0.5"):
        read_scores_jsonl(path)


def test_scores_jsonl_requires_string_keys_and_number_scores(tmp_path):
    # these were read as {'a': 1.0, 'None': 0.5, '5': 1.0}: a model that wrote
    # booleans, quoted scores or non-string keys was scored silently
    path = tmp_path / "scores.jsonl"
    path.write_text('{"key": "a", "score": true}\n{"key": null, "score": "0.5"}\n'
                    '{"key": 5, "score": 1}\n')
    with pytest.raises(IngestError, match="line 1: expected"):
        read_scores_jsonl(path)
    for key, score in [('"b"', "true"), ('"b"', "false"), ('"b"', '"0.5"'), ('"b"', '"nan"'),
                       ('"b"', "null"), ('"b"', "[1]"), ("null", "0.5"), ("5", "1"),
                       ("true", "0.5"), ('["b"]', "0.5")]:
        path.write_text(f'{{"key": "a", "score": 0.5}}\n{{"key": {key}, "score": {score}}}\n')
        with pytest.raises(IngestError, match=r'line 2: expected \{"key": \.\.\., '
                                              r'"score": \.\.\.\}'):
            read_scores_jsonl(path)


def test_scores_jsonl_names_the_line_of_an_integer_too_large_for_a_float(tmp_path):
    # float() of such an integer raised a bare OverflowError naming no line
    path = tmp_path / "scores.jsonl"
    path.write_text('{"key": "b", "score": 0.5}\n{"key": "a", "score": 1' + "0" * 400 + "}\n")
    with pytest.raises(IngestError, match="line 2: score of key 'a' is an integer "
                                          "too large for a float"):
        read_scores_jsonl(path)
    # an integer that a float holds is read as that float
    path.write_text('{"key": "a", "score": 1' + "0" * 300 + "}\n")
    assert read_scores_jsonl(path) == {"a": 1e300}


def _reference_lines(path):
    """(line number, value) of each non-blank line: ``json.loads`` of the
    stripped line, after a leading byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield i, json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise IngestError(f"{path}: line {i}: bad JSON "
                                  f"({getattr(exc, 'msg', exc)})") from None


def reference_scores(path):
    """``read_scores_jsonl`` as a plain loop of its rules."""
    out = {}
    for i, rec in _reference_lines(path):
        key, score = (rec.get("key"), rec.get("score")) if isinstance(rec, dict) else (None, None)
        if (not isinstance(key, str) or isinstance(score, bool)
                or not isinstance(score, (int, float))):
            raise IngestError(f'{path}: line {i}: expected {{"key": ..., "score": ...}}')
        try:
            score = float(score)
        except OverflowError:
            raise IngestError(f"{path}: line {i}: score of key {key!r} is an "
                              "integer too large for a float") from None
        if not math.isfinite(score):
            raise IngestError(f"{path}: line {i}: score of key {key!r} is not finite ({score})")
        if out.setdefault(key, score) != score:
            raise IngestError(f"{path}: line {i}: key {key!r} repeats with score {score}, "
                              f"earlier {out[key]}")
    return out


def reference_samples(path):
    """``read_samples_jsonl`` as a plain loop of its rules."""
    out = []
    for i, rec in _reference_lines(path):
        if not isinstance(rec, dict):
            raise IngestError(f"{path}: line {i}: expected a JSON object")
        missing = [f for f in ("src", "dst", "t", "label", "category", "batch")
                   if f not in rec]
        if missing:
            raise IngestError(f"{path}: line {i}: missing fields {missing}")
        bad = [f for f in ("src", "dst", "t", "batch") if type(rec[f]) is not int]
        if bad:
            raise IngestError(f"{path}: line {i}: fields {bad} must be integers")
        wide = [f for f in ("src", "dst", "t") if not -2 ** 63 <= rec[f] < 2 ** 63]
        if wide:
            raise IngestError(f"{path}: line {i}: fields {wide} are outside int64")
        out.append(rec)
    return out


ORACLES = {read_scores_jsonl: reference_scores, read_samples_jsonl: reference_samples}


def _outcome(read, path):
    try:
        result = read(path)
    except Exception as exc:    # the message and type must match too
        return type(exc).__name__, str(exc)
    if isinstance(result, dict):
        return "ok", [(k, v, type(v)) for k, v in result.items()]
    return "ok", [list(rec.items()) for rec in result]


def _jsonl_files(record_lines):
    """Texts of JSON-lines files: records from ``record_lines``, alone or among
    blank, padded, \\r\\n-ended and malformed lines, and records split over
    two lines or sharing one."""
    plain = st.lists(record_lines, max_size=6).map(lambda lines: "".join(
        line + "\n" for line in lines))
    pad = st.sampled_from(["", " ", "\t", "  "])
    odd = st.one_of(
        st.sampled_from(["", " ", "\t", "5", "[1]", '"s"', "null", "{not json",
                         '{"key": "a", "score": 1, "x": ["', '"]}',
                         '{"key": "b", "score": 2}, {"key": "c", "score": 3}']),
        st.tuples(pad, record_lines, pad).map("".join),
        st.tuples(record_lines, record_lines).map(", ".join),
        st.tuples(record_lines, record_lines).map(" ".join),
        record_lines.map(lambda text: text.replace(", ", ",\n", 1)),
        st.tuples(record_lines, record_lines).map(
            lambda pair: " ".join(pair).replace(", ", ",\n", 1)))
    line = st.one_of(record_lines, odd)
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])

    def text(lines, last_end):
        text = "".join(line + end for line, end in lines)
        return text if last_end else text.rstrip("\r\n")
    return st.one_of(plain, st.builds(text, st.lists(st.tuples(line, ends), max_size=8),
                                      st.booleans()))


# integer literals past int64 and float; the last has more digits than
# int() converts by default
HUGE = st.sampled_from([str(n) for n in (2 ** 53 + 1, 2 ** 63, 2 ** 64 + 1, 10 ** 300,
                                         2 ** 1024 - 1, 2 ** 1024, 10 ** 400, -(10 ** 400))]
                       + ["1" + "0" * 4400])
SCORE_TEXT = st.one_of(st.sampled_from([0.5, 0.25, 1, 1.0, 0, -0.0]).map(json.dumps),
                       st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
                       st.integers().map(json.dumps), HUGE)
KEY_TEXT = st.one_of(st.sampled_from(["a", "b", "c", "\u00e9", ""]),
                     st.text(max_size=4)).map(json.dumps)


def _score_line(key, score, defect):
    """A score record's text, with one field dropped, replaced or added by
    ``defect``'s text, if any."""
    fields = {"key": key, "score": score}
    if defect:
        field, text = defect
        if text is None:
            fields.pop(field, None)
        else:
            fields[field] = text
    return "{" + ", ".join(f'"{f}": {v}' for f, v in fields.items()) + "}"


SCORE_LINES = st.builds(
    _score_line, KEY_TEXT, SCORE_TEXT,
    st.one_of(st.none(), st.none(),
              st.tuples(st.sampled_from(["key", "score"]), st.none()),
              st.tuples(st.just("key"), st.sampled_from(["5", "null", "true", "[1]", "{}",
                                                          "1.5"])),
              st.tuples(st.just("score"), st.sampled_from(
                  ["NaN", "Infinity", "-Infinity", "true", "false", '"0.5"', '"x"', "null",
                   "[1]", "1e400"])),
              st.tuples(st.just("x"), st.just("1"))))

def _sample_line(ids, category, keyed, defect):
    """A sample record's text from its four integer fields, with one field
    dropped or replaced by ``defect``'s text, if any."""
    fields = {"src": ids[0], "dst": ids[1], "t": ids[2], "label": '"neg"',
              "category": json.dumps(category), "batch": ids[3]}
    if keyed:
        fields["key"] = '"00ff00ff00ff00ff"'
    if defect:
        field, text = defect
        if text is None:
            del fields[field]
        else:
            fields[field] = text
    return "{" + ", ".join(f'"{f}": {v}' for f, v in fields.items()) + "}"


SAMPLE_LINES = st.builds(
    _sample_line, st.lists(INT64_EDGES, min_size=4, max_size=4),
    st.sampled_from(VOCABULARY), st.booleans(),
    st.one_of(st.none(), st.none(),
              st.tuples(st.sampled_from(["src", "dst", "t", "label", "category", "batch"]),
                        st.none()),
              st.tuples(st.sampled_from(["src", "dst", "t", "batch"]), st.one_of(
                  HUGE, st.sampled_from([str(2 ** 63), str(-2 ** 63 - 1), "true", "1.0",
                                         '"3"', "null"])))))


SAMPLE = '{"src": 0, "dst": 1, "t": 2, "label": "neg", "category": "loop", "batch": 0}'


@given(st.one_of(_jsonl_files(SCORE_LINES).map(lambda text: (read_scores_jsonl, text)),
                 _jsonl_files(SAMPLE_LINES).map(lambda text: (read_samples_jsonl, text))))
# files that reach each of the readers' checks
@example((read_scores_jsonl, '{"key": "a",\n"score": 1}\n'))
@example((read_scores_jsonl, '{"key": "a",\n"score": 1} {"key": "b", "score": 2}\n'))
@example((read_scores_jsonl, '{"key": "a", "score": 1} {"key": "b", "score": 2}\n'))
@example((read_scores_jsonl, '{"key": 5, "score": 0.5}\n'))
@example((read_scores_jsonl, '{"key": null, "score": 0.5}\n'))
@example((read_scores_jsonl, '{"key": "a", "score": 0.5}\n{"key": "b", "score": false}\n'))
@example((read_scores_jsonl, "[" * 100000 + "\n"))
@example((read_scores_jsonl, " null\n"))
@example((read_samples_jsonl, "null"))
@example((read_samples_jsonl, SAMPLE + "\n" + "[" * 100000))
@example((read_scores_jsonl, '{"key": "a", "score": true}\n{"key": "b", "score": "x"}\n'))
@example((read_scores_jsonl, '{"key": "a", "score": 1e400}\n'))
@example((read_scores_jsonl, '{"key": "a", "score": 1' + "0" * 400 + '}\n'))
@example((read_scores_jsonl, '{"key": "a", "score": 1}\n{"key": "a", "score": 1.0}\n'))
@example((read_scores_jsonl, '{"key": "a", "score": 1}\n{"key": "a", "score": 2}\n'))
@example((read_samples_jsonl, SAMPLE.replace('"batch": 0', '"batch": true') + "\n"))
@example((read_samples_jsonl, SAMPLE.replace('"src": 0', f'"src": {-2 ** 63 - 1}') + "\n"))
@example((read_samples_jsonl, SAMPLE.replace('"dst": 1', f'"dst": {2 ** 63}') + "\n"))
@example((read_samples_jsonl, SAMPLE.replace('"label": "neg", ', "") + "\n"))
@settings(max_examples=500, deadline=None)
def test_jsonl_readers_agree_with_their_per_line_loops(case):
    read, text = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.jsonl"
        path.write_bytes(text.encode())
        assert _outcome(read, path) == _outcome(ORACLES[read], path)


@pytest.mark.parametrize("read", list(ORACLES))
def test_jsonl_readers_reject_a_split_record_and_read_writer_output(tmp_path, read):
    # the lines joined with commas parse as three records from three lines,
    # but the first line is not JSON
    path = tmp_path / "f.jsonl"
    path.write_text('{"key": "a", "score": 1, "x": ["\n"]}\n'
                    '{"key": "b", "score": 2}, {"key": "c", "score": 3}\n')
    with pytest.raises(IngestError, match="line 1: bad JSON"):
        read(path)
    # files as the writers write them read back the same with or without
    # their last newline
    if read is read_scores_jsonl:
        write_scores_jsonl(path, {"aa": 0.25, "bb": -1e300, "cc": 3.0})
        want = {"aa": 0.25, "bb": -1e300, "cc": 3.0}
    else:
        write_samples_jsonl(path, [SampleSet.of([2 ** 63 - 1, 0], [-2 ** 63, 1], [0, 5],
                                                "loop", 7)], with_keys=True)
        want = [{"src": s, "dst": d, "t": t, "label": "neg", "category": "loop",
                 "batch": 7, "key": sample_key(s, d, t, "loop")}
                for s, d, t in [(2 ** 63 - 1, -2 ** 63, 0), (0, 1, 5)]]
    text = path.read_text()
    assert read(path) == want
    path.write_text(text.rstrip("\n"))
    assert read(path) == want
    # and after the byte-order mark that spreadsheet tools write first
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert read(path) == want


def test_jsonl_readers_name_the_line_of_a_deeply_nested_value(tmp_path):
    # the JSON parsers' RecursionError named no line
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100000 + "\n")
    for read in (read_scores_jsonl, read_samples_jsonl):
        with pytest.raises(IngestError, match="line 1: bad JSON .*recursion"):
            read(path)
    code, _, err = run_cli("score", "--scorer", "constant", "--samples", str(path),
                           "--out", str(tmp_path / "scores.jsonl"))
    assert code == 1
    assert json.loads(err)["error"] == "IngestError"
    assert "line 1: bad JSON" in json.loads(err)["message"]
    assert not (tmp_path / "scores.jsonl").exists()


def test_samples_jsonl_names_the_line_of_an_integer_with_too_many_digits(tmp_path):
    # int() refuses more than 4300 digits with a bare ValueError
    path = tmp_path / "s.jsonl"
    path.write_text('{"src": 0, "dst": 1, "t": 2, "label": "neg", "category": "loop", '
                    '"batch": 0}\n{"src": 1' + "0" * 4400 + "}\n")
    with pytest.raises(IngestError, match="line 2: bad JSON .*4300 digits"):
        read_samples_jsonl(path)


def test_readers_name_the_line_that_is_not_utf8(months_csv, tmp_path, monkeypatch):
    # a bare UnicodeDecodeError named a byte offset into a decoded chunk, not a line
    sample = b'{"src": 0, "dst": 1, "t": 2, "label": "neg", "category": "loop", "batch": 0}\n'
    samples = tmp_path / "s.jsonl"
    samples.write_bytes(sample * 3000 + sample.replace(b"neg", b"n\xffg") + sample)
    code, out, err = run_cli("score", "--scorer", "constant", "--samples", str(samples),
                             "--out", str(tmp_path / "scores.jsonl"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "IngestError",
                               "message": f"{samples}: line 3001: not UTF-8 (invalid start byte)"}
    assert not (tmp_path / "scores.jsonl").exists()

    cli_json("split", str(months_csv), "--out-dir", str(tmp_path / "splits"))
    scores = tmp_path / "scores.jsonl"
    scores.write_bytes(b'{"key": "a", "score": 0.5}\n{"key": "\xe2\x82", "score": 1}\n')
    code, out, err = run_cli("evaluate", "--split-dir", str(tmp_path / "splits" / "2021-01"),
                             "--scores", str(scores))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (f"{scores}: line 2: not UTF-8 "
                                          "(invalid continuation byte)")

    edges = tmp_path / "latin1.csv"
    n_lines = len(months_csv.read_bytes().splitlines())
    edges.write_bytes(months_csv.read_bytes() + b"carol,d\xe9j\xe0,1609459300\n")
    monkeypatch.setenv("DINS_CACHE_DIR", str(tmp_path / "cache"))
    code, out, err = run_cli("ingest", str(edges))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (f"{edges}: line {n_lines + 1}: not UTF-8 "
                                          "(invalid continuation byte)")
    assert not (tmp_path / "cache").exists()


def test_graph_npz_roundtrip(tmp_path):
    g = build_graph([("a", "b", 17), ("b", "b", 451), ("c\u00e9", "a", 1000)],
                    bin_width_seconds=60)
    path = tmp_path / "g.npz"
    save_graph(path, g)
    members = ("format", "src", "dst", "t", "raw", "names", "bin_width_seconds", "raw_anchor")
    with zipfile.ZipFile(path) as zf:
        assert sorted(zf.namelist()) == sorted(f"{name}.npy" for name in members)
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    # caches written before by np.savez_compressed load alike
    old = tmp_path / "old.npz"
    np.savez_compressed(old, format=np.int64(1), src=g.src, dst=g.dst, t=g.t, raw=g.raw,
                        names=np.asarray(g.registry.names(), dtype=str),
                        bin_width_seconds=np.int64(60), raw_anchor=np.int64(g.raw_anchor))
    for h in (load_graph(path), load_graph(old)):
        assert h.n == g.n and h.m == g.m
        assert h.bin_width_seconds == 60 and h.raw_anchor == g.raw_anchor
        np.testing.assert_array_equal(h.src, g.src)
        np.testing.assert_array_equal(h.dst, g.dst)
        np.testing.assert_array_equal(h.t, g.t)
        np.testing.assert_array_equal(h.raw, g.raw)
        assert h.registry.names() == g.registry.names()
        assert all(type(name) is str for name in h.registry.names())


def test_edge_csv_error_cites_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("src,dst,timestamp\nalice,bob,notatime\n")
    with pytest.raises(IngestError, match="line 2"):
        read_edge_csv(path)


def test_edge_csv_rejects_timestamps_past_the_year_9999(tmp_path, monkeypatch):
    # a CSV in milliseconds ingested, and only a later command failed on it
    path = tmp_path / "ms.csv"
    path.write_text("src,dst,timestamp\nalice,bob,1609459200\nbob,alice,1609459200000\n")
    with pytest.raises(IngestError, match="line 3: timestamp 1609459200000 .*UNIX seconds"):
        read_edge_csv(path)
    monkeypatch.setenv("DINS_CACHE_DIR", str(tmp_path / "cache"))
    for argv in [(), ("--out", str(tmp_path / "ms.npz"))]:
        code, out, err = run_cli("ingest", str(path), *argv)
        assert code == 1 and out == ""
        assert "line 3: timestamp 1609459200000" in json.loads(err)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ms.csv"]
    # the last second of the year 9999 is the last one taken; negatives stay out
    for raw, ok in [(253402300799, True), (253402300800, False), (-1, False)]:
        path.write_text(f"src,dst,timestamp\nalice,bob,{raw}\n")
        if ok:
            assert read_edge_csv(path) == [("alice", "bob", raw)]
        else:
            with pytest.raises(IngestError, match="line 2: .*UNIX seconds"):
                read_edge_csv(path)


def test_atomic_write_leaves_nothing_behind(tmp_path):
    target = tmp_path / "out" / "file.json"
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(target.parent.iterdir()) == []  # no stray temp files


def test_atomic_writes_follow_the_umask(tmp_path):
    # a plain open() creates 0666 less the umask; a temp file made by
    # tempfile.mkstemp would leave every artifact owner-only (0600)
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            for name, how in ((f"text{umask:o}.json", "w"), (f"bin{umask:o}.npz", "wb")):
                with atomic_open(tmp_path / name, how) as fh:
                    fh.write(b"x" if "b" in how else "x")
                assert (tmp_path / name).stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bin22.npz", "bin77.npz", "text22.json", "text77.json"]


# -- subcommands ---------------------------------------------------------------------


def test_ingest_then_stats_match_csv(months_csv, tmp_path, monkeypatch):
    npz = tmp_path / "months.npz"
    info = cli_json("ingest", str(months_csv), "--out", str(npz))
    assert Path(info["path"]).exists() and info["n_edges"] == 300
    from_csv = cli_json("stats", str(months_csv))
    from_npz = cli_json("stats", str(npz))
    assert from_csv == from_npz
    assert from_csv["n_edges"] == 300
    assert from_csv["start_date"].startswith("2021-01")
    # default output lands in the configured cache directory
    monkeypatch.setenv("DINS_CACHE_DIR", str(tmp_path / "cache"))
    info = cli_json("ingest", str(months_csv))
    assert Path(info["path"]).parent == tmp_path / "cache"
    again = cli_json("ingest", str(months_csv))   # idempotent re-ingest
    assert again == info


def test_repeated_columns_are_rejected_before_reading(tmp_path):
    # src,src,timestamp read the source column twice: every edge a loop
    code, out, err = run_cli("stats", str(tmp_path / "missing.csv"),
                             "--columns", "src,src,timestamp")
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (
        "columns must name three distinct columns: (src, dst, timestamp)")
    with pytest.raises(ValueError, match="^columns must name three distinct"):
        PipelineConfig(dataset="x.csv", columns=("src", "dst", "dst"))


def test_sample_rejects_a_t_f_past_int64_before_writing(months_csv, tmp_path):
    out = tmp_path / "s.jsonl"
    code, stdout, err = run_cli("sample", str(months_csv), "--strategy", "temporal",
                                "--tf", str(2**63), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert json.loads(err)["message"] == "t_f must be >= 1 and below 2**63"
    assert list(tmp_path.iterdir()) == [months_csv]


def test_split_writes_directories(months_csv, tmp_path):
    out_dir = tmp_path / "splits"
    info = cli_json("split", str(months_csv), "--out-dir", str(out_dir))
    assert len(info["splits"]) == 1
    entry = info["splits"][0]
    assert entry["label"] == "2021-01"
    d = Path(entry["dir"])
    assert {p.name for p in d.iterdir()} == {"train.csv", "val.csv",
                                             "test.csv", "split_meta.json"}
    assert entry["train"] == 150
    assert entry["validation"] + entry["test"] + entry["dropped"] == 150


def test_sample_writes_sidecars_and_is_deterministic(months_csv, tmp_path):
    out = tmp_path / "neg.jsonl"
    info = cli_json("sample", str(months_csv), "--strategy", "dins",
                    "--q", "3", "--batch-size", "64", "--seed", "9",
                    "--negatives-only", "--with-keys", "--out", str(out))
    assert info["n_samples"] > 0
    recs = read_samples_jsonl(out)
    # --negatives-only drops the observed echo; extra positives produced by
    # the combined procedure (future recurrences) are part of its output
    assert not any(r["category"] == "observed" for r in recs)
    for r in recs:
        if r["label"] == "pos":
            assert r["category"] == "positive_enhancement"
    nodes = json.loads((tmp_path / "neg.nodes.json").read_text())
    meta = json.loads((tmp_path / "neg.meta.json").read_text())
    assert isinstance(nodes, list) and len(nodes) == 10  # position = node id
    assert meta["strategy"] == "dins" and meta["config"]["seed"] == 9
    out2 = tmp_path / "neg2.jsonl"
    cli_json("sample", str(months_csv), "--strategy", "dins",
             "--q", "3", "--batch-size", "64", "--seed", "9",
             "--negatives-only", "--with-keys", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_score_requires_train_for_history_scorers(months_csv, tmp_path):
    samples = tmp_path / "s.jsonl"
    cli_json("sample", str(months_csv), "--strategy", "random",
             "--batch-size", "64", "--out", str(samples))
    code, _, err = run_cli("score", "--scorer", "memory",
                           "--samples", str(samples),
                           "--out", str(tmp_path / "x.jsonl"))
    assert code == 1
    assert "--train" in json.loads(err)["message"]
    info = cli_json("score", "--scorer", "memory", "--samples", str(samples),
                    "--train", str(months_csv),
                    "--out", str(tmp_path / "scores.jsonl"))
    scores = read_scores_jsonl(tmp_path / "scores.jsonl")
    assert len(scores) == info["n_scores"] > 0
    assert set(scores.values()) <= {0.0, 1.0}


def test_evaluate_split_dir(months_csv, tmp_path):
    out_dir = tmp_path / "splits"
    cli_json("split", str(months_csv), "--out-dir", str(out_dir))
    report_path = tmp_path / "report.json"
    export = tmp_path / "eval_samples.jsonl"
    payload = cli_json("evaluate", "--split-dir", str(out_dir / "2021-01"),
                       "--scorer", "recency", "--export", str(export),
                       "--out", str(report_path))
    cats = payload["categories"]
    assert set(cats) == {"random_sender", "random_receiver", "loop",
                         "h6", "h12", "h24", "overall"}
    for res in cats.values():
        assert 0.0 <= res["auc"] <= 1.0
    assert payload["metadata"]["split"] == "2021-01"
    assert json.loads(report_path.read_text()) == payload
    exported = [json.loads(line) for line in export.read_text().splitlines()]
    assert {r["category"] for r in exported} >= {"observed", "random_sender"}
    assert all("key" in r for r in exported)


def test_run_and_report(months_csv, tmp_path):
    run_dir = tmp_path / "run"
    info = cli_json("run", str(months_csv), "--out-dir", str(run_dir),
                    "--strategies", "dins,random", "--batch-size", "64",
                    "--scorer", "memory")
    assert info["statuses"] == {"2021-01": "ok"}
    assert info["rank_summary"]["n_splits"] == 1
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["n_windows"] == 2
    split_dir = run_dir / "splits" / "2021-01"
    for name in ("report_dins.json", "report_random.json",
                 "samples_dins.jsonl", "samples_random.jsonl",
                 "eval_samples.jsonl", "split_meta.json"):
        assert (split_dir / name).exists(), name

    code, out, _ = run_cli("report", "--run-dir", str(run_dir), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["split", "strategy", "category", "auc",
                       "n_pos", "n_neg", "shortfall"]
    assert len(rows) == 1 + 2 * 7           # strategies x categories
    code, out, _ = run_cli("report", "--run-dir", str(run_dir),
                           "--format", "plotdata")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["month", "category", "strategy", "auc"]
    assert len(rows) == 1 + 2 * 7


def _fail_after_first(items):
    """Yield the first item, then fail as a write midway would."""
    def gen(*args, **kwargs):
        yield next(iter(items(*args, **kwargs)))
        raise OSError("disk full")
    return gen


def test_cli_writes_are_atomic(months_csv, tmp_path, monkeypatch):
    # evaluate --export and report --out keep an earlier file whole when a
    # later write fails midway, and leave no temp file beside it
    out_dir = tmp_path / "splits"
    cli_json("split", str(months_csv), "--out-dir", str(out_dir))
    run_dir = tmp_path / "run"
    cli_json("run", str(months_csv), "--out-dir", str(run_dir), "--batch-size", "64")
    (tmp_path / "out").mkdir()
    export, report = tmp_path / "out" / "eval.jsonl", tmp_path / "out" / "report.csv"
    cli_json("evaluate", "--split-dir", str(out_dir / "2021-01"), "--export", str(export))
    assert run_cli("report", "--run-dir", str(run_dir), "--format", "csv",
                   "--out", str(report))[0] == 0
    before = {p: p.read_bytes() for p in (export, report)}

    import dins.cli
    monkeypatch.setattr(dins.cli, "eval_records", _fail_after_first(dins.cli.eval_records))
    monkeypatch.setattr(dins.cli, "_report_rows", _fail_after_first(dins.cli._report_rows))
    code, _, err = run_cli("evaluate", "--split-dir", str(out_dir / "2021-01"),
                           "--export", str(export))
    assert code == 1 and "disk full" in err
    code, _, err = run_cli("report", "--run-dir", str(run_dir), "--format", "csv",
                           "--out", str(report))
    assert code == 1 and "disk full" in err
    assert {p: p.read_bytes() for p in (export, report)} == before
    assert sorted(p.name for p in export.parent.iterdir()) == ["eval.jsonl", "report.csv"]


def test_run_config_file_equivalence(months_csv, tmp_path):
    cfg = {"dataset": str(months_csv), "batch_size": 64, "scorer": "memory",
           "strategies": ["dins"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a = cli_json("run", str(months_csv), "--out-dir", str(tmp_path / "a"),
                 "--batch-size", "64", "--scorer", "memory")
    b = cli_json("run", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "b"))
    assert a["statuses"] == b["statuses"]
    ra = json.loads((tmp_path / "a/splits/2021-01/report_dins.json").read_text())
    rb = json.loads((tmp_path / "b/splits/2021-01/report_dins.json").read_text())
    assert ra == rb
    code, _, err = run_cli("run", str(months_csv), "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "c"))
    assert code == 1 and "not both" in json.loads(err)["message"]


def test_invalid_flags_are_rejected_up_front(months_csv, tmp_path):
    out_dir = tmp_path / "splits"
    for argv, message in [
        (("split", str(months_csv), "--out-dir", str(out_dir), "--val-fraction", "1.5"),
         "val_fraction must be in [0, 1)"),
        (("stats", str(months_csv), "--min-month-edges", "-1"),
         "min_month_edges must be non-negative"),
        (("run", str(months_csv), "--out-dir", str(out_dir), "--lambda", "-1"),
         "lam must be positive"),
        # NaN made every split partial after its sampling; inf scored as a constant
        (("run", str(months_csv), "--out-dir", str(out_dir), "--lambda", "nan"),
         "lam must be finite, got nan"),
        (("run", str(months_csv), "--out-dir", str(out_dir), "--lambda", "inf"),
         "lam must be finite, got inf"),
        # evaluate checks its scorer before it reads the split directory
        (("evaluate", "--split-dir", str(out_dir), "--scorer-seed", "-1"),
         "seed must be non-negative"),
        (("evaluate", "--split-dir", str(out_dir), "--lambda", "nan"),
         "lam must be finite, got nan"),
        (("evaluate", "--split-dir", str(out_dir), "--lambda", "inf"),
         "lam must be finite, got inf"),
    ]:
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == message
    assert not out_dir.exists()
    with pytest.raises(ValueError, match="lam must be positive"):
        PipelineConfig(dataset="x", scorer_lambda=-1)


def test_cli_defaults_are_the_config_defaults(months_csv, tmp_path):
    defaults = PipelineConfig(dataset=str(months_csv))
    cli_json("run", str(months_csv), "--out-dir", str(tmp_path / "run"))
    assert json.loads((tmp_path / "run" / "config.json").read_text()) == defaults.to_dict()
    cli_json("sample", str(months_csv), "--strategy", "dins",
             "--out", str(tmp_path / "s.jsonl"))
    meta = json.loads((tmp_path / "s.meta.json").read_text())
    sampler = defaults.sampler()
    assert meta["config"] == {"q": sampler.q, "t_f": sampler.t_f, "k": sampler.k,
                              "seed": sampler.seed}


@pytest.mark.parametrize("setting, message", [
    ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"q": "5"}, "q must be an integer, got '5'"),
    ({"val_fraction": "0.5"}, "val_fraction must be a number, got '0.5'"),
    ({"strategies": "random"}, "strategies must be a list of strings, got 'random'"),
    ({"strategis": ["random"]}, "unknown config key(s): strategis"),
])
def test_config_files_are_checked_like_flags(months_csv, tmp_path, setting, message):
    # a wrong type or an unknown key exits 1 naming it, before any work
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": str(months_csv), **setting}))
    code, out, err = run_cli("run", "--config", str(cfg_path), "--out-dir",
                             str(tmp_path / "run"))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == message
    assert not (tmp_path / "run").exists()


def test_run_config_must_be_an_object(months_csv, tmp_path):
    # a list made str.join fail with "sequence item 0: expected str instance"
    cfg_path = tmp_path / "c.json"
    for text, kind in (("[1]", "list"), ('"x"', "str"), ("3", "int")):
        cfg_path.write_text(text)
        code, out, err = run_cli("run", "--config", str(cfg_path), "--out-dir",
                                 str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == f"a config must be a JSON object, got {kind}"
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_repeated_strategy(months_csv, tmp_path):
    # a repeat was run twice and ranked against itself
    code, out, err = run_cli("run", str(months_csv), "--out-dir", str(tmp_path / "run"),
                             "--strategies", "dins,random,dins")
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "strategies must not repeat: dins"
    assert not (tmp_path / "run").exists()
    with pytest.raises(ValueError, match="strategies must not repeat: loops, random"):
        PipelineConfig(dataset="x", strategies=["random", "loops", "random", "loops"])


def test_run_rejects_val_fraction_one(months_csv, tmp_path):
    # every split's test block was empty, so every split ended in error
    code, out, err = run_cli("run", str(months_csv), "--out-dir", str(tmp_path / "run"),
                             "--val-fraction", "1.0")
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "val_fraction must be in [0, 1)"
    assert not (tmp_path / "run").exists()
    assert PipelineConfig(dataset="x", val_fraction=0.0).val_fraction == 0.0


@pytest.mark.parametrize("labels, message", [
    (["x", "x", "y"], "window 'x': labels must not repeat"),
    (["a", "", "b"], "window '': a label must name one directory"),
    (["a", ".", "b"], "window '.': a label must name one directory"),
    (["..", "a", "b"], "window '..': a label must name one directory"),
    (["a", "b/c", "d"], "window 'b/c': a label must name one directory"),
    (["a", "b", "c\\d"], "window 'c\\\\d': a label must name one directory"),
])
def test_run_rejects_window_labels_that_are_not_one_directory(months_csv, tmp_path,
                                                              labels, message):
    # two windows labelled x reported n_splits 2 and left one splits/x/;
    # the others wrote outside splits/<label>/
    windows = tmp_path / "windows.json"
    bounds = ["2021-01-01", "2021-01-11", "2021-01-21", "2021-02-01"]
    windows.write_text(json.dumps([{"label": label, "start": lo, "end": hi}
                                   for label, lo, hi in zip(labels, bounds, bounds[1:])]))
    code, out, err = run_cli("run", str(months_csv), "--out-dir", str(tmp_path / "run"),
                             "--windows", str(windows))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith(message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("entry, message", [
    ({"label": None, "start": "2021-01-11", "end": "2021-01-21"},
     "window 1: label must be a string, not None"),
    ({"label": "b", "start": True, "end": "2021-01-21"},
     "window 1: bad window boundary True"),
    (["b", "2021-01-11", "2021-01-21"], "window 1 is not an object"),
])
def test_run_rejects_window_entries_of_the_wrong_shape(months_csv, tmp_path, entry, message):
    # a null label ran as splits/None/, a true start as epoch second 1, and a
    # list entry raised a bare TypeError
    windows = tmp_path / "windows.json"
    windows.write_text(json.dumps([{"label": "a", "start": "2021-01-01", "end": "2021-01-11"},
                                   entry,
                                   {"label": "c", "start": "2021-01-21", "end": "2021-02-01"}]))
    code, out, err = run_cli("run", str(months_csv), "--out-dir", str(tmp_path / "run"),
                             "--windows", str(windows))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"{windows}: {message}"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--config", "--drop-users", "--windows"])
def test_run_names_the_line_of_a_setting_file_that_is_not_utf8(months_csv, tmp_path, flag):
    # each raised a bare UnicodeDecodeError that named no line
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# users\nalice\nd\xe9j\xe0\n")
    args = ["--config", str(path)] if flag == "--config" else [str(months_csv), flag, str(path)]
    code, out, err = run_cli("run", *args, "--out-dir", str(tmp_path / "run"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "IngestError", "message": f"{path}: line 3: not UTF-8 "
                                                                  "(invalid continuation byte)"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--config", "--drop-users", "--windows"])
def test_run_reads_setting_files_that_begin_with_a_byte_order_mark(months_csv, tmp_path, flag):
    # a BOM'd drop list kept its first user (read as '\ufeffuser2'), and a
    # BOM'd config or windows file raised JSONDecodeError: Unexpected UTF-8 BOM
    text = {"--config": json.dumps({"dataset": str(months_csv), "batch_size": 64}),
            "--drop-users": "user2\n# only the first line names a user\n",
            "--windows": json.dumps([{"label": "a", "start": "2021-01-01", "end": "2021-01-16"},
                                     {"label": "b", "start": "2021-01-16", "end": "2021-02-01"}])}
    splits = {}
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text[flag], encoding=encoding)
        args = ["--config", str(path)] if flag == "--config" else [str(months_csv), flag, str(path)]
        out_dir = tmp_path / name
        assert set(cli_json("run", *args, "--out-dir", str(out_dir))["statuses"].values()) == {"ok"}
        splits[name] = {str(p.relative_to(out_dir)): p.read_bytes()
                        for p in (out_dir / "splits").rglob("*") if p.is_file()}
    assert splits["bom"] == splits["plain"]
    if flag == "--drop-users":
        assert not any(b"user2," in data for data in splits["bom"].values())
    assert ("splits/a/split_meta.json" in splits["bom"]) == (flag == "--windows")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_jobs_below_one(months_csv, tmp_path, jobs):
    # they ran serially as if --jobs 1 had been given
    code, out, err = run_cli("run", str(months_csv), "--out-dir", str(tmp_path / "run"),
                             "--jobs", jobs)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == f"--jobs must be at least 1, got {jobs}"
    assert not (tmp_path / "run").exists()


def test_config_types_are_checked_and_a_run_config_loads_back(months_csv, tmp_path):
    with pytest.raises(TypeError, match="seed must be an integer, got True"):
        PipelineConfig(dataset="x", seed=True)
    with pytest.raises(TypeError, match="dataset must be a string or null"):
        PipelineConfig(dataset=3)
    with pytest.raises(ValueError, match=r"unknown config key\(s\): jobs, out_dir"):
        PipelineConfig.from_dict({"dataset": "x", "out_dir": "y", "jobs": 2})
    # numpy scalars count as the Python numbers they stand for
    PipelineConfig(dataset="x", q=np.int64(3), val_fraction=np.float64(0.25))
    first = cli_json("run", str(months_csv), "--out-dir", str(tmp_path / "a"),
                     "--batch-size", "64", "--strategies", "dins,random")
    again = cli_json("run", "--config", str(tmp_path / "a" / "config.json"),
                     "--out-dir", str(tmp_path / "b"))
    assert again["statuses"] == first["statuses"] == {"2021-01": "ok"}
    for name in ("config.json", "summary.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_evaluate_checks_its_config_before_reading_the_split(tmp_path):
    # the sampling seed goes through PipelineConfig like every other setting
    code, out, err = run_cli("evaluate", "--split-dir", str(tmp_path / "missing"),
                             "--seed", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "seed must be non-negative"


# -- external score files in a run -------------------------------------------------


def _score_files(months_csv, tmp_path):
    """A scored run's config, and each eval key with its label."""
    probe = tmp_path / "probe"
    run_experiment(PipelineConfig(dataset=str(months_csv), batch_size=64), probe)
    recs = [json.loads(line) for line in
            (probe / "splits" / "2021-01" / "eval_samples.jsonl").read_text().splitlines()]
    scores_dir = tmp_path / "scores"
    scores_dir.mkdir()
    config = PipelineConfig(dataset=str(months_csv), batch_size=64,
                            strategies=("dins", "random"), scores_dir=str(scores_dir))
    return config, {r["key"]: r["label"] for r in recs}


def _write_scores(path, labels, pos_score):
    """Positives score ``pos_score`` and negatives 0.5: AUC 1, 0.5 or 0."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_scores_jsonl(path, {k: pos_score if lab == POS else 0.5
                              for k, lab in labels.items()})


def test_scores_dir_layouts_in_lookup_order(months_csv, tmp_path):
    config, labels = _score_files(months_csv, tmp_path)
    base = Path(config.scores_dir)
    _write_scores(base / "2021-01" / "dins.jsonl", labels, 1.0)
    _write_scores(base / "2021-01_dins.jsonl", labels, 0.5)
    _write_scores(base / "2021-01.jsonl", labels, 0.0)
    _write_scores(base / "2021-01_random.jsonl", labels, 0.5)

    def overall(run):
        (outcome,) = run_experiment(config, tmp_path / run)["splits"]
        assert outcome["status"] == "ok"
        return {s: rep["categories"]["overall"]["auc"]
                for s, rep in outcome["reports"].items()}

    # <split>/<strategy>.jsonl, then <split>_<strategy>.jsonl, then <split>.jsonl
    assert overall("r1") == {"dins": 1.0, "random": 0.5}
    (base / "2021-01" / "dins.jsonl").unlink()
    assert overall("r2") == {"dins": 0.5, "random": 0.5}
    (base / "2021-01_dins.jsonl").unlink()
    (base / "2021-01_random.jsonl").unlink()
    assert overall("r3") == {"dins": 0.0, "random": 0.0}


def test_scores_dir_missing_file_or_key_fails_that_strategy(months_csv, tmp_path):
    config, labels = _score_files(months_csv, tmp_path)
    base = Path(config.scores_dir)
    some = dict(list(labels.items())[1:])          # one eval key has no score
    _write_scores(base / "2021-01_dins.jsonl", some, 1.0)
    (outcome,) = run_experiment(config, tmp_path / "run")["splits"]
    assert outcome["status"] == "partial"
    assert set(outcome["reports"]) == set()
    dins_error, random_error = (outcome["strategies"][s]["error"] for s in ("dins", "random"))
    assert dins_error.startswith("MissingScoresError")
    assert random_error.startswith("FileNotFoundError") and "2021-01.jsonl" in random_error
    # the training samples are written before the scores are looked up
    assert (tmp_path / "run" / "splits" / "2021-01" / "samples_random.jsonl").exists()


def test_errors_are_json_on_stderr(tmp_path):
    code, out, err = run_cli("stats", str(tmp_path / "missing.csv"))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert "missing.csv" in payload["message"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


# -- rank aggregation -----------------------------------------------------------------


def outcome(label, **aucs):
    return {"label": label, "status": "ok",
            "reports": {s: {"categories": {"overall": {"auc": a}}}
                        for s, a in aucs.items()}}


def test_average_ranks_oracle():
    outcomes = [
        outcome("m1", a=0.9, b=0.8, c=0.9),    # a,c tie for 1st -> 1.5; b -> 3
        outcome("m2", a=0.5, b=0.5, c=0.5),    # three-way tie -> 2 each
        outcome("m3", a=0.9),                  # b, c missing -> split excluded
    ]
    got = average_ranks(outcomes, ("a", "b", "c"))
    assert got["n_splits"] == 2
    assert got["ranks"] == {"a": 1.75, "b": 2.5, "c": 1.75}


def test_average_ranks_empty():
    got = average_ranks([], ("a", "b"))
    assert got == {"ranks": {"a": None, "b": None}, "n_splits": 0}
