"""Calendar windows, transductive splits, and their file round-trips."""

from __future__ import annotations

import calendar
import codecs
import csv
import json
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dins import WindowSpec, build_graph, make_split, monthly_schedule, stats, window_pairs
from dins.sample_io import load_dataset, read_split_dir, write_split_dir
from dins.split import load_windows_file, sparse_month_mask

JAN = 1609459200   # 2021-01-01T00:00:00Z
FEB = 1612137600   # 2021-02-01
MAR = 1614556800   # 2021-03-01
W = 300


def month_graph():
    """Edges in Jan and Feb 2021 with one Feb-only node."""
    records = [
        ("a", "b", JAN + 100), ("b", "c", JAN + 40_000), ("a", "b", JAN + 90_000),
        ("c", "a", JAN + 2_000_000), ("b", "a", JAN + 2_500_000),
        # February: c->a recurs, plus edges touching the unseen node d
        ("c", "a", FEB + 50), ("a", "b", FEB + 700_000), ("d", "a", FEB + 800_000),
        ("b", "d", FEB + 900_000), ("b", "c", FEB + 1_000_000),
    ]
    return build_graph(records)


def test_monthly_schedule_frozen_boundaries():
    g = month_graph()
    sched = monthly_schedule(g)
    assert [w.label for w in sched] == ["2021-01", "2021-02"]
    assert sched[0].start == JAN and sched[0].end == FEB
    assert sched[1].start == FEB and sched[1].end == MAR
    assert window_pairs(sched) == [(sched[0], sched[1])]


def test_monthly_schedule_spans_year_boundary():
    g = build_graph([("a", "b", 1606780800), ("a", "b", 1609459300)])  # Dec+Jan
    assert [w.label for w in monthly_schedule(g)] == ["2020-12", "2021-01"]


def test_custom_windows_replace_schedule():
    g = month_graph()
    ws = [WindowSpec("w0", JAN, JAN + 1000), WindowSpec("w1", JAN + 1000, FEB)]
    assert monthly_schedule(g, custom_windows=ws) == ws
    bad = [WindowSpec("w0", JAN, FEB), WindowSpec("w1", JAN + 10, MAR)]
    with pytest.raises(ValueError, match="overlap"):
        monthly_schedule(g, custom_windows=bad)


def test_window_spec_validates():
    with pytest.raises(ValueError, match="end must exceed start"):
        WindowSpec("bad", 10, 10)


def test_make_split_transductive_partition():
    g = month_graph()
    jan, feb = monthly_schedule(g)
    split = make_split(g, jan, feb, val_fraction=0.5)
    assert split.label == "2021-01"
    # train: the 5 January edges, re-anchored at the first January raw time
    assert split.train.m == 5
    assert split.train.raw_anchor == JAN + 100
    assert split.train.t[0] == 0
    # eval: 5 February edges; 2 touch node "d" (unseen in January) -> dropped
    assert split.dropped_count == 2
    assert len(split.val) + len(split.test) == 3
    assert len(split.val) == 1  # int(3 * 0.5)
    # conservation: every eval edge is accounted for
    assert len(split.val) + len(split.test) + split.dropped_count == 5
    # chronological: all val bins <= all test bins, all after train bins
    assert split.val.t.max() <= split.test.t.min()
    assert split.train.t.max() < split.val.t.min()
    # eval blocks are expressed in train node ids
    reg = split.train.registry
    assert reg.name_of(int(split.val.src[0])) == "c"
    assert reg.name_of(int(split.val.dst[0])) == "a"


def test_make_split_bins_use_train_anchor():
    g = month_graph()
    jan, feb = monthly_schedule(g)
    split = make_split(g, jan, feb)
    expect = (split.val.raw - split.train.raw_anchor) // g.bin_width_seconds
    assert np.array_equal(split.val.t, expect)


def test_make_split_val_fraction_extremes():
    g = month_graph()
    jan, feb = monthly_schedule(g)
    all_test = make_split(g, jan, feb, val_fraction=0.0)
    assert len(all_test.val) == 0 and len(all_test.test) == 3
    all_val = make_split(g, jan, feb, val_fraction=1.0)
    assert len(all_val.val) == 3 and len(all_val.test) == 0


def test_make_split_rejects_bad_windows():
    g = month_graph()
    jan, feb = monthly_schedule(g)
    with pytest.raises(ValueError, match="must precede"):
        make_split(g, feb, jan)
    empty = WindowSpec("empty", MAR, MAR + 1000)
    later = WindowSpec("later", MAR + 1000, MAR + 2000)
    with pytest.raises(ValueError, match="selects no edges"):
        make_split(g, empty, later)


def test_split_dir_roundtrip(tmp_path):
    g = month_graph()
    jan, feb = monthly_schedule(g)
    split = make_split(g, jan, feb, val_fraction=0.5)
    d = tmp_path / "2021-01"
    write_split_dir(d, split)
    assert {p.name for p in d.iterdir()} == {
        "train.csv", "val.csv", "test.csv", "split_meta.json"}

    meta = json.loads((d / "split_meta.json").read_text())
    assert meta["counts"] == {"train": 5, "validation": 1, "test": 2,
                              "dropped": 2, "eval_total": 5}
    assert meta["train_window"]["label"] == "2021-01"
    assert meta["val_fraction"] == 0.5

    loaded = read_split_dir(d)
    assert loaded.train.m == split.train.m
    assert loaded.train.registry.names() == split.train.registry.names()
    assert np.array_equal(loaded.train.src, split.train.src)
    assert np.array_equal(loaded.train.t, split.train.t)
    assert np.array_equal(loaded.val.t, split.val.t)
    assert np.array_equal(loaded.test.src, split.test.src)
    assert loaded.dropped_count == split.dropped_count
    # a second write from the reloaded split is byte-identical
    d2 = tmp_path / "again"
    write_split_dir(d2, loaded)
    for name in ("train.csv", "val.csv", "test.csv", "split_meta.json"):
        assert (d2 / name).read_bytes() == (d / name).read_bytes()


def test_bom_crlf_csv_ingests_and_roundtrips(tmp_path):
    # a spreadsheet export: UTF-8 BOM, CRLF line ends and a quoted name
    # that holds the delimiter
    rows = [("src", "dst", "timestamp"),
            ("a", "b", JAN + 100), ("x,y", "b", JAN + 40_000), ("b", "x,y", JAN + 90_000),
            ("x,y", "a", FEB + 50), ("a", "b", FEB + 700_000), ("b", "x,y", FEB + 900_000)]
    plain, excel = tmp_path / "plain.csv", tmp_path / "excel.csv"
    with open(plain, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with open(excel, "w", newline="", encoding="utf-8-sig") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)
    raw = excel.read_bytes()
    assert raw.startswith(codecs.BOM_UTF8) and b'\r\n"x,y",' in raw

    g, h = load_dataset(plain), load_dataset(excel)
    assert h.registry.names() == g.registry.names() == ["a", "b", "x,y"]
    for col in ("src", "dst", "t", "raw"):
        assert np.array_equal(getattr(h, col), getattr(g, col))

    jan, feb = monthly_schedule(h)
    split = make_split(h, jan, feb)
    write_split_dir(tmp_path / "split", split)
    loaded = read_split_dir(tmp_path / "split")
    assert loaded.train.registry.names() == split.train.registry.names()
    for got, want in ((loaded.train, split.train), (loaded.val, split.val),
                      (loaded.test, split.test)):
        for col in ("src", "dst", "t", "raw"):
            assert np.array_equal(getattr(got, col), getattr(want, col))
    assert len(loaded.val) + len(loaded.test) == 3


# Node names as a spreadsheet may hold them: the delimiters, quotes,
# inner spaces and line breaks, and text outside ASCII. Ingest strips the
# ends of a name, so names are drawn stripped.
NAMES = st.text(alphabet="ab\u00e9 ,;\t\"'#\r\n", min_size=1, max_size=5).map(str.strip).filter(bool)
DAY = 86_400


@given(names=st.lists(NAMES, min_size=2, max_size=6, unique=True),
       edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                st.integers(0, 59 * DAY - 1)), min_size=1, max_size=40),
       tsv=st.booleans(), bom=st.booleans(), crlf=st.booleans(),
       empty_eval=st.booleans(), val_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@settings(max_examples=80, deadline=None)
def test_csv_ingest_and_split_files_roundtrip(tmp_path_factory, names, edges, tsv, bom,
                                              crlf, empty_eval, val_fraction):
    # January always has an edge; with empty_eval, February has none
    offsets = [off % (31 * DAY) if i == 0 or empty_eval else off
               for i, (_, _, off) in enumerate(edges)]
    records = [(names[u % len(names)], names[v % len(names)], JAN + off)
               for (u, v, _), off in zip(edges, offsets)]
    d = tmp_path_factory.mktemp("csv")
    path = d / ("edges.tsv" if tsv else "edges.csv")
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
        # the minimal quoting leaves a bare \r unquoted unless it ends lines
        w = csv.writer(fh, delimiter="\t" if tsv else ",",
                       lineterminator="\r\n" if crlf else "\n",
                       quoting=csv.QUOTE_ALL if "\r" in "".join(names) else csv.QUOTE_MINIMAL)
        w.writerow(["src", "dst", "timestamp"])
        w.writerows(records)

    g = load_dataset(path)
    first = min(r[2] for r in records)
    want = sorted(records, key=lambda r: (r[2] - first) // W)    # stable, like ingest
    names_of = g.registry.name_of
    assert [(names_of(u), names_of(v), raw) for u, v, raw in
            zip(g.src.tolist(), g.dst.tolist(), g.raw.tolist())] == want
    assert np.array_equal(g.t, (g.raw - first) // W)

    jan, feb = WindowSpec("2021-01", JAN, FEB), WindowSpec("2021-02", FEB, MAR)
    split = make_split(g, jan, feb, val_fraction=val_fraction)
    if empty_eval:
        assert len(split.val) == len(split.test) == split.dropped_count == 0
    write_split_dir(d / "split", split)
    loaded = read_split_dir(d / "split")
    assert loaded.train.registry.names() == split.train.registry.names()
    assert (loaded.train.raw_anchor, loaded.train.bin_width_seconds) == \
        (split.train.raw_anchor, split.train.bin_width_seconds)
    for got, want_block in ((loaded.train, split.train), (loaded.val, split.val),
                            (loaded.test, split.test)):
        for col in ("src", "dst", "t", "raw"):
            assert getattr(got, col).tolist() == getattr(want_block, col).tolist()
    assert (loaded.train_window, loaded.eval_window) == (jan, feb)
    assert (loaded.dropped_count, loaded.val_fraction) == (split.dropped_count, val_fraction)


def test_windows_file_formats(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"windows": [
        {"label": "w0", "start": "2021-01-01", "end": "2021-01-15"},
        {"label": "w1", "start": "2021-01-15", "end": 1612137600},
    ]}))
    ws = load_windows_file(p)
    assert ws[0] == WindowSpec("w0", JAN, JAN + 14 * 86400)
    assert ws[1].end == FEB

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([{"label": "x", "start": 0, "end": 10}]))
    assert load_windows_file(bare) == [WindowSpec("x", 0, 10)]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "start": "Jan 5", "end": 10}]))
    with pytest.raises(ValueError, match="YYYY-MM-DD"):
        load_windows_file(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps([{"label": "x", "start": 0}]))
    with pytest.raises(ValueError, match="missing"):
        load_windows_file(missing)


def test_sparse_month_mask():
    raw = np.array([JAN + 1, JAN + 2, JAN + 3, FEB + 1, MAR + 5, MAR + 6])
    keep = sparse_month_mask(raw, min_edges=2)
    assert keep.tolist() == [True, True, True, False, True, True]
    assert sparse_month_mask(raw, min_edges=0).all()
    assert sparse_month_mask(np.array([], dtype=np.int64), 5).size == 0


# -- the month rule against the datetime formulas it replaced --------------------


def _month_floor(epoch: int) -> tuple[int, int]:
    d = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return d.year, d.month

def _month_start_epoch(year: int, month: int) -> int:
    return int(datetime(year, month, 1, tzinfo=timezone.utc).timestamp())

def _next_month(year: int, month: int) -> tuple[int, int]:
    return (year + 1, 1) if month == 12 else (year, month + 1)


def oracle_schedule(t_lo: int, t_hi: int) -> list[WindowSpec]:
    """The month loop ``monthly_schedule`` ran before it used datetime64."""
    year, month = _month_floor(t_lo)
    out: list[WindowSpec] = []
    while _month_start_epoch(year, month) <= t_hi:
        ny, nm = _next_month(year, month)
        out.append(WindowSpec(label=f"{year:04d}-{month:02d}",
                              start=_month_start_epoch(year, month),
                              end=_month_start_epoch(ny, nm)))
        year, month = ny, nm
    return out


def oracle_sparse_month_mask(raw_seconds: np.ndarray, min_edges: int) -> np.ndarray:
    """The per-edge datetime mask ``sparse_month_mask`` computed before."""
    raw_seconds = np.asarray(raw_seconds, dtype=np.int64)
    if min_edges <= 1 or raw_seconds.size == 0:
        return np.ones(raw_seconds.size, dtype=bool)
    keys = np.array([ym[0] * 12 + ym[1] for ym in map(_month_floor, raw_seconds.tolist())],
                    dtype=np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    sparse = set(uniq[counts < min_edges].tolist())
    if not sparse:
        return np.ones(raw_seconds.size, dtype=bool)
    return np.array([k not in sparse for k in keys.tolist()], dtype=bool)


LAST_SCHEDULABLE = 253399622399     # 9999-11-30T23:59:59Z
# times near a month's start (month and year ends), on 29 February, or anywhere
NEAR_MONTH_START = st.builds(lambda y, m, off: _month_start_epoch(y, m) + off,
                             st.integers(1970, 9999), st.integers(1, 12),
                             st.integers(-DAY, DAY))
LEAP_DAY = st.builds(lambda y, s: _month_start_epoch(y, 3) - DAY + s,
                     st.integers(1970, 9999).filter(calendar.isleap), st.integers(0, DAY - 1))
RAW = st.one_of(NEAR_MONTH_START, LEAP_DAY, st.integers(0, LAST_SCHEDULABLE)).map(
    lambda t: min(max(t, 0), LAST_SCHEDULABLE))


@given(t_lo=RAW, span=st.one_of(st.integers(0, 3 * DAY), st.integers(0, 900 * DAY)))
@settings(max_examples=300, deadline=None)
def test_monthly_schedule_matches_the_datetime_loop(t_lo, span):
    t_hi = min(t_lo + span, LAST_SCHEDULABLE)
    g = build_graph([("a", "b", t_hi), ("b", "a", t_lo)])
    assert monthly_schedule(g) == oracle_schedule(t_lo, t_hi)


@given(raw=st.lists(RAW, max_size=30), min_edges=st.integers(-1, 4))
@settings(max_examples=300, deadline=None)
def test_sparse_month_mask_matches_the_datetime_mask(raw, min_edges):
    raw = np.array(raw, dtype=np.int64)
    got = sparse_month_mask(raw, min_edges)
    assert got.dtype == bool
    assert got.tolist() == oracle_sparse_month_mask(raw, min_edges).tolist()


def test_month_limits_are_datetime_limits():
    # datetime ends with the year 9999: a schedule cannot close December
    # 9999, and no month or date is named from the year 10000 on. Each
    # input answers at once; a schedule up to 2**62 seconds is never built.
    started = time.perf_counter()
    for raw, mask, end_date in [(253399622400, [False, False], "9999-12-01"),
                                (253402300799, [False, False], "9999-12-31"),
                                (253402300800, None, None),
                                (2 ** 62, None, None)]:
        g = build_graph([("a", "b", JAN), ("b", "a", raw)])
        with pytest.raises(ValueError):
            monthly_schedule(g)
        if mask is None:
            with pytest.raises(ValueError):
                sparse_month_mask(g.raw, 2)
            with pytest.raises(ValueError):
                stats(g)
        else:
            assert sparse_month_mask(g.raw, 2).tolist() == mask
            assert (stats(g).start_date, stats(g).end_date) == ("2021-01-01", end_date)
        # a threshold of one keeps every edge without reading the times
        assert sparse_month_mask(g.raw, 1).tolist() == [True, True]
    assert [w.label for w in monthly_schedule(build_graph([("a", "b", LAST_SCHEDULABLE)]))] \
        == ["9999-11"]
    with pytest.raises(ValueError):
        sparse_month_mask(np.array([-62135596801, JAN]), 2)    # the year 0
    assert time.perf_counter() - started < 1.0
