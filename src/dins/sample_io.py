"""File interchange: edge CSVs, graph caches, JSON-lines samples/scores.

Formats are deliberately small and stable:

* edge CSV/TSV with a header naming source, destination and raw UNIX
  seconds of the years 1970 to 9999 (column names remappable);
* graph cache as a compressed ``.npz`` holding the sorted arrays plus
  the name table;
* samples as JSON-lines ``{"src", "dst", "t", "label", "category",
  "batch"}`` with an optional ``"key"`` for matching externally
  computed scores;
* evaluation exports as JSON-lines, each line the sorted-keys JSON of
  ``{"batch", "category", "dst", "key", "label", "src", "t"}``;
* scores as JSON-lines ``{"key", "score"}``.

Every writer goes through a temp-file-then-rename so a crashed run
never leaves a truncated artifact behind, and every format round-trips
through its reader in this module. The CSV and JSON-lines readers check
their input one line at a time, and each error names the line at fault."""

from __future__ import annotations

import csv
import json
import math
import os
import secrets
from contextlib import contextmanager
from hashlib import blake2b
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .graph import (_UTC_SECONDS, DynamicGraph, EdgeBlock, IngestError, NodeRegistry,
                    binned, build_graph)
from .sampling import _LABEL_OF, VOCABULARY, SampleSet
from .split import MonthlySplit, WindowSpec, sparse_month_mask

PathLike = Union[str, Path]

CACHE_DIR_ENV = "DINS_CACHE_DIR"
DEFAULT_CACHE_DIR = ".dins_cache"
_CACHE_FORMAT = 1


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


@contextmanager
def atomic_open(path: PathLike, mode: str = "w") -> Iterator:
    """Open a temp file next to ``path`` and rename it over on success; it
    is created 0666 less the umask, as ``open`` would create ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: PathLike, obj) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: PathLike):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_name_list(path: PathLike) -> list[str]:
    """One node name per line; blank lines and ``#`` comments are skipped."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            name = line.strip()
            if name and not name.startswith("#"):
                out.append(name)
    return out


# -- sample / score JSON-lines ---------------------------------------------


def sample_key(src: int, dst: int, t: int, category: str) -> str:
    """Stable 16-hex-char identity of a sample, equal across runs and hosts."""
    return blake2b(f"{src}|{dst}|{t}|{category}".encode(), digest_size=8).hexdigest()


def sample_keys(src: np.ndarray, dst: np.ndarray, t: np.ndarray, code: np.ndarray,
                vocabulary: Sequence[str] = VOCABULARY) -> list[str]:
    """``sample_key`` of every sample of the columns, whose ``code`` indexes
    ``vocabulary``; the hashed bytes come from one template per category."""
    forms = [b"%d|%d|%d|" + category.encode() for category in vocabulary]
    return [blake2b(forms[c] % (s, d, u), digest_size=8).hexdigest()
            for s, d, u, c in zip(src.tolist(), dst.tolist(), t.tolist(), code.tolist())]


# A sample record as ``json.dumps`` writes it: ids are integers, and
# labels and categories are plain names. The tail after the ids is baked
# once per batch for each category code.
_SAMPLE_HEAD = '{"src": %d, "dst": %d, "t": %d, '
_SAMPLE_TAIL = '"label": "%s", "category": "%s", "batch": %d'
_LABELLED = list(zip(_LABEL_OF.tolist(), VOCABULARY))


def write_samples_jsonl(path: PathLike, sets: Iterable[SampleSet],
                        *, with_keys: bool = False) -> dict:
    """Stream sample sets to JSON-lines, one write per set; returns
    aggregate counters."""
    n = 0
    n_batches = 0
    tallies: dict[str, int] = {}
    if with_keys:
        line, end = _SAMPLE_HEAD + '%s%s"}\n', ', "key": "'
    else:
        line, end = _SAMPLE_HEAD + "%s", "}\n"
    with atomic_open(path) as fh:
        for ss in sets:
            n_batches += 1
            tails = [_SAMPLE_TAIL % (label, cat, ss.origin_batch) + end
                     for label, cat in _LABELLED]
            columns = [ss.src.tolist(), ss.dst.tolist(), ss.t.tolist(),
                       list(map(tails.__getitem__, ss.code.tolist()))]
            if with_keys:
                columns.append(sample_keys(ss.src, ss.dst, ss.t, ss.code))
            fh.write("".join(map(line.__mod__, zip(*columns))))
            n += len(ss)
            for k, v in ss.tallies.items():
                tallies[k] = tallies.get(k, 0) + int(v)
    return {"n_samples": n, "n_batches": n_batches, "tallies": tallies}


# An eval record as ``json.dumps(rec, sort_keys=True)`` writes it.
_EVAL_LINE = ('{"batch": %(batch)d, "category": "%(category)s", "dst": %(dst)d, '
              '"key": "%(key)s", "label": "%(label)s", "src": %(src)d, "t": %(t)d}\n')


def eval_lines(records: Iterable[dict]) -> str:
    """The JSON-lines text of eval records (see ``evaluation.eval_records``)."""
    return "".join(map(_EVAL_LINE.__mod__, records))


# Both readers try the C scanner on each raw line and take its value when
# it ends at the line's newline. A line holds one newline, so the value can
# neither run on into the next line nor share its line with another value.
# A blank line is skipped, and any other line goes to ``_line_value``.
_scan_once = json.JSONDecoder().scan_once


def _line_value(path: PathLike, i: int, line: str):
    """``json.loads`` of line ``i``, stripped, for a line that the C
    scanner did not take whole; a line that is no JSON value is an error
    naming it."""
    try:
        return json.loads(line.strip())
    # ValueError is also an integer of more digits than int() takes
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"{path}: line {i}: bad JSON "
                          f"({getattr(exc, 'msg', exc)})") from None


_SAMPLE_FIELDS = ("src", "dst", "t", "label", "category", "batch")
_INT_FIELDS = ("src", "dst", "t", "batch")
_FIELD_SET = frozenset(_SAMPLE_FIELDS)


def _sample_problem(rec) -> str:
    """What is wrong with a sample record that failed the reader's check."""
    if type(rec) is not dict:
        return "expected a JSON object"
    missing = [f for f in _SAMPLE_FIELDS if f not in rec]
    if missing:
        return f"missing fields {missing}"
    # bool is an int subclass, so compare the exact type
    bad = [f for f in _INT_FIELDS if type(rec[f]) is not int]
    if bad:
        return f"fields {bad} must be integers"
    wide = [f for f in ("src", "dst", "t") if not -2 ** 63 <= rec[f] < 2 ** 63]
    return f"fields {wide} are outside int64"


def read_samples_jsonl(path: PathLike) -> list[dict]:
    """Sample records; a line that is not an object with integer ``src``,
    ``dst``, ``t`` (in int64) and ``batch`` is an error naming the line."""
    lo, hi = -2 ** 63, 2 ** 63
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            try:
                rec, end = _scan_once(line, 0)
                whole = line[end] == "\n"
            except (StopIteration, ValueError, IndexError, RecursionError):
                whole = False
            if not whole:
                if line.isspace():
                    continue
                rec = _line_value(path, i, line)
            if not (type(rec) is dict and rec.keys() >= _FIELD_SET
                    and type(rec["src"]) is type(rec["dst"]) is type(rec["t"])
                    is type(rec["batch"]) is int
                    and lo <= rec["src"] < hi and lo <= rec["dst"] < hi and lo <= rec["t"] < hi):
                raise IngestError(f"{path}: line {i}: {_sample_problem(rec)}")
            out.append(rec)
    return out


def write_scores_jsonl(path: PathLike, scores: Mapping[str, float]) -> None:
    with atomic_open(path) as fh:
        for key, score in scores.items():
            fh.write(json.dumps({"key": key, "score": float(score)}))
            fh.write("\n")


def read_scores_jsonl(path: PathLike) -> dict[str, float]:
    """Key -> score. Keys must be strings and scores finite numbers, and a
    key may repeat only with the same score: a NaN would rank as a group of
    its own, and a silently replaced score would change the report."""
    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            try:
                rec, end = _scan_once(line, 0)
                whole = line[end] == "\n"
            except (StopIteration, ValueError, IndexError, RecursionError):
                whole = False
            if not whole:
                if line.isspace():
                    continue
                rec = _line_value(path, i, line)
            try:
                key, score = rec["key"], rec["score"]
            except (KeyError, TypeError):
                key = score = None
            # bool is an int subclass, so compare the exact type
            if type(key) is not str or type(score) not in (float, int):
                raise IngestError(f"{path}: line {i}: expected "
                                  '{"key": ..., "score": ...}')
            if type(score) is int:
                try:
                    score = float(score)
                except OverflowError:
                    raise IngestError(f"{path}: line {i}: score of key {key!r} is an "
                                      "integer too large for a float") from None
            first = out.setdefault(key, score)
            # only a finite score lies strictly between the infinities
            # (NaN compares false), so a valid line costs two comparisons
            if first != score or not -math.inf < score < math.inf:
                problem = (f"score of key {key!r} is not finite ({score})"
                           if not math.isfinite(score) else
                           f"key {key!r} repeats with score {score}, earlier {first}")
                raise IngestError(f"{path}: line {i}: {problem}")
    return out


# -- edge CSV ---------------------------------------------------------------


def _delimiter_for(path: Path) -> str:
    return "\t" if path.suffix.lower() in (".tsv", ".tab") else ","


def read_edge_csv(path: PathLike,
                  columns: tuple[str, str, str] = ("src", "dst", "timestamp")
                  ) -> list[tuple[str, str, int]]:
    """Read ``(src, dst, raw_epoch_seconds)`` records from a headered file.

    ``columns`` maps which header names hold source, destination and
    timestamp. Malformed rows raise :class:`IngestError` naming the
    guilty line (the header is line 1).
    """
    path = Path(path)
    delim = _delimiter_for(path)
    records: list[tuple[str, str, int]] = []
    # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delim)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        try:
            cols = tuple(header.index(c) for c in columns)
        except ValueError:
            raise IngestError(f"{path}: header {header} does not contain "
                              f"columns {list(columns)}") from None
        for i, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) <= max(cols):
                raise IngestError(f"{path}: line {i}: expected at least "
                                  f"{max(cols) + 1} fields, got {len(row)}")
            s = row[cols[0]].strip()
            d = row[cols[1]].strip()
            ts = row[cols[2]].strip()
            if not s or not d:
                raise IngestError(f"{path}: line {i}: missing node name")
            try:
                raw = int(ts)
            except ValueError:
                raise IngestError(f"{path}: line {i}: timestamp {ts!r} "
                                  "is not an integer") from None
            if not 0 <= raw < _UTC_SECONDS[1]:
                raise IngestError(f"{path}: line {i}: timestamp {raw} is out of range: "
                                  "timestamps must be UNIX seconds from 1970 to the "
                                  "year 9999")
            records.append((s, d, raw))
    return records


def write_edge_csv(path: PathLike, registry: NodeRegistry, src: np.ndarray,
                   dst: np.ndarray, raw: np.ndarray) -> None:
    path = Path(path)
    delim = _delimiter_for(path)
    names = registry.names()
    # minimal quoting leaves a bare \r unquoted, and it would end the row when read
    quote_all = any("\r" in name for name in names)
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh, delimiter=delim, lineterminator="\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(["src", "dst", "timestamp"])
        writer.writerows(zip([names[i] for i in src.tolist()],
                             [names[i] for i in dst.tolist()], raw.tolist()))


# -- graph cache --------------------------------------------------------------


def save_graph(path: PathLike, graph: DynamicGraph) -> None:
    """Write a graph to a compressed ``.npz`` cache."""
    with atomic_open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            format=np.int64(_CACHE_FORMAT),
            src=graph.src, dst=graph.dst, t=graph.t, raw=graph.raw,
            names=np.asarray(graph.registry.names(), dtype=str),
            bin_width_seconds=np.int64(graph.bin_width_seconds),
            raw_anchor=np.int64(graph.raw_anchor),
        )


def load_graph(path: PathLike) -> DynamicGraph:
    with np.load(path, allow_pickle=False) as z:
        if int(z["format"]) != _CACHE_FORMAT:
            raise IngestError(f"{path}: unsupported cache format {int(z['format'])}")
        registry = NodeRegistry(str(name) for name in z["names"])
        return DynamicGraph(registry, z["src"], z["dst"], z["t"], z["raw"],
                            int(z["bin_width_seconds"]), int(z["raw_anchor"]))


def load_dataset(path: PathLike, bin_width_seconds: int = 300,
                 columns: tuple[str, str, str] = ("src", "dst", "timestamp"),
                 drop_names: Iterable[str] = (),
                 min_month_edges: int = 0) -> DynamicGraph:
    """Load a graph from a CSV/TSV dataset or an ``.npz`` cache.

    Caches are returned as stored (their build already applied any
    filtering); CSV input is filtered by the drop list and the sparse
    month threshold before binning, so the bin anchor reflects the kept
    records only.
    """
    path = Path(path)
    if path.suffix.lower() == ".npz":
        return load_graph(path)
    records = read_edge_csv(path, columns=columns)
    drop = frozenset(drop_names)
    if drop:
        records = [r for r in records if r[0] not in drop and r[1] not in drop]
    if min_month_edges > 1 and records:
        raws = np.array([r[2] for r in records], dtype=np.int64)
        keep = sparse_month_mask(raws, min_month_edges)
        records = [r for r, k in zip(records, keep.tolist()) if k]
    return build_graph(records, bin_width_seconds)


# -- split directories --------------------------------------------------------


def write_split_dir(dirpath: PathLike, split: MonthlySplit) -> None:
    """Write train/val/test CSVs plus metadata for one split."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    reg = split.train.registry
    write_edge_csv(d / "train.csv", reg, split.train.src, split.train.dst,
                   split.train.raw)
    write_edge_csv(d / "val.csv", reg, split.val.src, split.val.dst, split.val.raw)
    write_edge_csv(d / "test.csv", reg, split.test.src, split.test.dst,
                   split.test.raw)
    meta = {
        "train_window": split.train_window.to_dict(),
        "eval_window": split.eval_window.to_dict(),
        "counts": {
            "train": split.train.m,
            "validation": len(split.val),
            "test": len(split.test),
            "dropped": split.dropped_count,
            "eval_total": len(split.val) + len(split.test) + split.dropped_count,
        },
        "train_nodes": split.train.n,
        "bin_width_seconds": split.train.bin_width_seconds,
        "raw_anchor": split.train.raw_anchor,
        "val_fraction": split.val_fraction,
    }
    write_json(d / "split_meta.json", meta)


def _block_from_records(records: list[tuple[str, str, int]],
                        registry: NodeRegistry, anchor: int,
                        bin_width: int, what: str) -> EdgeBlock:
    try:
        src = np.array([registry.id_of(r[0]) for r in records], dtype=np.int64)
        dst = np.array([registry.id_of(r[1]) for r in records], dtype=np.int64)
    except KeyError as exc:
        raise IngestError(f"{what}: node {exc.args[0]!r} does not appear "
                          "in the training edges") from None
    raw = np.array([r[2] for r in records], dtype=np.int64)
    return EdgeBlock(*binned(src, dst, raw, anchor, bin_width))


def read_split_dir(dirpath: PathLike) -> MonthlySplit:
    """Reload a split directory written by :func:`write_split_dir`."""
    d = Path(dirpath)
    meta = read_json(d / "split_meta.json")
    bin_width = int(meta["bin_width_seconds"])
    train = build_graph(read_edge_csv(d / "train.csv"), bin_width)
    val = _block_from_records(read_edge_csv(d / "val.csv"), train.registry,
                              train.raw_anchor, bin_width, str(d / "val.csv"))
    test = _block_from_records(read_edge_csv(d / "test.csv"), train.registry,
                               train.raw_anchor, bin_width, str(d / "test.csv"))
    tw = meta["train_window"]
    ew = meta["eval_window"]
    return MonthlySplit(
        train_window=WindowSpec(tw["label"], int(tw["start"]), int(tw["end"])),
        eval_window=WindowSpec(ew["label"], int(ew["start"]), int(ew["end"])),
        train=train, val=val, test=test,
        dropped_count=int(meta["counts"]["dropped"]),
        val_fraction=float(meta["val_fraction"]),
    )


def write_registry_json(path: PathLike, registry: NodeRegistry) -> None:
    """Dump the id -> name table (list position is the id)."""
    write_json(path, registry.names())
