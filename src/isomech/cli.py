"""Command-line front end.

Subcommands wire CSV/JSON files to the library: ``fit`` adjusts one score
vector, ``truthfulness`` sweeps all rankings of a small instance,
``estimation``/``minimax`` run the error-curve and rate studies (``estimation
--family binomial:10 --pool POOL --scores-per-item 3`` is the simulated
review study), ``icml`` produces the review-data style table, and
``check-majorization`` compares two vectors.

Conventions: CSV in and out with header rows, UTF-8, '.' decimal, floats at
12 significant digits.  Exit codes: 0 success, 1 computation failure
(running out of memory included), 2 invalid input.

CSV is read and written a column at a time.  ``_read_csv`` hands a plain
file (a regular file with the exact header, no quote, no carriage return
and no empty line) to one ``np.loadtxt`` call, which parses the numeric
columns in C and keeps text columns as strings; where it accepts a number,
the value is the one ``int()`` or ``float()`` gives.  Checks such as "the
indices are a permutation" then run on the arrays.  A file loadtxt refuses
(a bad cell, a non-finite score, a spelling only Python takes such as
``1_0``), or one that is not plain, goes through the csv walk, which reads
it row by row and names the first bad line.  ``_write_table`` spells a
column at a time (``_texts``) and joins the header and all rows in one pass.

Parameters take one path.  ``_PARAMS`` declares each run parameter once,
with its converter and help line, and ``_COMMANDS`` says which ones a
subcommand takes.  A value from a flag, from a ``--config`` file or from a
default goes through the same converter, so ``--trials x`` and
``{"trials": "x"}`` both fail with the same one-line error.  A config key
the subcommand does not take, a misspelt one say, is refused.  Flags
override config-file values.  Every command but ``check-majorization``
writes files and takes ``--out`` and ``--format``.  The seeded ones
(``truthfulness``, ``estimation``, ``minimax`` and ``icml``) also take
``--seed``; a missing seed falls back to the ISOMECH_SEED environment
variable, then to 0.  No other command reads that variable.

A command computes all its results before ``_finish`` writes anything, so a
failed run writes no file.  ``_finish`` writes the table, any extra JSON
file, and last a ``<out>.meta.json`` sidecar; if one of them cannot be
written, it removes those it wrote and exits 2.  The sidecar records the
converted parameters (a family in its JSON form, a grid as a list of
numbers); feeding it back through ``--config`` replays the run byte for
byte.  ``--log-level`` (default warning) sets which library log lines reach
stderr, such as the records ``icml`` skips; it is not a parameter of the
run, so the sidecar does not record it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import logging
import os
import sys
import types
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .errors import AuthorRowError, InvalidParameterError, IsomechError, ValidationError
from .expfam import ScoreBounds, _as_number, family_from_dict, family_from_spec
from .isotonic import (
    CoarseRanking,
    Ranking,
    _is_one_to_n,
    _unchecked,
    coarse_to_permutation,
    isotonic_mechanism,
    ranking_constrained_mle,
)
from .mechanism import UtilityFn, rank_all_utilities
from .order import majorizes, majorizes_natural_order, weakly_majorizes
from .experiments import (
    AuthorTable,
    ExplicitScores,
    LinearRamp,
    PoolResample,
    ReviewTable,
    build_lower_bound,
    estimation_error_curve,
    rate_check,
    surrogate_eval,
)

__all__ = ["main"]


def _fmt(value: Any) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _quoted(texts: Iterable[str]) -> list[str]:
    """``texts`` as csv.writer spells them inside a row, quoted where it quotes."""
    lines: list[str] = []
    writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n")
    # a second, empty field keeps a lone empty cell from being written as ""
    writer.writerows((text, "") for text in texts)
    return [line[:-2] for line in lines]


def _texts(column: Iterable[Any]) -> Iterable[str]:
    """A column's CSV fields: ``_fmt`` and csv quoting for a list, ``str`` for an
    int64 array, and for a float64 array (a fit is piecewise constant) ``{:.12g}``
    of each distinct value once, keyed on its bits so that -0.0 stays ``-0``."""
    if not isinstance(column, np.ndarray):
        return _quoted(map(_fmt, column))
    if column.dtype != np.float64:
        return map(str, column.tolist())
    keys, cells = np.unique(column.view(np.int64), return_inverse=True)
    spelled = [f"{value:.12g}" for value in keys.view(np.float64).tolist()]
    return map(spelled.__getitem__, cells.tolist())


def _write_table(fh: TextIO, header: Sequence[str], columns: Sequence[Iterable[Any]],
                 fmt: str) -> None:
    """One row per position of ``columns``, spelled by ``_texts`` and joined with
    the header in one pass; as in csv.writer, a lone empty cell is written ``""``."""
    if fmt == "json":
        columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
        _write_json(fh, [dict(zip(header, row)) for row in zip(*columns)])
        return
    fields = [itertools.chain((name,), texts)
              for name, texts in zip(_quoted(header), map(_texts, columns))]
    lines = map(",".join, zip(*fields))
    if len(fields) == 1:
        lines = (line or '""' for line in lines)
    fh.write("\n".join(lines) + "\n")


def _write_json(fh: TextIO, payload: Any) -> None:
    fh.write(_json_text(payload) + "\n")


_json_encoder = functools.lru_cache(maxsize=None)(
    lambda indent: json.JSONEncoder(sort_keys=True, separators=(",\n" + indent, ": ")).encode)


def _json_text(obj: Any, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for str-keyed ``obj`` by the
    C encoder, which CPython takes only without ``indent``: a container of no
    containers is one call, with the newline and indent in its item separator."""
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else ()
    inner, sep = indent + "  ", ",\n" + indent + "  "
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        text = _json_encoder(inner)(obj)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}" if values else text
    parts = ([f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
             if is_dict else [_json_text(v, inner) for v in obj])
    ends = "{}" if is_dict else "[]"
    return f"{ends[0]}\n{inner}{sep.join(parts)}\n{indent}{ends[1]}"


def _finish(command: str, params: dict[str, Any], header: Sequence[str],
            columns: Sequence[Iterable[Any]], extra: Optional[tuple[str, Any]] = None,
            record: Optional[dict[str, Any]] = None) -> int:
    """Write a computed run: the table at ``out``, then the ``extra`` (path,
    payload) JSON file, then the sidecar of ``params`` and any ``record``.
    An ``OSError`` removes the files this call has opened and exits 2."""
    out, fmt = params["out"], params["format"]
    files: list[tuple[str, Optional[str], Callable[[TextIO], None]]] = [
        (out, "" if fmt == "csv" else None, lambda fh: _write_table(fh, header, columns, fmt))]
    if extra is not None:
        files.append((extra[0], None, lambda fh: _write_json(fh, extra[1])))
    sidecar = {
        "command": command,
        "params": {**params, **(record or {})},
        "outputs": [path for path, _, _ in files],
        "version": __version__,
    }
    files.append((out + ".meta.json", None, lambda fh: _write_json(fh, sidecar)))
    written: list[str] = []
    for path, newline, write in files:
        try:
            with open(path, "w", encoding="utf-8", newline=newline) as fh:
                written.append(path)
                write(fh)
        except OSError as exc:
            for done in written:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise ValidationError(f"{path}: {exc.strerror or exc}") from None
    return 0


# the suffixes by which np.loadtxt decompresses a file it opens
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a readable UTF-8 CSV file ({exc})") from None


def _read_csv(path: str, columns: Sequence[str], kinds: Optional[dict[str, type]] = None
              ) -> tuple[Sequence[int], dict[str, Any]]:
    """Data of a headered CSV as (line numbers, values per column).

    Strict schema: the header must name ``columns`` in order and every
    non-blank row must have that many fields.  Blank and whitespace-only
    rows are skipped.  Line numbers count CSV records, header = line 1.  A
    column named in ``kinds`` (int or float) comes back as an int64 or
    float64 array, finite if float; any other as a list of stripped cells.
    A plain file is parsed by ``_read_plain``; any other file, or one it
    refuses, takes the csv walk, which names the first bad line.
    """
    kinds = kinds or {}
    text = _read_text(path)
    plain = _read_plain(path, text, columns, kinds)
    if plain is not None:
        return plain
    linenos, cells = _walk_csv(path, text, columns)
    for name, kind in kinds.items():
        cells[name] = _parse_array(path, linenos, name, cells[name], kind)
    return linenos, cells


def _read_plain(path: str, text: str, columns: Sequence[str], kinds: dict[str, type]
                ) -> Optional[tuple[Sequence[int], dict[str, Any]]]:
    """``_read_csv``'s result for a plain file, or None for any other.

    Plain: a regular file whose name has no suffix that numpy decompresses,
    with the exact header, no quote, no carriage return, no empty line, no
    line longer than csv's field size limit, and cells that one
    ``np.loadtxt`` call takes: ``len(columns)`` on every line, numeric
    where ``kinds`` says so (finite if float) and not blank otherwise.
    Where loadtxt takes a number, its value is that of ``int()`` or
    ``float()``.  A text column is read as an object field, so it keeps
    every character.  loadtxt reads the file again from its absolute path,
    which numpy cannot take for a URL.
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    records = ends.size + (not text.endswith("\n")) - 1
    if (records < 1 or not os.path.isfile(path) or os.path.splitext(path)[1] in _COMPRESSED
            or '"' in text or "\r" in text or "\n\n" in text
            or [h.strip() for h in text[:ends[0]].split(",")] != list(columns)
            or np.diff(ends, prepend=-1, append=raw.size).max() > csv.field_size_limit() + 1):
        return None
    dtype = [(name, {int: np.int64, float: np.float64}.get(kinds.get(name), object))
             for name in columns]
    try:
        data = np.loadtxt(os.path.abspath(path), dtype=dtype, delimiter=",", comments=None,
                          skiprows=1, encoding="utf-8", ndmin=1)
    except (ValueError, OSError):
        return None
    if len(data) != records:
        return None
    values: dict[str, Any] = {}
    for name in columns:
        if name not in kinds:
            values[name] = list(map(str.strip, data[name].tolist()))
            if "" in values[name]:
                return None  # the walk skips a blank row
        else:
            values[name] = np.ascontiguousarray(data[name])
            if kinds[name] is float and not np.isfinite(values[name]).all():
                return None  # the walk names the line
    return range(2, records + 2), values


def _walk_csv(path: str, text: str, columns: Sequence[str]
              ) -> tuple[Sequence[int], dict[str, list[str]]]:
    """(line numbers, stripped cells per column) of a CSV text by csv.reader,
    row by row: blank and whitespace-only rows are skipped, and the first
    row of the wrong width is named."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        rows = list(reader)
    except csv.Error as exc:
        raise ValidationError(f"{path}: not a readable UTF-8 CSV file ({exc})") from None
    if header is None:
        raise ValidationError(f"{path} line 1: missing header row")
    header = [h.strip() for h in header]
    if header != list(columns):
        raise ValidationError(
            f"{path} line 1: expected header {','.join(columns)!r}, got {','.join(header)!r}"
        )
    width = len(columns)
    kept_lines, kept = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise ValidationError(f"{path} line {lineno}: expected {width} fields, got {len(row)}")
        kept_lines.append(lineno)
        kept.append([cell.strip() for cell in row])
    cells = [list(col) for col in zip(*kept)] or [[] for _ in columns]
    return kept_lines, dict(zip(columns, cells))


def _parse_number(path: str, lineno: int, name: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(
            f"{path} line {lineno}: {name} must be a number, got {text!r}"
        ) from None


def _parse_column(path: str, linenos: Iterable[int], name: str, texts: Sequence[str],
                  kind=float) -> list:
    """``kind`` of every cell; only a failed column is walked to name its line."""
    try:
        return list(map(kind, texts))
    except ValueError:
        for lineno, text in zip(linenos, texts):
            _parse_number(path, lineno, name, text, kind)
        raise


def _parse_array(path: str, linenos: Sequence[int], name: str, texts: Sequence[str],
                 kind: type) -> np.ndarray:
    """A column of cells as an int64 array, or as a float64 array that
    refuses nan and inf."""
    values = _parse_column(path, linenos, name, texts, kind)
    if kind is int:
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
            raise ValidationError(
                f"{path} line {linenos[k]}: {name} must be a 64-bit integer, got {texts[k]!r}"
            ) from None
    array = np.asarray(values, dtype=float)
    finite = np.isfinite(array)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValidationError(
            f"{path} line {linenos[k]}: {name} must be a finite number, got {texts[k]!r}"
        )
    return array


def _read_scores(path: str) -> np.ndarray:
    linenos, cols = _read_csv(path, ("index", "score"), {"index": int, "score": float})
    if not linenos:
        raise ValidationError(f"{path}: no score rows")
    n = len(linenos)
    idx = cols["index"]
    if not _is_one_to_n(idx, n):
        seen = set()
        for lineno, i in zip(linenos, idx.tolist()):
            if not 1 <= i <= n or i in seen:
                raise ValidationError(
                    f"{path} line {lineno}: index {i} is not a fresh value in 1..{n}"
                )
            seen.add(i)
    scores = np.empty(n)
    scores[idx - 1] = cols["score"]
    return scores


def _read_ranking(path: str, n: int) -> Ranking:
    linenos, cols = _read_csv(path, ("rank", "index"), {"rank": int, "index": int})
    if len(linenos) != n:
        raise ValidationError(f"{path}: expected {n} ranking rows, found {len(linenos)}")
    ranks, idxs = cols["rank"], cols["index"]
    if not (_is_one_to_n(ranks, n) and _is_one_to_n(idxs, n)):
        taken, seen = set(), set()
        for lineno, rank, idx in zip(linenos, ranks.tolist(), idxs.tolist()):
            if not 1 <= rank <= n or rank in taken:
                raise ValidationError(f"{path} line {lineno}: rank {rank} invalid or repeated")
            if not 1 <= idx <= n:
                raise ValidationError(
                    f"{path} line {lineno}: index {idx} does not name a score row in 1..{n}"
                )
            if idx in seen:
                raise ValidationError(f"{path} line {lineno}: index {idx} ranked twice")
            taken.add(rank)
            seen.add(idx)
    perm = np.empty(n, dtype=np.int64)
    perm[ranks - 1] = idxs
    return _unchecked(Ranking, tuple(perm.tolist()))


def _read_blocks(path: str, n: int) -> CoarseRanking:
    linenos, cols = _read_csv(path, ("block", "index"), {"block": int, "index": int})
    block_ids, idxs = cols["block"], cols["index"]
    outside = (idxs < 1) | (idxs > n)
    if outside.any():
        k = int(outside.argmax())
        raise ValidationError(f"{path} line {linenos[k]}: index {idxs[k]} not in 1..{n}")
    order = np.argsort(block_ids, kind="stable")
    ids, starts = np.unique(block_ids[order], return_index=True)
    if not np.array_equal(ids, np.arange(1, ids.size + 1)):
        raise ValidationError(f"{path}: block ids must be 1..p in any row order")
    # ids are 1..p and indices 1..n, so this key orders rows by (block, index)
    flat = idxs[np.argsort(block_ids * (n + 1) + idxs)]
    cells, bounds = flat.tolist(), starts.tolist() + [len(idxs)]
    blocks = tuple(tuple(cells[a:b]) for a, b in zip(bounds, bounds[1:]))
    if not blocks:
        raise ValidationError(f"{path}: blocks must be nonempty")
    if not _is_one_to_n(flat, flat.size):
        raise ValidationError(f"{path}: blocks do not partition 1..{flat.size}: {blocks}")
    return _unchecked(CoarseRanking, blocks)


def _read_column(path: str, column: str) -> np.ndarray:
    linenos, cols = _read_csv(path, (column,), {column: float})
    if not linenos:
        raise ValidationError(f"{path}: no data rows")
    return cols[column]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _number(value: Any, name: str, kind: type = float):
    try:
        return _as_number(value, kind)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name}: {value!r} is not {what}") from None


def _number_list(value: Any, name: str, kind: type) -> list:
    tokens = value.replace(",", " ").split() if isinstance(value, str) else value
    if not isinstance(tokens, (list, tuple)):
        raise ValidationError(f"{name}: expected a comma-separated list, got {value!r}")
    return [_number(tok, name, kind) for tok in tokens]


def _choice(*options: str) -> Callable[[Any, str], str]:
    def convert(value: Any, name: str) -> str:
        if value not in options:
            raise ValidationError(f"{name}: {value!r} is not one of {', '.join(options)}")
        return value
    return convert


def _family(value: Any, name: str) -> Any:
    # an empty spec names no family, which only fit accepts
    return family_from_spec(value).to_dict() if value != "" else value


class _Param(NamedTuple):
    convert: Optional[Callable[[Any, str], Any]]  # (value, name) -> value; None keeps it as given
    help: str
    what: str = ""  # how the 'missing ...' error names a required value


_INT = functools.partial(_number, kind=int)
_PARAMS: dict[str, _Param] = {
    "seed": _Param(_INT, "seed of the run's random draws (fallback: ISOMECH_SEED, then 0)"),
    "threads": _Param(_INT, "max worker threads for error-curve rows of 48+ items"),
    "out": _Param(None, "output file path"),
    "format": _Param(_choice("csv", "json"), "output format: csv or json (default csv)"),
    "scores": _Param(None, "CSV with header index,score", "a scores CSV"),
    "ranking": _Param(None, "CSV with header rank,index (rank 1 = best)"),
    "blocks": _Param(None, "CSV with header block,index (block 1 = best)"),
    "family": _Param(_family, "family spec, e.g. binomial:10 or JSON", "a family spec"),
    "mu_star": _Param(functools.partial(_number_list, kind=float),
                      "true scores, e.g. '8,7,6,4'", "the true scores mu_star"),
    "utility": _Param(None, "relu_square | identity | exp:ALPHA | hinge:T"),
    "scores_per_item": _Param(_INT, "reviews averaged into each observed score"),
    "trials": _Param(_INT, "Monte-Carlo trials"),
    "n_grid": _Param(functools.partial(_number_list, kind=int),
                     "submission counts, e.g. '10,50,200'", "an n grid"),
    "ramp_hi": _Param(_number, "true score of the best submission on the ramp"),
    "ramp_lo": _Param(_number, "true score of the worst submission on the ramp"),
    "pool": _Param(None, "one-column CSV of scores to resample (header: score)",
                   "a score-pool CSV"),
    "v_min": _Param(_number, "least true score", "v_min"),
    "v_max": _Param(_number, "greatest true score", "v_max"),
    "construction_n": _Param(_INT, "size of the lower-bound construction (default max n)"),
    "c": _Param(_number, "packing perturbation scale (default c_var/16)"),
    "construction_out": _Param(None, "construction JSON path"),
    "reviews": _Param(None, "CSV: submission_id,score,confidence", "a reviews CSV"),
    "authors": _Param(None, "CSV: author_id,submission_ids,ranking", "an authors CSV"),
    "a": _Param(None, "one-column CSV (header: value)", "the first vector CSV"),
    "b": _Param(None, "one-column CSV (header: value)", "the second vector CSV"),
    "mode": _Param(_choice("standard", "natural", "weak"),
                   "standard, natural or weak (default standard)"),
}


class _Command(NamedTuple):
    help: str
    inputs: tuple[str, ...]  # positional, each optional on the command line
    flags: tuple[str, ...]  # besides _OUTPUT_FLAGS, which every writing command takes
    required: tuple[str, ...]
    defaults: dict[str, Any]
    writes: bool = True  # writes a table and a sidecar
    record: tuple[str, ...] = ()  # run facts the sidecar adds to params; a replay holds them


_OUTPUT_FLAGS = ("out", "format")


_COMMANDS: dict[str, _Command] = {
    "fit": _Command(
        "adjust one score vector under a ranking or blocks", ("scores",),
        ("ranking", "blocks", "family"), ("scores",), {"out": "adjusted.csv"}),
    "truthfulness": _Command(
        "expected utility of every ranking", (),
        ("family", "mu_star", "utility", "scores_per_item", "trials", "seed"),
        ("family", "mu_star"),
        {"out": "utilities.csv", "utility": "relu_square", "scores_per_item": 3,
         "trials": 100_000}),
    "estimation": _Command(
        "error of adjusted vs raw scores across n, and the relative improvement", (),
        ("family", "n_grid", "ramp_hi", "ramp_lo", "pool", "mu_star", "scores_per_item",
         "trials", "seed", "threads"),
        ("family", "n_grid"),
        {"out": "curve.csv", "scores_per_item": 3, "trials": 1000, "ramp_hi": 9.0,
         "ramp_lo": 3.0}),
    "minimax": _Command(
        "risk-vs-n slope plus the lower-bound construction", (),
        ("family", "v_min", "v_max", "n_grid", "trials", "construction_n", "c",
         "construction_out", "seed", "threads"),
        ("family", "v_min", "v_max", "n_grid"),
        {"out": "rate.csv", "trials": 500, "construction_out": "construction.json"}),
    "icml": _Command(
        "surrogate-truth evaluation of review/author CSVs", ("reviews", "authors"), ("seed",),
        ("reviews", "authors"), {"out": "table1.csv"},
        record=("skipped_submissions", "skipped_authors", "tie_breaks")),
    "check-majorization": _Command(
        "majorization verdict for two vectors", ("a", "b"), ("mode",), ("a", "b"),
        {"mode": "standard"}, writes=False),
}


def _load_config(path: Optional[str]) -> dict[str, Any]:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    params = data.get("params", data)
    if not isinstance(params, dict):
        raise ValidationError(f"{path}: 'params' must be a JSON object")
    return dict(params)


def _effective(args: argparse.Namespace) -> dict[str, Any]:
    """Config-file values, overridden by explicit flags, backfilled by defaults,
    each converted by its ``_PARAMS`` entry.  A config key that is neither a
    parameter of the command nor one of its ``record`` keys is refused."""
    command = _COMMANDS[args.command]
    params = _load_config(args.config)
    known = command.inputs + command.flags + command.record + (
        _OUTPUT_FLAGS if command.writes else ())
    unknown = [key for key in params if key not in known]
    if unknown:
        raise ValidationError(f"{args.config}: {args.command} takes no parameter {unknown[0]!r}")
    params.update((key, value) for key, value in vars(args).items()
                  if key in _PARAMS and value is not None)
    for key, value in command.defaults.items():
        params.setdefault(key, value)
    if command.writes:
        params.setdefault("format", "csv")
    if "seed" in command.flags and params.get("seed") is None:
        params["seed"] = _number(os.environ.get("ISOMECH_SEED", "0"), "ISOMECH_SEED", int)
    for key in command.required:
        if params.get(key) in (None, ""):
            raise ValidationError(
                f"missing {_PARAMS[key].what}; pass it as an argument or in --config"
            )
    for key, value in params.items():
        param = _PARAMS.get(key)
        if param is not None and param.convert is not None and value is not None:
            params[key] = param.convert(value, key)
    if params.get("seed") is not None and params["seed"] < 0:
        raise ValidationError(f"seed: {params['seed']} is negative; seeds are integers >= 0")
    if params.get("threads") is not None and params["threads"] < 1:
        raise ValidationError(f"--threads: {params['threads']} is below 1; use 1 or more threads")
    return params


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(params: dict[str, Any]) -> int:
    if bool(params.get("ranking")) == bool(params.get("blocks")):
        raise ValidationError("fit needs exactly one of --ranking or --blocks")
    scores = _read_scores(params["scores"])
    n = scores.size
    family = family_from_dict(params["family"]) if params.get("family") else None

    if params.get("ranking"):
        ranking = _read_ranking(params["ranking"], n)
    else:
        ranking = coarse_to_permutation(_read_blocks(params["blocks"], n), scores)

    if family is not None:
        fit = ranking_constrained_mle(family, scores, ranking)
    else:
        fit = isotonic_mechanism(scores, ranking)

    header = ["index", "score", "adjusted"] + (["theta"] if family is not None else [])
    columns = [np.arange(1, n + 1), scores, fit.mu_hat]
    if family is not None:
        columns.append(fit.theta_hat)
    return _finish("fit", params, header, columns)


def _cmd_truthfulness(params: dict[str, Any]) -> int:
    mu_star = params["mu_star"]
    results = rank_all_utilities(
        family_from_dict(params["family"]), mu_star, UtilityFn.from_spec(str(params["utility"])),
        scores_per_item=params["scores_per_item"], trials=params["trials"], seed=params["seed"],
    )
    truthful = Ranking.from_scores(mu_star).perm
    columns = [
        [";".join(map(str, ranking.perm)) for ranking, _ in results],
        [est.mean for _, est in results],
        [est.std_error for _, est in results],
        [int(ranking.perm == truthful) for ranking, _ in results],
    ]
    return _finish("truthfulness", params, ["ranking", "mean", "std_error", "truthful"], columns)


def _fields(records: Sequence[Any], names: Sequence[str]) -> list[list[Any]]:
    """One column per attribute name, for a table whose header is those names."""
    return [[getattr(record, name) for record in records] for name in names]


def _make_generator(params: dict[str, Any]):
    if params.get("pool") and params.get("mu_star"):
        raise ValidationError("estimation takes at most one of --pool or --mu-star")
    if params.get("pool"):
        pool = _read_column(str(params["pool"]), "score")
        return PoolResample(pool=tuple(float(v) for v in pool))
    if params.get("mu_star"):
        return ExplicitScores(values=tuple(params["mu_star"]))
    return LinearRamp(hi=params["ramp_hi"], lo=params["ramp_lo"])


def _cmd_estimation(params: dict[str, Any]) -> int:
    points = estimation_error_curve(
        family_from_dict(params["family"]), params["n_grid"], _make_generator(params),
        scores_per_item=params["scores_per_item"], trials=params["trials"],
        seed=params["seed"], max_workers=params.get("threads"),
    )
    header = ["n", "trials", "mse_im", "mse_im_se", "mse_raw", "mse_raw_se", "improvement"]
    return _finish("estimation", params, header, _fields(points, header))


def _cmd_minimax(params: dict[str, Any]) -> int:
    family = family_from_dict(params["family"])
    bounds = ScoreBounds(params["v_min"], params["v_max"])
    n_grid = params["n_grid"]
    report = rate_check(
        family, bounds, n_grid, trials=params["trials"],
        seed=params["seed"], max_workers=params.get("threads"),
    )
    construction_n = params.get("construction_n")
    construction = build_lower_bound(
        family, bounds, max(n_grid) if construction_n is None else construction_n,
        c=params.get("c"), seed=params["seed"],
    )
    summary = {
        "n": construction.n,
        "k": construction.k,
        "c": construction.c,
        "gamma": construction.gamma,
        "codewords": construction.size,
        "target": construction.target_size,
        "block_sizes": sorted(set(construction.block_sizes)),
        "margins": construction.margins,
        "slope": report.slope,
        "intercept": report.intercept,
    }
    header = ["n", "risk", "risk_se"]
    _finish("minimax", params, header, _fields(report.points, header),
            extra=(params["construction_out"], summary))
    print(f"slope={report.slope:.6g} intercept={report.intercept:.6g}")
    return 0


def _read_reviews(path: str) -> ReviewTable:
    _, cols = _read_csv(path, ("submission_id", "score", "confidence"),
                        {"score": float, "confidence": int})
    return ReviewTable(cols["submission_id"], cols["score"], cols["confidence"])


def _read_authors(path: str, reviews: ReviewTable) -> AuthorTable:
    linenos, cols = _read_csv(path, ("author_id", "submission_ids", "ranking"))
    sids = [list(filter(None, map(str.strip, cell.split(";")))) for cell in cols["submission_ids"]]
    ranks = [list(filter(str.strip, cell.split(";"))) for cell in cols["ranking"]]
    try:
        return AuthorTable(reviews, cols["author_id"], sids, ranks)
    except AuthorRowError as exc:
        raise ValidationError(f"{path} line {linenos[exc.row]}: {exc}") from None
    except ValueError:  # a rank int() refuses: only now is each row walked to name its line
        for lineno, row in zip(linenos, ranks):
            _parse_column(path, itertools.repeat(lineno), "ranking", row, int)
        raise


def _cmd_icml(params: dict[str, Any]) -> int:
    reviews = _read_reviews(params["reviews"])
    authors = _read_authors(params["authors"], reviews)
    report = surrogate_eval(reviews, authors, seed=params["seed"])
    header = ["n", "authors", "mse_raw", "mse_im", "improvement"]
    return _finish(
        "icml", params, header, _fields(report.rows, header),
        record={"skipped_submissions": report.skipped_submissions,
                "skipped_authors": report.skipped_authors, "tie_breaks": report.tie_breaks},
    )


def _cmd_check_majorization(params: dict[str, Any]) -> int:
    a = _read_column(params["a"], "value")
    b = _read_column(params["b"], "value")
    predicate = {
        "standard": majorizes,
        "natural": majorizes_natural_order,
        "weak": weakly_majorizes,
    }[params["mode"]]
    print("true" if predicate(a, b) else "false")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser(fill: Sequence[str]) -> argparse.ArgumentParser:
    """Every subcommand, with arguments only for those named in ``fill``: a
    parse reads those of the first argument's subcommand, if it names one."""
    parser = argparse.ArgumentParser(
        prog="isomech",
        description="Ranking-constrained score adjustment and its experiment suite.",
    )
    parser.add_argument("--version", action="version", version=f"isomech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name not in fill:
            continue
        for key in command.inputs:
            p.add_argument(key, nargs="?", help=_PARAMS[key].help)
        for key in command.flags + (_OUTPUT_FLAGS if command.writes else ()):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_PARAMS[key].help)
        p.add_argument("--config", help="JSON config or replay sidecar; flags override")
        p.add_argument("--log-level", dest="log_level", default="warning",
                       choices=["debug", "info", "warning", "error"],
                       help="least severity of the log lines written to stderr (default warning)")
        p.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser(sys.argv[1:2] if argv is None else argv[:1]).parse_args(argv)
    # the stderr of this call (tests and in-process callers swap it), detached on return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("isomech")
    saved_level = logger.level
    logger.setLevel(args.log_level.upper())
    logger.addHandler(handler)
    try:
        return args.func(_effective(args))
    except (ValidationError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IsomechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory", *exc.args, sep=": ", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
