"""Command-line front end.

Subcommands wire CSV/JSON files to the library: ``fit`` adjusts one score
vector, ``truthfulness`` sweeps all rankings of a small instance,
``estimation``/``minimax`` run the error-curve and rate studies, ``icml``
and ``synthetic`` produce the review-data style tables, and
``check-majorization`` compares two vectors.

Conventions: CSV in and out with header rows, UTF-8, '.' decimal, floats at
12 significant digits.  Exit codes: 0 success, 1 computation failure
(running out of memory included), 2 invalid input.

Parameters take one path.  ``_PARAMS`` declares each run parameter once,
with its converter and help line, and ``_COMMANDS`` says which ones a
subcommand takes.  A value from a flag, from a ``--config`` file or from a
default goes through the same converter, so ``--trials x`` and
``{"trials": "x"}`` both fail with the same one-line error.  Flags override
config-file values; a missing seed falls back to the ISOMECH_SEED
environment variable, then to 0.

A command computes all its results before ``_finish`` writes anything, so a
failed run writes no file.  ``_finish`` writes the table, any extra JSON
file, and last a ``<out>.meta.json`` sidecar.  The sidecar records the
converted parameters (a family in its JSON form, a grid as a list of
numbers); feeding it back through ``--config`` replays the run byte for
byte.  ``--log-level`` (default warning) sets which library log lines reach
stderr, such as the records ``icml`` skips; it is not a parameter of the
run, so the sidecar does not record it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import logging
import os
import sys
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .errors import InvalidParameterError, IsomechError, ValidationError
from .expfam import ScoreBounds, _as_number, family_from_dict, family_from_spec
from .isotonic import (
    CoarseRanking,
    Ranking,
    coarse_to_permutation,
    isotonic_mechanism,
    ranking_constrained_mle,
)
from .mechanism import UtilityFn, rank_all_utilities
from .order import majorizes, majorizes_natural_order, weakly_majorizes
from .experiments import (
    AuthorRecord,
    EstimationConfig,
    ExplicitScores,
    LinearRamp,
    PoolResample,
    ReviewTable,
    _first_repeat,
    build_lower_bound,
    estimation_error_curve,
    rate_check,
    surrogate_eval,
    synthetic_icml_study,
)

__all__ = ["main"]


def _fmt(value: Any) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]],
                 fmt: str) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(functools.partial(map, _fmt), rows))


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(command: str, params: dict[str, Any], header: Sequence[str],
            rows: Iterable[Sequence[Any]], extra: Optional[tuple[str, Any]] = None,
            record: Optional[dict[str, Any]] = None) -> int:
    """Write a computed run: the table at ``out``, then the ``extra`` (path,
    payload) JSON file, then the sidecar of ``params`` and any ``record``."""
    outputs = [params["out"]]
    _write_table(params["out"], header, rows, params["format"])
    if extra is not None:
        _write_json(*extra)
        outputs.append(extra[0])
    _write_json(params["out"] + ".meta.json", {
        "command": command,
        "params": {**params, **(record or {})},
        "outputs": outputs,
        "version": __version__,
    })
    return 0


def _read_csv(path: str, columns: Sequence[str]) -> tuple[Sequence[int], dict[str, list[str]]]:
    """Data of a headered CSV as (line numbers, stripped cells per column).

    Strict schema: the header must name ``columns`` in order and every
    non-blank row must have that many fields.  Blank and whitespace-only
    rows are skipped.  Line numbers count CSV records, header = line 1.
    The usual file (every row full width, no empty cell) is split into
    columns in bulk; any other file takes a row-by-row pass.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not a readable UTF-8 CSV file ({exc})") from None
    if header is None:
        raise ValidationError(f"{path} line 1: missing header row")
    header = [h.strip() for h in header]
    if header != list(columns):
        raise ValidationError(
            f"{path} line 1: expected header {','.join(columns)!r}, got {','.join(header)!r}"
        )
    width = len(columns)
    linenos: Sequence[int] = range(2, len(rows) + 2)
    if set(map(len, rows)) == {width}:
        cells = [list(map(str.strip, col)) for col in zip(*rows)]
        # no empty cell means no blank row
        if all("" not in col for col in cells):
            return linenos, dict(zip(columns, cells))
    kept_lines, kept = [], []
    for lineno, row in zip(linenos, rows):
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


def _parse_finite(path: str, linenos: Sequence[int], name: str,
                  texts: Sequence[str]) -> np.ndarray:
    """Floats of a score or value column, which refuses nan and inf."""
    values = np.asarray(_parse_column(path, linenos, name, texts), dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValidationError(
            f"{path} line {linenos[k]}: {name} must be a finite number, got {texts[k]!r}"
        )
    return values


def _read_scores(path: str) -> np.ndarray:
    linenos, cols = _read_csv(path, ("index", "score"))
    if not linenos:
        raise ValidationError(f"{path}: no score rows")
    n = len(linenos)
    idx = _parse_column(path, linenos, "index", cols["index"], int)
    if sorted(idx) != list(range(1, n + 1)):
        seen = set()
        for lineno, i in zip(linenos, idx):
            if not 1 <= i <= n or i in seen:
                raise ValidationError(
                    f"{path} line {lineno}: index {i} is not a fresh value in 1..{n}"
                )
            seen.add(i)
    scores = np.empty(n)
    scores[np.asarray(idx) - 1] = _parse_finite(path, linenos, "score", cols["score"])
    return scores


def _read_ranking(path: str, n: int) -> Ranking:
    linenos, cols = _read_csv(path, ("rank", "index"))
    if len(linenos) != n:
        raise ValidationError(f"{path}: expected {n} ranking rows, found {len(linenos)}")
    ranks = _parse_column(path, linenos, "rank", cols["rank"], int)
    idxs = _parse_column(path, linenos, "index", cols["index"], int)
    every = list(range(1, n + 1))
    if sorted(ranks) != every or sorted(idxs) != every:
        taken, seen = set(), set()
        for lineno, rank, idx in zip(linenos, ranks, idxs):
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
    perm = [0] * n
    for rank, idx in zip(ranks, idxs):
        perm[rank - 1] = idx
    return Ranking(perm)


def _read_blocks(path: str, n: int) -> CoarseRanking:
    linenos, cols = _read_csv(path, ("block", "index"))
    block_ids = _parse_column(path, linenos, "block", cols["block"], int)
    idxs = _parse_column(path, linenos, "index", cols["index"], int)
    blocks: dict[int, list[int]] = {}
    for lineno, block, idx in zip(linenos, block_ids, idxs):
        if not 1 <= idx <= n:
            raise ValidationError(f"{path} line {lineno}: index {idx} not in 1..{n}")
        blocks.setdefault(block, []).append(idx)
    if sorted(blocks) != list(range(1, len(blocks) + 1)):
        raise ValidationError(f"{path}: block ids must be 1..p in any row order")
    try:
        return CoarseRanking(blocks[b] for b in sorted(blocks))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _read_column(path: str, column: str) -> np.ndarray:
    linenos, cols = _read_csv(path, (column,))
    if not linenos:
        raise ValidationError(f"{path}: no data rows")
    return _parse_finite(path, linenos, column, cols[column])




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
    "seed": _Param(_INT, "RNG seed (fallback: ISOMECH_SEED, then 0)"),
    "threads": _Param(_INT, "max worker threads for Monte-Carlo chunks"),
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
    flags: tuple[str, ...]  # besides --seed, --out and --format, which all take
    required: tuple[str, ...]
    defaults: dict[str, Any]


_COMMANDS: dict[str, _Command] = {
    "fit": _Command(
        "adjust one score vector under a ranking or blocks", ("scores",),
        ("ranking", "blocks", "family"), ("scores",), {"out": "adjusted.csv"}),
    "truthfulness": _Command(
        "expected utility of every ranking", (),
        ("family", "mu_star", "utility", "scores_per_item", "trials", "threads"),
        ("family", "mu_star"),
        {"out": "utilities.csv", "utility": "relu_square", "scores_per_item": 3,
         "trials": 100_000}),
    "estimation": _Command(
        "error of adjusted vs raw scores across n", (),
        ("family", "n_grid", "ramp_hi", "ramp_lo", "pool", "mu_star", "scores_per_item",
         "trials", "threads"),
        ("family", "n_grid"),
        {"out": "curve.csv", "scores_per_item": 3, "trials": 1000, "ramp_hi": 9.0,
         "ramp_lo": 3.0}),
    "minimax": _Command(
        "risk-vs-n slope plus the lower-bound construction", (),
        ("family", "v_min", "v_max", "n_grid", "trials", "construction_n", "c",
         "construction_out", "threads"),
        ("family", "v_min", "v_max", "n_grid"),
        {"out": "rate.csv", "trials": 500, "construction_out": "construction.json"}),
    "icml": _Command(
        "surrogate-truth evaluation of review/author CSVs", ("reviews", "authors"), (),
        ("reviews", "authors"), {"out": "table1.csv"}),
    "synthetic": _Command(
        "synthetic review study from a score pool", ("pool",), ("n_grid", "trials", "threads"),
        ("pool",), {"out": "table2.csv", "trials": 1000, "n_grid": list(range(2, 18))}),
    "check-majorization": _Command(
        "majorization verdict for two vectors", ("a", "b"), ("mode",), ("a", "b"),
        {"mode": "standard"}),
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
    each converted by its ``_PARAMS`` entry."""
    command = _COMMANDS[args.command]
    params = _load_config(args.config)
    params.update((key, value) for key, value in vars(args).items()
                  if key in _PARAMS and value is not None)
    for key, value in {"format": "csv", **command.defaults}.items():
        params.setdefault(key, value)
    if params.get("seed") is None:
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
    if params["seed"] < 0:
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
    columns = [range(1, n + 1), scores.tolist(), fit.mu_hat.tolist()]
    if family is not None:
        columns.append(fit.theta_hat.tolist())
    return _finish("fit", params, header, zip(*columns))


def _cmd_truthfulness(params: dict[str, Any]) -> int:
    mu_star = params["mu_star"]
    results = rank_all_utilities(
        family_from_dict(params["family"]), mu_star, UtilityFn.from_spec(str(params["utility"])),
        scores_per_item=params["scores_per_item"], trials=params["trials"],
        seed=params["seed"], max_workers=params.get("threads"),
    )
    truthful = Ranking.from_scores(mu_star).perm
    rows = [
        (";".join(map(str, ranking.perm)), est.mean, est.std_error,
         int(ranking.perm == truthful))
        for ranking, est in results
    ]
    return _finish("truthfulness", params, ["ranking", "mean", "std_error", "truthful"], rows)


def _make_generator(params: dict[str, Any]):
    if params.get("pool"):
        pool = _read_column(str(params["pool"]), "score")
        return PoolResample(pool=tuple(float(v) for v in pool))
    if params.get("mu_star"):
        return ExplicitScores(values=tuple(params["mu_star"]))
    return LinearRamp(hi=params["ramp_hi"], lo=params["ramp_lo"])


def _cmd_estimation(params: dict[str, Any]) -> int:
    cfg = EstimationConfig(
        family=family_from_dict(params["family"]),
        n_grid=tuple(params["n_grid"]),
        generator=_make_generator(params),
        scores_per_item=params["scores_per_item"],
        trials=params["trials"],
        seed=params["seed"],
    )
    points = estimation_error_curve(cfg, max_workers=params.get("threads"))
    rows = [
        (p.n, p.trials, p.mse_im, p.mse_im_se, p.mse_raw, p.mse_raw_se)
        for p in points
    ]
    return _finish("estimation", params,
                   ["n", "trials", "mse_im", "mse_im_se", "mse_raw", "mse_raw_se"], rows)


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
    rows = [(p.n, p.risk, p.risk_se) for p in report.points]
    _finish("minimax", params, ["n", "risk", "risk_se"], rows,
            extra=(params["construction_out"], summary))
    print(f"slope={report.slope:.6g} intercept={report.intercept:.6g}")
    return 0


def _read_reviews(path: str) -> ReviewTable:
    linenos, cols = _read_csv(path, ("submission_id", "score", "confidence"))
    scores = _parse_finite(path, linenos, "score", cols["score"])
    confidences = _parse_column(path, linenos, "confidence", cols["confidence"], int)
    try:
        confidences = np.asarray(confidences, dtype=np.int64)
    except OverflowError:
        k = next(k for k, c in enumerate(confidences) if not -2**63 <= c < 2**63)
        raise ValidationError(
            f"{path} line {linenos[k]}: confidence must be a 64-bit integer, "
            f"got {cols['confidence'][k]!r}"
        ) from None
    return ReviewTable(tuple(cols["submission_id"]), scores, confidences)


def _read_authors(path: str) -> list[AuthorRecord]:
    linenos, cols = _read_csv(path, ("author_id", "submission_ids", "ranking"))
    authors = []
    for lineno, author_id, sid_cell, rank_cell in zip(
        linenos, cols["author_id"], cols["submission_ids"], cols["ranking"]
    ):
        sids = tuple(tok.strip() for tok in sid_cell.split(";") if tok.strip())
        tokens = [tok for tok in rank_cell.split(";") if tok.strip()]
        ranks = tuple(_parse_column(path, itertools.repeat(lineno), "ranking", tokens, int))
        if not sids:
            raise ValidationError(f"{path} line {lineno}: author {author_id} lists no submissions")
        if len(sids) != len(ranks):
            raise ValidationError(
                f"{path} line {lineno}: {len(sids)} submissions but {len(ranks)} ranks"
            )
        repeated = _first_repeat(sids)
        if repeated is not None:
            raise ValidationError(f"{path} line {lineno}: submission {repeated!r} listed twice")
        authors.append(AuthorRecord(author_id, sids, ranks))
    return authors



def _cmd_icml(params: dict[str, Any]) -> int:
    reviews = _read_reviews(params["reviews"])
    authors = _read_authors(params["authors"])
    report = surrogate_eval(reviews, authors, seed=params["seed"])
    rows = [
        (r.n, r.authors, r.mse_raw, r.mse_im, r.improvement) for r in report.rows
    ]
    return _finish(
        "icml", params, ["n", "authors", "mse_raw", "mse_im", "improvement"], rows,
        record={"skipped_submissions": report.skipped_submissions,
                "skipped_authors": report.skipped_authors, "tie_breaks": report.tie_breaks},
    )


def _cmd_synthetic(params: dict[str, Any]) -> int:
    pool = _read_column(str(params["pool"]), "score")
    rows_out = synthetic_icml_study(
        pool, n_grid=params["n_grid"], trials=params["trials"],
        seed=params["seed"], max_workers=params.get("threads"),
    )
    rows = [
        (r.n, r.trials, r.mse_im_mean, r.mse_im_std, r.mse_raw_mean,
         r.mse_raw_std, r.improvement)
        for r in rows_out
    ]
    return _finish(
        "synthetic", params,
        ["n", "trials", "mse_im_mean", "mse_im_std", "mse_raw_mean", "mse_raw_std", "improvement"],
        rows,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isomech",
        description="Ranking-constrained score adjustment and its experiment suite.",
    )
    parser.add_argument("--version", action="version", version=f"isomech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.inputs:
            p.add_argument(key, nargs="?", help=_PARAMS[key].help)
        for key in command.flags + ("seed", "out", "format"):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_PARAMS[key].help)
        p.add_argument("--config", help="JSON config or replay sidecar; flags override")
        p.add_argument("--log-level", dest="log_level", default="warning",
                       choices=["debug", "info", "warning", "error"],
                       help="least severity of the log lines written to stderr (default warning)")
        p.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # the stderr of this call (tests and in-process callers swap it), detached on return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("isomech")
    saved_level = logger.level
    logger.setLevel(args.log_level.upper())
    logger.addHandler(handler)
    try:
        return args.func(_effective(args))
    except (ValidationError, InvalidParameterError, FileNotFoundError) as exc:
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
