"""Command-line front end.

Subcommands wire CSV/JSON files to the library: ``fit`` adjusts one score
vector, ``truthfulness`` sweeps all rankings of a small instance,
``estimation``/``minimax`` run the error-curve and rate studies, ``icml``
and ``synthetic`` produce the review-data style tables, and
``check-majorization`` compares two vectors.

Conventions: CSV in and out with header rows, UTF-8, '.' decimal, floats at
12 significant digits.  Every file-producing run writes a ``<out>.meta.json``
sidecar with the effective parameters; feeding that sidecar back through
``--config`` replays the run byte for byte.  Flags override config-file
values; a missing seed falls back to the ISOMECH_SEED environment variable,
then to 0.  Exit codes: 0 success, 1 computation failure (running out of
memory included), 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .errors import InvalidParameterError, IsomechError, ValidationError
from .expfam import Family, ScoreBounds, family_from_dict, family_from_spec
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
    ReviewRecord,
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


def _write_sidecar(out_path: str, command: str, params: dict[str, Any],
                   outputs: Sequence[str]) -> None:
    sidecar = {
        "command": command,
        "params": params,
        "outputs": list(outputs),
        "version": __version__,
    }
    with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
# Config plumbing
# ---------------------------------------------------------------------------


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


def _effective(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Config-file values, overridden by explicit flags, backfilled by defaults."""
    params = _load_config(getattr(args, "config", None))
    for key, value in vars(args).items():
        if key in ("command", "config", "func") or value is None:
            continue
        params[key] = value
    for key, value in defaults.items():
        params.setdefault(key, value)
    if params.get("seed") is None:
        params["seed"] = _number(os.environ.get("ISOMECH_SEED", "0"), "ISOMECH_SEED", int)
    params["seed"] = _number(params["seed"], "seed", int)
    if params["seed"] < 0:
        raise ValidationError(f"seed: {params['seed']} is negative; seeds are integers >= 0")
    if params.get("threads") is not None:
        params["threads"] = _number(params["threads"], "threads", int)
    return params


def _family_from_params(value: Any) -> Family:
    if isinstance(value, dict):
        return family_from_dict(value)
    return family_from_spec(str(value))


def _number(value: Any, name: str, kind: type = float):
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name}: {value!r} is not {what}") from None


def _number_list(value: Any, flag: str, kind: type) -> list:
    tokens = value.replace(",", " ").split() if isinstance(value, str) else value
    if not isinstance(tokens, (list, tuple)):
        raise ValidationError(f"{flag}: expected a comma-separated list, got {value!r}")
    return [_number(tok, flag, kind) for tok in tokens]


def _int_list(value: Any) -> list[int]:
    return _number_list(value, "--n-grid", int)


def _float_list(value: Any) -> list[float]:
    return _number_list(value, "--mu-star", float)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _require(params: dict[str, Any], key: str, what: str) -> Any:
    value = params.get(key)
    if value in (None, ""):
        raise ValidationError(f"missing {what}; pass it as an argument or in --config")
    return value


def _cmd_fit(args: argparse.Namespace) -> int:
    params = _effective(args, {"out": "adjusted.csv", "format": "csv"})
    if bool(params.get("ranking")) == bool(params.get("blocks")):
        raise ValidationError("fit needs exactly one of --ranking or --blocks")
    scores = _read_scores(_require(params, "scores", "a scores CSV"))
    n = scores.size
    family = _family_from_params(params["family"]) if params.get("family") else None

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
    rows = zip(*columns)
    out = params["out"]
    _write_table(out, header, rows, params["format"])
    if family is not None:
        params["family"] = family.to_dict()
    _write_sidecar(out, "fit", params, [out])
    return 0


def _cmd_truthfulness(args: argparse.Namespace) -> int:
    params = _effective(
        args,
        {"out": "utilities.csv", "format": "csv", "utility": "relu_square",
         "scores_per_item": 3, "trials": 100_000},
    )
    family = _family_from_params(_require(params, "family", "a family spec"))
    mu_star = _float_list(_require(params, "mu_star", "the true scores mu_star"))
    params["mu_star"] = mu_star
    utility = UtilityFn.from_spec(str(params["utility"]))
    results = rank_all_utilities(
        family, mu_star, utility,
        scores_per_item=_number(params["scores_per_item"], "scores_per_item", int),
        trials=_number(params["trials"], "trials", int), seed=params["seed"],
        max_workers=params.get("threads"),
    )
    truthful = Ranking.from_scores(mu_star).perm
    rows = [
        (";".join(map(str, ranking.perm)), est.mean, est.std_error,
         int(ranking.perm == truthful))
        for ranking, est in results
    ]
    out = params["out"]
    _write_table(out, ["ranking", "mean", "std_error", "truthful"], rows, params["format"])
    params["family"] = family.to_dict()
    _write_sidecar(out, "truthfulness", params, [out])
    return 0


def _make_generator(params: dict[str, Any]):
    if params.get("pool"):
        pool = _read_column(str(params["pool"]), "score")
        return PoolResample(pool=tuple(float(v) for v in pool))
    if params.get("mu_star"):
        return ExplicitScores(values=tuple(_float_list(params["mu_star"])))
    return LinearRamp(
        hi=_number(params["ramp_hi"], "ramp_hi"), lo=_number(params["ramp_lo"], "ramp_lo")
    )


def _cmd_estimation(args: argparse.Namespace) -> int:
    params = _effective(
        args,
        {"out": "curve.csv", "format": "csv", "scores_per_item": 3,
         "trials": 1000, "ramp_hi": 9.0, "ramp_lo": 3.0},
    )
    family = _family_from_params(_require(params, "family", "a family spec"))
    cfg = EstimationConfig(
        family=family,
        n_grid=tuple(_int_list(_require(params, "n_grid", "an n grid"))),
        generator=_make_generator(params),
        scores_per_item=_number(params["scores_per_item"], "scores_per_item", int),
        trials=_number(params["trials"], "trials", int),
        seed=params["seed"],
    )
    points = estimation_error_curve(cfg, max_workers=params.get("threads"))
    rows = [
        (p.n, p.trials, p.mse_im, p.mse_im_se, p.mse_raw, p.mse_raw_se)
        for p in points
    ]
    out = params["out"]
    _write_table(
        out, ["n", "trials", "mse_im", "mse_im_se", "mse_raw", "mse_raw_se"],
        rows, params["format"],
    )
    params["family"] = family.to_dict()
    params["n_grid"] = list(cfg.n_grid)
    _write_sidecar(out, "estimation", params, [out])
    return 0


def _cmd_minimax(args: argparse.Namespace) -> int:
    params = _effective(
        args,
        {"out": "rate.csv", "format": "csv", "trials": 500,
         "construction_out": "construction.json"},
    )
    family = _family_from_params(_require(params, "family", "a family spec"))
    bounds = ScoreBounds(
        _number(_require(params, "v_min", "v_min"), "v_min"),
        _number(_require(params, "v_max", "v_max"), "v_max"),
    )
    n_grid = _int_list(_require(params, "n_grid", "an n grid"))
    report = rate_check(
        family, bounds, n_grid, trials=_number(params["trials"], "trials", int),
        seed=params["seed"], max_workers=params.get("threads"),
    )
    out = params["out"]
    rows = [(p.n, p.risk, p.risk_se) for p in report.points]
    _write_table(out, ["n", "risk", "risk_se"], rows, params["format"])

    construction_n = _number(params.get("construction_n") or max(n_grid), "construction_n", int)
    c = params.get("c")
    construction = build_lower_bound(
        family, bounds, construction_n,
        c=_number(c, "c") if c is not None else None, seed=params["seed"],
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
    cons_out = params["construction_out"]
    with open(cons_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    params["family"] = family.to_dict()
    params["n_grid"] = list(n_grid)
    _write_sidecar(out, "minimax", params, [out, cons_out])
    print(f"slope={report.slope:.6g} intercept={report.intercept:.6g}")
    return 0


def _read_reviews(path: str) -> list[ReviewRecord]:
    linenos, cols = _read_csv(path, ("submission_id", "score", "confidence"))
    scores = _parse_finite(path, linenos, "score", cols["score"]).tolist()
    confidences = _parse_column(path, linenos, "confidence", cols["confidence"], int)
    return list(map(ReviewRecord, cols["submission_id"], scores, confidences))


def _read_authors(path: str) -> list[AuthorRecord]:
    linenos, cols = _read_csv(path, ("author_id", "submission_ids", "ranking"))
    authors = []
    for lineno, author_id, sid_cell, rank_cell in zip(
        linenos, cols["author_id"], cols["submission_ids"], cols["ranking"]
    ):
        sids = tuple(tok.strip() for tok in sid_cell.split(";") if tok.strip())
        tokens = [tok for tok in rank_cell.split(";") if tok.strip()]
        ranks = tuple(_parse_column(path, itertools.repeat(lineno), "ranking", tokens, int))
        if len(sids) != len(ranks):
            raise ValidationError(
                f"{path} line {lineno}: {len(sids)} submissions but {len(ranks)} ranks"
            )
        authors.append(AuthorRecord(author_id, sids, ranks))
    return authors


def _cmd_icml(args: argparse.Namespace) -> int:
    params = _effective(args, {"out": "table1.csv", "format": "csv"})
    reviews = _read_reviews(_require(params, "reviews", "a reviews CSV"))
    authors = _read_authors(_require(params, "authors", "an authors CSV"))
    report = surrogate_eval(reviews, authors, seed=params["seed"])
    rows = [
        (r.n, r.authors, r.mse_raw, r.mse_im, r.improvement) for r in report.rows
    ]
    out = params["out"]
    _write_table(out, ["n", "authors", "mse_raw", "mse_im", "improvement"], rows, params["format"])
    params["skipped_submissions"] = report.skipped_submissions
    params["skipped_authors"] = report.skipped_authors
    params["tie_breaks"] = report.tie_breaks
    _write_sidecar(out, "icml", params, [out])
    return 0


def _cmd_synthetic(args: argparse.Namespace) -> int:
    params = _effective(
        args, {"out": "table2.csv", "format": "csv", "trials": 1000,
               "n_grid": list(range(2, 18))},
    )
    pool = _read_column(str(_require(params, "pool", "a score-pool CSV")), "score")
    rows_out = synthetic_icml_study(
        pool, n_grid=_int_list(params["n_grid"]), trials=_number(params["trials"], "trials", int),
        seed=params["seed"], max_workers=params.get("threads"),
    )
    rows = [
        (r.n, r.trials, r.mse_im_mean, r.mse_im_std, r.mse_raw_mean,
         r.mse_raw_std, r.improvement)
        for r in rows_out
    ]
    out = params["out"]
    _write_table(
        out,
        ["n", "trials", "mse_im_mean", "mse_im_std", "mse_raw_mean", "mse_raw_std", "improvement"],
        rows, params["format"],
    )
    params["n_grid"] = _int_list(params["n_grid"])
    _write_sidecar(out, "synthetic", params, [out])
    return 0


def _cmd_check_majorization(args: argparse.Namespace) -> int:
    params = _effective(args, {"mode": "standard"})
    a = _read_column(_require(params, "a", "the first vector CSV"), "value")
    b = _read_column(_require(params, "b", "the second vector CSV"), "value")
    mode = str(params["mode"])
    predicate = {
        "standard": majorizes,
        "natural": majorizes_natural_order,
        "weak": weakly_majorizes,
    }.get(mode)
    if predicate is None:
        raise ValidationError(f"unknown mode {mode!r}; pick standard, natural, or weak")
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

    def common(p: argparse.ArgumentParser, threads: bool = True) -> None:
        p.add_argument("--config", help="JSON config or replay sidecar; flags override")
        p.add_argument("--seed", type=int, help="RNG seed (fallback: ISOMECH_SEED, then 0)")
        if threads:
            p.add_argument("--threads", type=int, help="max worker threads for Monte-Carlo chunks")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")

    p = sub.add_parser("fit", help="adjust one score vector under a ranking or blocks")
    p.add_argument("scores", nargs="?", help="CSV with header index,score")
    p.add_argument("--ranking", help="CSV with header rank,index (rank 1 = best)")
    p.add_argument("--blocks", help="CSV with header block,index (block 1 = best)")
    p.add_argument("--family", help="family spec, e.g. binomial:10 or JSON")
    common(p, threads=False)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("truthfulness", help="expected utility of every ranking")
    p.add_argument("--family", help="family spec")
    p.add_argument("--mu-star", dest="mu_star", help="true scores, e.g. '8,7,6,4'")
    p.add_argument("--utility", help="relu_square | identity | exp:ALPHA | hinge:T")
    p.add_argument("--scores-per-item", dest="scores_per_item", type=int)
    p.add_argument("--trials", type=int)
    common(p)
    p.set_defaults(func=_cmd_truthfulness)

    p = sub.add_parser("estimation", help="error of adjusted vs raw scores across n")
    p.add_argument("--family", help="family spec")
    p.add_argument("--n-grid", dest="n_grid", help="submission counts, e.g. '10,50,200'")
    p.add_argument("--ramp-hi", dest="ramp_hi", type=float)
    p.add_argument("--ramp-lo", dest="ramp_lo", type=float)
    p.add_argument("--pool", help="CSV score pool (header: score) to resample true scores")
    p.add_argument("--mu-star", dest="mu_star", help="explicit true scores")
    p.add_argument("--scores-per-item", dest="scores_per_item", type=int)
    p.add_argument("--trials", type=int)
    common(p)
    p.set_defaults(func=_cmd_estimation)

    p = sub.add_parser("minimax", help="risk-vs-n slope plus the lower-bound construction")
    p.add_argument("--family", help="family spec")
    p.add_argument("--v-min", dest="v_min", type=float)
    p.add_argument("--v-max", dest="v_max", type=float)
    p.add_argument("--n-grid", dest="n_grid", help="e.g. '32,64,128'")
    p.add_argument("--trials", type=int)
    p.add_argument("--construction-n", dest="construction_n", type=int)
    p.add_argument("--c", type=float, help="packing perturbation scale (default c_var/16)")
    p.add_argument("--construction-out", dest="construction_out")
    common(p)
    p.set_defaults(func=_cmd_minimax)

    p = sub.add_parser("icml", help="surrogate-truth evaluation of review/author CSVs")
    p.add_argument("reviews", nargs="?", help="CSV: submission_id,score,confidence")
    p.add_argument("authors", nargs="?", help="CSV: author_id,submission_ids,ranking")
    common(p, threads=False)
    p.set_defaults(func=_cmd_icml)

    p = sub.add_parser("synthetic", help="synthetic review study from a score pool")
    p.add_argument("pool", nargs="?", help="one-column CSV (header: score)")
    p.add_argument("--n-grid", dest="n_grid")
    p.add_argument("--trials", type=int)
    common(p)
    p.set_defaults(func=_cmd_synthetic)

    p = sub.add_parser("check-majorization", help="majorization verdict for two vectors")
    p.add_argument("a", nargs="?", help="one-column CSV (header: value)")
    p.add_argument("b", nargs="?", help="one-column CSV (header: value)")
    p.add_argument("--mode", choices=["standard", "natural", "weak"])
    common(p, threads=False)
    p.set_defaults(func=_cmd_check_majorization)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InvalidParameterError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IsomechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory", *exc.args, sep=": ", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
