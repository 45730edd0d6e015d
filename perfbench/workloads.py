"""The three workloads: their inputs, one round of CLI calls, and output checks.

Every workload builds its inputs from the benchmark seed alone and checks
the program's outputs against the oracles in ``oracles.py`` or against
properties the method must have, never against stored outputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, its documented exit code and its files."""

    argv: tuple[str, ...]
    expect: int = 0
    reads: tuple[Path, ...] = ()
    writes: tuple[Path, ...] = ()


def _sidecar(path: Path) -> Path:
    return Path(f"{path}.meta.json")


def _read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=False))


# ---------------------------------------------------------------------------
# minimax: the rate check plus the lower-bound construction
# ---------------------------------------------------------------------------

RATE_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
RATE_TRIALS = 500
CONSTRUCTION_N = 512
CONSTRUCTION_C = 0.085


class Minimax:
    """Criterion-7 rate configuration and the criterion-8 n = 512 construction."""

    tick = "scalar"

    def __init__(self, workdir: Path, seed: int):
        self.rate = workdir / "rate.csv"
        self.construction = workdir / "construction.json"
        self.seed = seed

    def prepare(self) -> list[Op]:
        return [Op(
            argv=("minimax", "--family", "binomial:10", "--v-min", "0", "--v-max", "10",
                  "--n-grid", ",".join(map(str, RATE_GRID)), "--trials", str(RATE_TRIALS),
                  "--construction-n", str(CONSTRUCTION_N), "--c", str(CONSTRUCTION_C),
                  "--seed", str(self.seed), "--out", str(self.rate),
                  "--construction-out", str(self.construction)),
            writes=(self.rate, _sidecar(self.rate), self.construction),
        )]

    def check(self) -> list[str]:
        problems = []
        rows = _read_table(self.rate)
        ns = [int(r["n"]) for r in rows]
        risks = np.asarray([float(r["risk"]) for r in rows])
        if tuple(ns) != RATE_GRID:
            return [f"rate table covers n = {ns}, expected {list(RATE_GRID)}"]
        if not np.all(np.diff(risks) > 0):
            problems.append(f"risk does not rise with n: {risks.tolist()}")
        for n, risk in zip(ns, risks):
            raw = oracles.raw_binomial_risk(oracles.ramp(n))
            if not 0 < risk < 0.5 * raw:
                problems.append(f"risk {risk} at n={n} is not far below the raw risk {raw}")
        slope, intercept = np.polyfit(np.log(ns), np.log(risks), deg=1)
        cons = json.loads(self.construction.read_text(encoding="utf-8"))
        if not 0.18 <= cons["slope"] <= 0.48:
            problems.append(f"slope {cons['slope']} outside [0.18, 0.48]")
        if not (abs(cons["slope"] - slope) < 1e-8 and abs(cons["intercept"] - intercept) < 1e-8):
            problems.append(f"slope/intercept {cons['slope']}/{cons['intercept']} do not fit "
                            f"the rate table ({slope}/{intercept})")

        want = oracles.binomial_lower_bound_constants(CONSTRUCTION_N, CONSTRUCTION_C)
        margins = cons["margins"]
        cap = math.log(cons["codewords"]) / 8.0
        expected = [
            ("n", cons["n"] == CONSTRUCTION_N),
            ("c", cons["c"] == CONSTRUCTION_C),
            ("k", cons["k"] == want["k"]),
            ("target", cons["target"] == want["target"]),
            ("codewords >= target", cons["codewords"] >= want["target"]),
            ("gamma", _close(cons["gamma"], want["gamma"])),
            ("block_sizes", cons["block_sizes"] == want["block_sizes"]),
            ("dist2_floor", _close(margins["dist2_floor"], want["dist2_floor"])),
            ("kl_bound", _close(margins["kl_bound"], want["kl_bound"])),
            ("kl_cap = log(codewords)/8", _close(margins["kl_cap"], cap)),
            ("min_hamming >= k/8", margins["min_hamming"] >= want["k"] / 8.0),
            ("min_dist2 >= floor", margins["min_dist2"] >= want["dist2_floor"]),
            ("kl_budget < cap", margins["kl_budget"] < cap),
            ("kl_budget <= kl_bound", margins["kl_budget"] <= want["kl_bound"] * (1 + 1e-9)),
        ]
        problems += [f"construction: {label} fails ({cons})" for label, ok in expected if not ok]
        return problems


# ---------------------------------------------------------------------------
# truthfulness: every ranking of n = 5
# ---------------------------------------------------------------------------

MU_STAR = (8.0, 7.0, 6.0, 5.0, 4.0)
REVIEWS_PER_ITEM = 3
ORACLE_TRIALS = 10_000
MAX_Z = 5.0


class Truthfulness:
    """All 120 rankings of mu* = 8,7,6,5,4 under relu_square, CLI default trials."""

    tick = "array"

    def __init__(self, workdir: Path, seed: int):
        self.out = workdir / "utilities.csv"
        self.seed = seed

    def prepare(self) -> list[Op]:
        return [Op(
            argv=("truthfulness", "--family", "binomial:10",
                  "--mu-star", ",".join(f"{m:g}" for m in MU_STAR),
                  "--utility", "relu_square", "--seed", str(self.seed), "--out", str(self.out)),
            writes=(self.out, _sidecar(self.out)),
        )]

    def oracle_estimates(self, perms) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of sum relu(fit)^2 per ranking, from the
        benchmark's own sampler and the brute-force projection."""
        rng = np.random.default_rng([self.seed, 0xBE4C])
        mu = np.asarray(MU_STAR)
        draws = rng.binomial(oracles.BINOMIAL_M, mu[None, :, None] / oracles.BINOMIAL_M,
                             size=(ORACLE_TRIALS, mu.size, REVIEWS_PER_ITEM))
        x = draws.mean(axis=2)
        means, ses = [], []
        for perm in perms:
            fit = oracles.brute_force_project(x[:, np.asarray(perm) - 1])
            u = np.square(np.maximum(fit, 0.0)).sum(axis=1)
            means.append(u.mean())
            ses.append(u.std(ddof=1) / math.sqrt(u.size))
        return np.asarray(means), np.asarray(ses)

    def check(self) -> list[str]:
        rows = _read_table(self.out)
        perms = [tuple(int(t) for t in r["ranking"].split(";")) for r in rows]
        n = len(MU_STAR)
        if sorted(perms) != sorted(itertools.permutations(range(1, n + 1))):
            return [f"expected each of the {math.factorial(n)} rankings once, got {len(perms)} rows"]
        problems = []
        truthful = tuple(range(1, n + 1))
        if perms[0] != truthful or rows[0]["truthful"] != "1":
            problems.append(f"first row is {rows[0]}, not the truthful ranking")
        if sum(r["truthful"] == "1" for r in rows) != 1:
            problems.append("truthful flag is not set on exactly one row")
        means = np.asarray([float(r["mean"]) for r in rows])
        ses = np.asarray([float(r["std_error"]) for r in rows])
        if np.any(np.diff(means) > 0):
            problems.append("rows are not sorted by descending mean")
        want, want_se = self.oracle_estimates(perms)
        z = np.abs(means - want) / np.sqrt(ses**2 + want_se**2)
        for k in np.flatnonzero(z > MAX_Z)[:5]:
            problems.append(f"ranking {perms[k]}: mean {means[k]} vs oracle {want[k]} "
                            f"({z[k]:.1f} standard errors apart)")
        return problems


# ---------------------------------------------------------------------------
# records: single-vector fits, the review table and malformed flags
# ---------------------------------------------------------------------------

FIT_N = 20_000
FIT_BLOCK = 8
SUBMISSIONS = 20_000
AUTHORS = 8_000
REVIEW_COUNTS = ((1, 0.05), (2, 0.20), (3, 0.40), (4, 0.25), (5, 0.10))
AUTHOR_SIZES = ((1, 0.30), (2, 0.22), (3, 0.16), (4, 0.11), (5, 0.08), (6, 0.06),
                (7, 0.04), (8, 0.03))
MALFORMED_SHARE = 0.01


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class Records:
    """One long score vector fitted three ways, an ICML-style review table,
    and three calls with malformed flags that must exit 2."""

    tick = "scalar"

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        p = workdir.joinpath
        self.scores, self.ranking, self.blocks = p("scores.csv"), p("ranking.csv"), p("blocks.csv")
        self.fit_rank, self.fit_blocks, self.fit_mle = p("fit_rank.csv"), p("fit_blocks.csv"), p("fit_mle.csv")
        self.reviews, self.authors, self.table = p("reviews.csv"), p("authors.csv"), p("table1.csv")
        self.small_scores, self.small_ranking = p("small_scores.csv"), p("small_ranking.csv")
        self.rejected = p("rejected.csv")

    # -- inputs ----------------------------------------------------------------

    def _generate(self) -> None:
        rng = np.random.default_rng([self.seed, 0x5EC0])
        m = oracles.BINOMIAL_M
        # long vector: means of three Binomial(10) reviews around true means in [3, 8]
        mu = rng.uniform(3.0, 8.0, FIT_N)
        x = rng.binomial(m, mu[:, None] / m, size=(FIT_N, REVIEWS_PER_ITEM)).mean(axis=1)
        _write_csv(self.scores, ["index", "score"],
                   ((i + 1, f"{v:.6f}") for i, v in enumerate(x)))
        # reported ranking: the true order seen through noise, best first
        perm = np.argsort(-(mu + rng.normal(0.0, 0.5, FIT_N)), kind="stable") + 1
        _write_csv(self.ranking, ["rank", "index"], ((r + 1, i) for r, i in enumerate(perm)))
        _write_csv(self.blocks, ["block", "index"],
                   ((r // FIT_BLOCK + 1, i) for r, i in enumerate(perm)))
        _write_csv(self.small_scores, ["index", "score"], ((i, 9 - i) for i in range(1, 6)))
        _write_csv(self.small_ranking, ["rank", "index"], ((i, i) for i in range(1, 6)))

        # reviews: integer scores 1..10 around a submission quality, confidence 1..5
        quality = rng.uniform(2.0, 9.0, SUBMISSIONS)
        sizes, probs = zip(*REVIEW_COUNTS)
        counts = rng.choice(sizes, size=SUBMISSIONS, p=probs)
        owner = np.repeat(np.arange(SUBMISSIONS), counts)
        score = np.clip(np.rint(quality[owner] + rng.normal(0.0, 1.2, owner.size)), 1, 10)
        confidence = rng.integers(1, 6, owner.size)
        order = rng.permutation(owner.size)
        _write_csv(self.reviews, ["submission_id", "score", "confidence"],
                   ((f"s{owner[i]:05d}", int(score[i]), int(confidence[i])) for i in order))

        # authors: 1..8 submissions each, ranked by quality seen through noise
        sizes, probs = zip(*AUTHOR_SIZES)
        rows = []
        for a, n in enumerate(rng.choice(sizes, size=AUTHORS, p=probs)):
            subs = rng.choice(SUBMISSIONS, size=n, replace=False)
            noisy = quality[subs] + rng.normal(0.0, 0.7, n)
            ranks = np.empty(n, dtype=int)
            ranks[np.argsort(-noisy, kind="stable")] = np.arange(1, n + 1)
            if n > 1 and rng.random() < MALFORMED_SHARE:
                ranks[0] = ranks[1]
            rows.append((f"a{a:05d}", ";".join(f"s{s:05d}" for s in subs),
                         ";".join(map(str, ranks))))
        _write_csv(self.authors, ["author_id", "submission_ids", "ranking"], rows)

    def prepare(self) -> list[Op]:
        self._generate()
        fit = ("fit", str(self.scores))
        return [
            Op(fit + ("--ranking", str(self.ranking), "--out", str(self.fit_rank)),
               reads=(self.scores, self.ranking), writes=(self.fit_rank, _sidecar(self.fit_rank))),
            Op(fit + ("--blocks", str(self.blocks), "--out", str(self.fit_blocks)),
               reads=(self.scores, self.blocks),
               writes=(self.fit_blocks, _sidecar(self.fit_blocks))),
            Op(fit + ("--ranking", str(self.ranking), "--family", "binomial:10",
                      "--out", str(self.fit_mle)),
               reads=(self.scores, self.ranking), writes=(self.fit_mle, _sidecar(self.fit_mle))),
            Op(("icml", str(self.reviews), str(self.authors), "--seed", str(self.seed),
                "--out", str(self.table)),
               reads=(self.reviews, self.authors), writes=(self.table, _sidecar(self.table))),
            # malformed flag values: documented result is exit code 2
            Op(("fit", str(self.small_scores), "--ranking", str(self.small_ranking),
                "--family", "binomial:ten", "--out", str(self.rejected)), expect=2,
               reads=(self.small_scores, self.small_ranking)),
            Op(("truthfulness", "--family", "binomial:10", "--mu-star", "8,x,6",
                "--trials", "10", "--out", str(self.rejected)), expect=2),
            Op(("estimation", "--family", "binomial:10", "--n-grid", "10,abc",
                "--trials", "10", "--out", str(self.rejected)), expect=2),
        ]

    # -- checks ----------------------------------------------------------------

    def _fit_table(self, path: Path, x: np.ndarray, problems: list[str]) -> dict[str, np.ndarray]:
        rows = _read_table(path)
        cols = {key: np.asarray([float(r[key]) for r in rows]) for key in rows[0]}
        if not np.array_equal(cols["index"], np.arange(1, x.size + 1)):
            problems.append(f"{path.name}: index column is not 1..{x.size}")
        elif not _close(cols["score"], x, rtol=1e-11):
            problems.append(f"{path.name}: score column does not echo the input")
        return cols

    def _check_fits(self) -> list[str]:
        problems: list[str] = []
        x = np.asarray([float(r["score"]) for r in _read_table(self.scores)])
        perm = np.asarray([int(r["index"]) for r in _read_table(self.ranking)]) - 1
        block = np.empty(x.size, dtype=int)
        for r in _read_table(self.blocks):
            block[int(r["index"]) - 1] = int(r["block"])

        plain = self._fit_table(self.fit_rank, x, problems)["adjusted"]
        problems += [f"fit --ranking: {p}" for p in oracles.isotonic_violations(x[perm], plain[perm])]

        coarse = self._fit_table(self.fit_blocks, x, problems)["adjusted"]
        # blocks in order; inside a block the scores descend (ties by index)
        order = np.lexsort((np.arange(x.size), -x, block))
        problems += [f"fit --blocks: {p}" for p in oracles.isotonic_violations(x[order], coarse[order])]

        mle = self._fit_table(self.fit_mle, x, problems)
        if not _close(mle["adjusted"], plain):
            problems.append("fit --family: adjusted column differs from the plain fit")
        mu = mle["adjusted"]
        with np.errstate(divide="ignore"):
            theta = np.log(mu) - np.log(oracles.BINOMIAL_M - mu)
        finite = np.isfinite(theta)
        if not (np.array_equal(finite, np.isfinite(mle["theta"]))
                and np.array_equal(theta[~finite], mle["theta"][~finite])
                and _close(mle["theta"][finite], theta[finite], rtol=1e-8, atol=1e-8)):
            problems.append("fit --family: theta column is not log(mu / (10 - mu))")
        return problems

    def _check_icml(self) -> list[str]:
        problems = []
        sidecar = json.loads(_sidecar(self.table).read_text(encoding="utf-8"))["params"]
        ties = {sid: int(pick) for sid, pick in sidecar["tie_breaks"].items()}
        reviews: dict[str, list[tuple[float, int]]] = {}
        for r in _read_table(self.reviews):
            reviews.setdefault(r["submission_id"], []).append(
                (float(r["score"]), int(r["confidence"])))

        surrogate = {}  # sid -> (truth: mean of the kept reviews, held-out score)
        bad_ties = []
        for sid, recs in reviews.items():
            if len(recs) < 2:
                continue
            conf = np.asarray([c for _, c in recs])
            least = np.flatnonzero(conf == conf.min())
            if least.size == 1:
                pick = int(least[0])
                if sid in ties:
                    bad_ties.append(f"{sid}: tie-break recorded without a tie")
            elif ties.get(sid) not in set(least.tolist()):
                bad_ties.append(f"{sid}: tie-break {ties.get(sid)} is not among {least.tolist()}")
                continue
            else:
                pick = ties[sid]
            kept = [s for i, (s, _) in enumerate(recs) if i != pick]
            surrogate[sid] = (sum(kept) / len(kept), recs[pick][0])
        bad_ties += [f"{sid}: tie-break recorded for a submission with fewer than 2 reviews"
                     for sid in ties if len(reviews.get(sid, ())) < 2]
        problems += bad_ties[:3]
        if len(bad_ties) > 3:
            problems.append(f"{len(bad_ties)} submissions with a wrong tie-break record in all")
        dropped = sum(len(recs) < 2 for recs in reviews.values())
        if sidecar["skipped_submissions"] != dropped:
            problems.append(f"skipped_submissions {sidecar['skipped_submissions']} != {dropped}")

        by_n: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        skipped = {"malformed_ranking": 0, "missing_submission": 0}
        for r in _read_table(self.authors):
            sids = r["submission_ids"].split(";")
            ranks = [int(t) for t in r["ranking"].split(";")]
            n = len(sids)
            if sorted(ranks) != list(range(1, n + 1)):
                skipped["malformed_ranking"] += 1
                continue
            if any(s not in surrogate for s in sids):
                skipped["missing_submission"] += 1
                continue
            best_first = [sids[j] for j in np.argsort(ranks)]
            truth, held = zip(*(surrogate[s] for s in best_first))
            by_n.setdefault(n, []).append((np.asarray(held), np.asarray(truth)))
        want_skipped = {k: v for k, v in skipped.items() if v}
        if sidecar["skipped_authors"] != want_skipped:
            problems.append(f"skipped_authors {sidecar['skipped_authors']} != {want_skipped}")

        table = {int(r["n"]): r for r in _read_table(self.table)}
        if sorted(table) != list(range(min(by_n), max(by_n) + 1)):
            return problems + [f"table rows n = {sorted(table)}, expected {min(by_n)}..{max(by_n)}"]
        for n, row in table.items():
            entries = by_n.get(n, [])
            if int(row["authors"]) != len(entries):
                problems.append(f"n={n}: {row['authors']} authors, expected {len(entries)}")
                continue
            if not entries:
                if any(row[k] != "NA" for k in ("mse_raw", "mse_im", "improvement")):
                    problems.append(f"n={n}: no authors but cells are not NA")
                continue
            held = np.stack([e[0] for e in entries])
            truth = np.stack([e[1] for e in entries])
            fit = oracles.brute_force_project(held)
            raw = float(np.mean(np.mean(np.square(held - truth), axis=1)))
            im = float(np.mean(np.mean(np.square(fit - truth), axis=1)))
            gain = (raw - im) / raw if raw > 0 else 0.0
            got = [float(row[k]) for k in ("mse_raw", "mse_im", "improvement")]
            if not _close(got, [raw, im, gain]):
                problems.append(f"n={n}: (mse_raw, mse_im, improvement) = {got}, "
                                f"recomputed {[raw, im, gain]}")
        return problems

    def check(self) -> list[str]:
        return self._check_fits() + self._check_icml()


WORKLOADS = {"minimax": Minimax, "truthfulness": Truthfulness, "records": Records}
