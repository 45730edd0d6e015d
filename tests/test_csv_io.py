"""CSV reading and writing of the CLI.

A plain file is parsed by one ``np.loadtxt`` call and any other file by the
csv walk; both must give the same values.  Every table is spelled a column
at a time and joined in one pass, which must write the bytes of the former
row-by-row writer (``helpers.reference_csv_table``), also for float arrays
that format each distinct value once.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from helpers import AuthorRecord, reference_csv_table, reference_surrogate_eval
from isomech import CoarseRanking, ValidationError, cli
from isomech.cli import main
from isomech.experiments import ReviewTable


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The number of ``np.loadtxt`` calls made so far, in a one-element list."""
    calls = [0]
    real = np.loadtxt

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


# ---------------------------------------------------------------------------
# Writing: every table command against the reference writer
# ---------------------------------------------------------------------------

TABLE_INPUTS = {
    "scores.csv": "index,score\n1,4.25\n2,6\n3,5.5\n4,1e-3\n5,7.125\n",
    "ranking.csv": "rank,index\n1,3\n2,1\n3,5\n4,2\n5,4\n",
    "blocks.csv": "block,index\n1,5\n1,2\n2,1\n2,4\n2,3\n",
    # n = 3 has no complete author, so its row holds NA cells
    "reviews.csv": "submission_id,score,confidence\n"
                   "a,6,5\na,7,1\nb,4,5\nb,5,1\n"
                   "c,5,3\nc,6,2\nd,3,3\nd,4,2\ne,8,3\ne,7,2\nf,6,3\nf,5,2\n",
    "authors.csv": "author_id,submission_ids,ranking\nalice,a;b,1;2\nbob,c;d;e;f,2;4;1;3\n",
    "pool.csv": "score\n" + "".join(f"{3 + 0.0625 * i}\n" for i in range(80)),
}
TABLE_RUNS = {
    "fit-ranking": ["fit", "scores.csv", "--ranking", "ranking.csv"],
    "fit-blocks": ["fit", "scores.csv", "--blocks", "blocks.csv"],
    "fit-family": ["fit", "scores.csv", "--ranking", "ranking.csv", "--family", "binomial:10"],
    "icml": ["icml", "reviews.csv", "authors.csv", "--seed", "5"],
    "truthfulness": ["truthfulness", "--family", "binomial:10", "--mu-star", "8,7,6",
                     "--trials", "600", "--seed", "4"],
    "estimation": ["estimation", "--family", "binomial:10", "--n-grid", "10,30",
                   "--trials", "120", "--seed", "9"],
    # the simulated review study: estimation on a score pool
    "synthetic": ["estimation", "--family", "binomial:10", "--pool", "pool.csv", "--n-grid", "2,5",
                  "--trials", "100", "--seed", "1"],
    "minimax": ["minimax", "--family", "gaussian:1.0", "--v-min", "0", "--v-max", "6",
                "--n-grid", "32,64", "--trials", "20", "--construction-n", "64", "--seed", "2"],
}


@pytest.mark.parametrize("run", list(TABLE_RUNS))
def test_tables_match_the_reference_writer(workdir, monkeypatch, capsys, run):
    for name, text in TABLE_INPUTS.items():
        write(workdir / name, text)
    tables = []
    real = cli._write_table

    def recording(fh, header, columns, fmt):
        tables.append((list(header), [c.tolist() if isinstance(c, np.ndarray) else list(c)
                                      for c in columns]))
        real(fh, header, columns, fmt)

    monkeypatch.setattr(cli, "_write_table", recording)
    assert main(TABLE_RUNS[run] + ["--out", "out.csv"]) == 0
    capsys.readouterr()
    [(header, columns)] = tables
    assert (workdir / "out.csv").read_bytes() == reference_csv_table(header, zip(*columns))
    if run == "icml":
        assert None in columns[2]
    if run == "truthfulness":
        assert all(isinstance(cell, str) for cell in columns[0])
        assert main(TABLE_RUNS[run] + ["--out", "out.json", "--format", "json"]) == 0
        rows = json.loads((workdir / "out.json").read_text())
        assert rows == [dict(zip(header, row)) for row in zip(*columns)]


def test_string_cells_are_quoted_as_csv_quotes_them(workdir):
    header = ["text", "value", "count"]
    columns = [["plain", "a,b", 'say "hi"', "two\nlines", "", None],
               [1.5, 2.0, float("inf"), -0.0, 1e-300, 3.0],
               [1, 2, 3, 4, 5, 6]]
    with open(workdir / "t.csv", "w", encoding="utf-8", newline="") as fh:
        cli._write_table(fh, header, columns, "csv")
    assert (workdir / "t.csv").read_bytes() == reference_csv_table(header, zip(*columns))


def _written(workdir, header, columns) -> bytes:
    with open(workdir / "t.csv", "w", encoding="utf-8", newline="") as fh:
        cli._write_table(fh, header, columns, "csv")
    return (workdir / "t.csv").read_bytes()


# float64 columns whose cells a writer keyed on values, not bits, or one that
# assumed few distinct values, would get wrong
HOSTILE_FLOATS = {
    "signed zeros": np.array([-0.0, 0.0, -0.0, 1.0, 0.0]),
    "infinities": np.array([np.inf, -np.inf, 2.5, np.nan, np.inf, -np.inf]),
    "extremes": np.array([5e-324, 1e300, -5e-324, 5e-324, -1e300]),
    "few distinct": np.random.default_rng(3).integers(0, 31, 20_000) / 3,
    "all distinct": np.random.default_rng(4).normal(size=20_000),
}


@pytest.mark.parametrize("name", list(HOSTILE_FLOATS))
def test_float_arrays_match_the_reference_writer(workdir, name):
    values = HOSTILE_FLOATS[name]
    header = ["index", "value", "negated", "listed"]
    columns = [np.arange(1, values.size + 1), values, -values, values.tolist()]
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    assert _written(workdir, header, columns) == reference_csv_table(header, rows)


def test_int_arrays_match_the_reference_writer(workdir):
    column = np.array([-2**63, 2**63 - 1, 0, -1, 7, 7], dtype=np.int64)
    header = ["count", "twice"]
    written = _written(workdir, header, [column, column // 2])
    assert written == reference_csv_table(header, zip(column.tolist(), (column // 2).tolist()))


@pytest.mark.parametrize("header, columns", [
    (["n", "value", "name"], [np.zeros(0, dtype=np.int64), np.zeros(0), []]),
    (["text"], [[""]]),
    (["text"], [["", "a", None, ""]]),
    ([""], [np.array([1.5])]),
])
def test_empty_tables_and_empty_cells_match_the_reference_writer(workdir, header, columns):
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    assert _written(workdir, header, columns) == reference_csv_table(header, rows)


# ---------------------------------------------------------------------------
# Reading: a plain file and the same data through the csv walk
# ---------------------------------------------------------------------------


def _numbers(rng, size):
    """Decimal spellings of scores, as a CSV writer or a person would put them."""
    values = rng.uniform(-50, 50, size).tolist()
    spellings = [f"{values[0]:.6f}", repr(values[1]), f"{values[2]:.3e}", "7", "-0", "1E2",
                 "  2.5 ", ".5", "5.", "1e-320", "00012"]
    return spellings + [repr(v) if i % 2 else f"{v:.4f}" for i, v in enumerate(values[11:])]


def _rows(rng):
    n = 40
    scores = _numbers(rng, n)
    index = rng.permutation(n) + 1
    ranked = rng.permutation(n) + 1
    ids = [f"s{k:02d}" for k in rng.integers(0, 12, 3 * n)] + ["é", " padded id "]
    authors = [(f"a{k}", f"s{2 * k:02d};s{2 * k + 1:02d}", "1;2" if k % 3 else " 2 ; 1")
               for k in range(6)]
    return {
        "scores": (["index", "score"], list(zip(map(str, index), scores)),
                   lambda path: cli._read_scores(path)),
        "ranking": (["rank", "index"], list(zip(map(str, range(1, n + 1)), map(str, ranked))),
                    lambda path: cli._read_ranking(path, n).perm),
        "blocks": (["block", "index"],
                   [(str(1 + r // 7), str(i)) for r, i in enumerate(ranked)],
                   lambda path: cli._read_blocks(path, n).blocks),
        "pool": (["score"], [(s,) for s in scores], lambda path: cli._read_column(path, "score")),
        "reviews": (["submission_id", "score", "confidence"],
                    [(sid, scores[k % n], str(k % 5 + 1)) for k, sid in enumerate(ids)],
                    lambda path: cli._read_reviews(path)),
        "authors": (["author_id", "submission_ids", "ranking"], authors,
                    lambda path: _author_columns(cli._read_authors(path, REVIEWS))),
    }


# ids s00 and s03 have reviews; the other ids of the author rows take fresh codes
REVIEWS = cli.ReviewTable(("s03", "s00"), [1.0, 2.0], [1, 1])


def _author_columns(table):
    return (table.author_ids, table.offsets.tolist(), table.codes.tolist(), table.ranks.tolist())


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, cli.ReviewTable):
        return (a.submission_ids == b.submission_ids and _same(a.scores, b.scores)
                and _same(a.confidences, b.confidences))
    return a == b


@pytest.mark.parametrize("reader", ["scores", "ranking", "blocks", "pool", "reviews", "authors"])
@pytest.mark.parametrize("walked", ["crlf", "quoted", "suffix"])
def test_plain_and_walked_files_read_the_same(workdir, loadtxt_calls, reader, walked):
    header, rows, read = _rows(np.random.default_rng(17))[reader]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    write(workdir / "plain.csv", "\n".join(lines) + "\n")
    plain = read("plain.csv")
    assert loadtxt_calls == [1]
    if walked == "crlf":
        name, text = "walked.csv", "\r\n".join(lines) + "\r\n"
    elif walked == "quoted":  # every cell of the first row quoted
        quoted = '"' + '","'.join(rows[0]) + '"'
        name, text = "walked.csv", "\n".join([lines[0], quoted] + lines[2:]) + "\n"
    else:  # numpy would decompress a file of this name
        name, text = "walked.csv.gz", "\n".join(lines) + "\n"
    write(workdir / name, text)
    assert _same(read(name), plain)
    assert loadtxt_calls == [1]


def test_repeated_review_ids_share_one_string(workdir):
    write(workdir / "reviews.csv",
          "submission_id,score,confidence\n" + "".join(f"s{k % 3},5,1\n" for k in range(9)))
    ids = cli._read_reviews("reviews.csv").submission_ids
    assert ids == tuple(f"s{k % 3}" for k in range(9))
    assert len({id(s) for s in ids}) == 3


@pytest.mark.parametrize("python_only, usual", [
    ("index,score\n1,1_0.5\n٢,٣\n", "index,score\n1,10.5\n2,3\n"),
    ("index,score\n1,４\n2,2_5e-1\n", "index,score\n1,4\n2,25e-1\n"),
])
def test_python_only_spellings_still_parse(workdir, loadtxt_calls, python_only, usual):
    write(workdir / "odd.csv", python_only)
    write(workdir / "usual.csv", usual)
    assert _same(cli._read_scores("odd.csv"), cli._read_scores("usual.csv"))
    # loadtxt refused the first file, which the walk then read
    assert loadtxt_calls == [2]
    write(workdir / "reviews.csv", "submission_id,score,confidence\na,٤,1_0\na,5,٣\n")
    table = cli._read_reviews("reviews.csv")
    assert table.scores.tolist() == [4.0, 5.0] and table.confidences.tolist() == [10, 3]


# Author rows that the reader must take as the former per-record parse did:
# spaced and empty tokens, unknown ids, a rank beyond int64 (a skipped
# malformed ranking, as is 1_0, which int() reads as 10) and a dropped id.
AUTHOR_ROWS = [
    ("spaced", "a ; b", " 2 ; 1"),
    ("trailing", "a;b;", "1;2;"),
    ("doubled", "c;;d", "2;;1"),
    ("unknown", "a;zzz", "1;2"),
    ("zeds", "zzz;c;yyy", "1;3;2"),
    ("huge", "a;b", "1;99999999999999999999"),
    ("negative", "e;f", "-99999999999999999999;1"),
    ("underscore", "a;b", "1_0;2"),
    ("four", "c; d;e ;f", "4;1;3;2"),
    ("dropped", "a;solo", "1;2"),
    ("one", "f", "1"),
]


@pytest.mark.parametrize("seed", [0, 7])
def test_author_columns_match_the_per_record_reference(workdir, seed):
    write(workdir / "reviews.csv", TABLE_INPUTS["reviews.csv"] + "solo,9,2\nc,4,2\n")
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\n"
          + "".join(",".join(row) + "\n" for row in AUTHOR_ROWS))
    reviews = cli._read_reviews("reviews.csv")
    records = [AuthorRecord(author, tuple(filter(None, map(str.strip, sids.split(";")))),
                            tuple(int(t) for t in ranks.split(";") if t.strip()))
               for author, sids, ranks in AUTHOR_ROWS]
    got = cli.surrogate_eval(reviews, cli._read_authors("authors.csv", reviews), seed=seed)
    assert got == reference_surrogate_eval(reviews, records, seed=seed)
    assert got.skipped_authors == {"missing_submission": 3, "malformed_ranking": 3}
    assert [row.authors for row in got.rows] == [1, 3, 0, 1]


@pytest.mark.parametrize("rows, message", [
    (["ok,a;b,1;2", "bob,a;a,1;2", "carol,,", "dave,a;b,1"],
     "line 3: author bob lists submission 'a' twice"),
    (["ok,a;b,1;2", "bob,a;a,1", "carol,,"], "line 3: author bob lists 2 submissions but 1 ranks"),
    (["bob,;,1", "carol,a;a,1;2"], "line 2: author bob lists no submissions"),
    (["bob,,", "carol,a;b,1;x"], "line 3: ranking must be a number, got 'x'"),
    (["ok,a,1", "zed,zzz;a; zzz,1;2;3", "bob,,"], "line 3: author zed lists submission 'zzz' twice"),
])
def test_first_bad_author_row_is_named(workdir, capsys, rows, message):
    write(workdir / "reviews.csv", TABLE_INPUTS["reviews.csv"])
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\n" + "\n".join(rows) + "\n")
    assert main(["icml", "reviews.csv", "authors.csv", "--out", "out.csv"]) == 2
    assert capsys.readouterr().err == f"error: authors.csv {message}\n"


def test_plain_file_with_a_blank_row_keeps_line_numbers(workdir, capsys):
    write(workdir / "scores.csv", "index,score\n1,2\n\n2,x\n")
    write(workdir / "ranking.csv", "rank,index\n1,1\n2,2\n")
    assert main(["fit", "scores.csv", "--ranking", "ranking.csv", "--out", "out.csv"]) == 2
    assert capsys.readouterr().err == "error: scores.csv line 4: score must be a number, got 'x'\n"


# ---------------------------------------------------------------------------
# Output faults
# ---------------------------------------------------------------------------

FIT = ["fit", "scores.csv", "--ranking", "ranking.csv"]
MINIMAX = ["minimax", "--family", "gaussian:1.0", "--v-min", "0", "--v-max", "6",
           "--n-grid", "32,64", "--trials", "20", "--construction-n", "64"]


@pytest.mark.parametrize("argv, setup, message, gone", [
    (FIT + ["--out", "outdir"], "outdir", "outdir: Is a directory", []),
    (MINIMAX + ["--construction-out", "nodir/c.json", "--out", "r.csv"], None,
     "nodir/c.json: No such file or directory", ["r.csv"]),
    (FIT + ["--out", "x.csv"], "x.csv.meta.json", "x.csv.meta.json: Is a directory", ["x.csv"]),
])
def test_output_faults_exit_2_and_leave_no_file(workdir, capsys, argv, setup, message, gone):
    for name in ("scores.csv", "ranking.csv"):
        write(workdir / name, TABLE_INPUTS[name])
    if setup:
        (workdir / setup).mkdir()
    before = sorted(p.name for p in workdir.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert not any((workdir / name).exists() for name in gone)


# ---------------------------------------------------------------------------
# A command that writes nothing takes no output flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--out", "x.csv"], ["--format", "json"]])
def test_check_majorization_takes_no_output_flags(workdir, capsys, flag):
    write(workdir / "a.csv", "value\n2\n0\n")
    write(workdir / "b.csv", "value\n1\n1\n")
    with pytest.raises(SystemExit) as exc:
        main(["check-majorization", "a.csv", "b.csv"] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (workdir / "x.csv").exists()


def test_check_majorization_ignores_a_malformed_env_seed(workdir, capsys, monkeypatch):
    write(workdir / "a.csv", "value\n2\n0\n")
    write(workdir / "b.csv", "value\n1\n1\n")
    monkeypatch.setenv("ISOMECH_SEED", "abc")
    assert main(["check-majorization", "a.csv", "b.csv"]) == 0
    assert capsys.readouterr().out == "true\n"


# ---------------------------------------------------------------------------
# Blocks: grouped and checked once, equal to the checked CoarseRanking
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [9, 300])  # both sides of the array check's cutoff
def test_read_blocks_equals_the_checked_coarse_ranking(workdir, n):
    rng = np.random.default_rng(n)
    items, block_of = rng.permutation(n) + 1, rng.integers(1, 5, n)
    block_of[:4] = [3, 1, 4, 2]  # every id 1..4 in use
    write(workdir / "blocks.csv", "block,index\n" + "".join(
        f"{b},{i}\n" for b, i in zip(block_of, items)))
    got = cli._read_blocks("blocks.csv", n)
    want = CoarseRanking([items[block_of == b].tolist() for b in range(1, 5)])
    assert got == want
    assert all(type(i) is int for block in got.blocks for i in block)


@pytest.mark.parametrize("text, message", [
    ("block,index\n2,3\n1,1\n2,1\n", "blocks.csv: blocks do not partition 1..3: ((1,), (1, 3))"),
    ("block,index\n", "blocks.csv: blocks must be nonempty"),
])
def test_read_blocks_refuses_what_coarse_ranking_refuses(workdir, text, message):
    write(workdir / "blocks.csv", text)
    with pytest.raises(ValidationError) as exc:
        cli._read_blocks("blocks.csv", 3)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Review and author files from an id alphabet that fixed-width text mangles
# ---------------------------------------------------------------------------

# ASCII, Latin-1 and CJK ids, ids beyond 8 bytes and ids equal in their
# first 8 bytes, and ids that differ only by a trailing NUL, which numpy's
# fixed-width strings drop; "x\x1f" and "\x85c" end and start with characters
# str.strip strips, "e\u0301" ends in a combining accent, and U+2028, which
# str.splitlines splits at, sits inside "a\u2028b"
ID_ALPHABET = ["s1", "s10", "a b", "é", "ÿx", "é2", "審査", "漢字", "ab\x00", "ab",
               "a\x00", "a", "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefgi",
               "submission-000001", "submission-000002", "e\u0301", "x\x1f", "\x85c",
               "a\u2028b"]


@st.composite
def review_files(draw):
    """(reviews rows, authors rows as ``(id, ids, ranks)`` cells): reviews
    of a subset of ``ID_ALPHABET``, authors listing those and a few more."""
    ids = draw(st.lists(st.sampled_from(ID_ALPHABET), min_size=1, unique=True))
    reviews = [(sid, str(draw(st.integers(1, 10))), str(draw(st.integers(1, 3))))
               for sid in ids for _ in range(draw(st.integers(1, 4)))]
    reviews = draw(st.permutations(reviews))
    listed = ids + draw(st.lists(st.sampled_from(ID_ALPHABET), max_size=3, unique=True))
    authors = []
    for k in range(draw(st.integers(1, 6))):
        sids = draw(st.lists(st.sampled_from(listed), min_size=1, max_size=5, unique=True))
        ranks = draw(st.one_of(st.permutations(range(1, len(sids) + 1)),
                               st.lists(st.integers(0, 6), min_size=len(sids),
                                        max_size=len(sids))))
        # spaced, doubled and trailing separators that the reader drops
        glue = draw(st.sampled_from([";", " ; ", ";;", "; "]))
        tail = draw(st.sampled_from(["", ";", " ;"]))
        authors.append((f"a{k}", glue.join(sids) + tail, glue.join(map(str, ranks)) + tail))
    return reviews, authors


@given(review_files(), st.sampled_from(["\n", "\r\n"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_review_and_author_files_match_the_reference(workdir, files, newline, seed):
    reviews, authors = files
    text = newline.join(["submission_id,score,confidence"] + [",".join(r) for r in reviews])
    write(workdir / "reviews.csv", text + newline)
    write(workdir / "authors.csv", newline.join(
        ["author_id,submission_ids,ranking"] + [",".join(row) for row in authors]) + newline)
    # a file with a carriage return is walked; loadtxt reads any other, its
    # text as str if it holds a NUL
    _, cols = cli._read_csv("reviews.csv", ("submission_id", "score", "confidence"),
                            {"score": float, "confidence": int})
    assert isinstance(cols["submission_id"], np.ndarray) == (newline == "\n" and "\0" not in text)
    table = cli._read_reviews("reviews.csv")
    assert table.submission_ids == tuple(row[0].strip() for row in reviews)
    assert table.ids == sorted(set(table.submission_ids))
    records = [AuthorRecord(author, tuple(filter(None, map(str.strip, sids.split(";")))),
                            tuple(int(t) for t in ranks.split(";") if t.strip()))
               for author, sids, ranks in authors]
    got = cli.surrogate_eval(table, cli._read_authors("authors.csv", table), seed=seed)
    assert got == reference_surrogate_eval(table, records, seed=seed)


def test_ids_that_differ_by_a_trailing_nul_stay_apart(workdir):
    write(workdir / "reviews.csv",
          "submission_id,score,confidence\na\x00,5,1\na,6,1\na\x00,7,2\nab,1,1\nab\x00\x00,2,1\n")
    table = cli._read_reviews("reviews.csv")
    assert table.ids == ["a", "a\x00", "ab", "ab\x00\x00"]
    assert table.codes.tolist() == [1, 0, 1, 2, 3]
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\nx,a\x00 ; a;b\x00,1;2;3\n")
    authors = cli._read_authors("authors.csv", table)
    assert authors.codes.tolist()[:2] == [1, 0] and authors.codes[2] >= len(table.ids)


def test_the_stripped_characters_are_those_str_isspace_names():
    spaces = {c for c in map(chr, range(0x110000)) if c.isspace()}
    assert {c.decode() for c in cli._SPACES} == spaces
    assert len(cli._SPACES) == len(spaces)


def test_text_too_unequal_in_width_is_read_as_str(workdir, loadtxt_calls):
    # one id of 3,000 bytes among 200 short rows: padding every cell to it
    # would take over _PADDED_PER_BYTE bytes per byte of the file, so
    # loadtxt reads the ids as str
    long_id = "s" * 3000
    write(workdir / "reviews.csv", "submission_id,score,confidence\n"
          + "".join(f"s{k % 60},{k % 9 + 1},{k % 3 + 1}\n" for k in range(200))
          + f"{long_id},3,2\n{long_id},4,1\n")
    _, cols = cli._read_csv("reviews.csv", ("submission_id", "score", "confidence"),
                            {"score": float, "confidence": int})
    assert loadtxt_calls == [1] and isinstance(cols["submission_id"], list)
    table = cli._read_reviews("reviews.csv")
    assert table.ids == sorted({f"s{k}" for k in range(60)} | {long_id})
    assert table.submission_ids == tuple(cols["submission_id"])
    # lines of equal width, but one cell holds a single token as wide as the
    # 60 tokens of any other: the file is read by loadtxt, the tokens as str
    wide = "w" * len(";".join(f"s{k}" for k in range(60)))
    rows = [f"a{j},{';'.join(f's{(j + k) % 60}' for k in range(60))},"
            f"{';'.join(str(k + 1) for k in range(60))}" for j in range(20)]
    write(workdir / "authors.csv", "author_id,submission_ids,ranking\n"
          + "\n".join(rows + [f"b,{wide},1"]) + "\n")
    _, cols = cli._read_csv("authors.csv", ("author_id", "submission_ids", "ranking"))
    assert isinstance(cols["submission_ids"], np.ndarray)
    tokens, sizes = cli._tokens(cols["submission_ids"])
    assert isinstance(tokens, list) and tokens[-1] == wide and sizes.tolist() == [60] * 20 + [1]
    authors = cli._read_authors("authors.csv", table)
    records = [AuthorRecord(f"a{j}", tuple(f"s{(j + k) % 60}" for k in range(60)),
                            tuple(range(1, 61))) for j in range(20)]
    records.append(AuthorRecord("b", (wide,), (1,)))
    got = cli.surrogate_eval(table, authors, seed=3)
    assert got == reference_surrogate_eval(table, records, seed=3)


@given(st.lists(st.text(st.characters(blacklist_characters="\x00\n",
                                      blacklist_categories=["Cs"]), min_size=1), min_size=1))
def test_factorise_orders_cells_as_sorted_does(texts):
    # UTF-8 cells, ids past 8 bytes and ids equal in their first 8 among
    # them, factorised on integer words give the order str sorts in
    texts += [t + "x" * 9 for t in texts[:2]] + [t + "x" * 9 + "y" for t in texts[:2]]
    ids, codes = cli._factorise(np.array([t.encode() for t in texts], dtype="S"))
    assert ids == sorted(set(texts))
    assert [ids[c] for c in codes.tolist()] == texts


def test_review_table_orders_str_ids_as_sorted_does():
    # ids given as str, lone surrogates and NULs among them, as a walked
    # file or a caller gives them
    ids = ["b", "\ud800", "a\udfff", "퟿", "", "a\x00", "a", "abcdefgh\x00", "abcdefgh"] * 2
    table = ReviewTable(ids, [1.0] * len(ids), [1] * len(ids))
    assert table.ids == sorted(set(ids)) and table.submission_ids == tuple(ids)
