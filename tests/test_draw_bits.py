"""The draws of every family, bit for bit, through every route that reads them.

``DIGESTS`` holds SHA-256 digests of the float64 bytes of
``Family.sample_rows`` (seeded by ``default_rng(seed)``) and of
``simulate_scores`` (seeded by ``seed``), recorded before the draw hook
``Family.row_sampler`` existed.  The hook's blocks, the filled arrays and the
scores the all-rankings sweep tables must all reproduce them.  The cases
cover the four families, Binomial's narrow route (a binary search per item),
its wide route (a pass per threshold) and a support above 127 (the base
class), reps 1 and 3, and trial counts that are multiples of neither the
row block nor the 512-trial chunk.
"""

import hashlib

import numpy as np
import pytest

from isomech import mechanism
from isomech.expfam import _block_rows, family_from_spec
from isomech.mechanism import UtilityFn, rank_all_utilities, simulate_scores

# (family, means, reps, trials, seed, sample_rows digest, simulate_scores digest)
DIGESTS = [
    ("gaussian:2", (1.5, -0.5, 3.0, 0.0, 2.0), 1, 26221, 2700,
     "e17ac95caf7be463662d8adfacc3b6d93d7c82452d917a1e36452952cfee06a1",
     "0bf8ad25dbd9cb6db84e520367ac6ee1ca5672f52f926db916676f2d28dbf517"),
    ("gaussian:2", (1.5, -0.5, 3.0, 0.0, 2.0), 3, 1031, 2701,
     "14f46178f519532b61d95e8112f16c528c038ce42ef3bab0e05b536059e721ba",
     "7d1535e3b0e3597dce50d748f0dc94578ff045684c6b3a2a2fc6f950f1935380"),
    ("poisson", (4.0, 1.0, 0.0, 2.5, 7.0), 1, 1031, 2702,
     "09d669675d8b3a38c6511614f53cf1ebb045f32885f5a5ccdab87be5a82acec4",
     "6cb5dc274a90d68d3e1f314191c42a619ffc1dfcb0571433b94953b4cf964659"),
    ("poisson", (4.0, 1.0, 0.0, 2.5, 7.0), 3, 26221, 2703,
     "7199a3eef42649ffc91311229a2b603076fbe477032c7139ff6fba8c19f95ff9",
     "5ea9cc3bdfb49279447e5f7c1c9a3ffc82ca43d28b9ad84592d9ab2d37ae22f9"),
    ("gamma:2", (3.0, 1.0, 0.5, 2.0, 6.0), 1, 1031, 2704,
     "a2b54e1a93024ca8770f4456b1fed10ff07bed88aa1b3da6f2201f3830ccd119",
     "a85834f6c27c1b8cbffc67a0142c85fb970bb3cbbfe0ebe733d7b2a4153408a7"),
    ("gamma:2", (3.0, 1.0, 0.5, 2.0, 6.0), 3, 26221, 2705,
     "b43436c7843b3e6140c83af0a68a37f52a3519b715792f4b85c7fe7578e3bfe9",
     "5fe0d3a3a359f5730a0459e9ce67af302d4420a34d7382eece93922ea4174425"),
    ("binomial:10", (8.0, 7.0, 6.0, 5.0, 4.0), 1, 26221, 2706,
     "2a8209b4f441796f9a8365717a148a3def8296c644720278d0c08282c0bd8711",
     "36665062b6af3498ede04ae6eb3789c59a9f4e1ecfbe822f7f79f3c08be12864"),
    ("binomial:10", (8.0, 7.0, 6.0, 5.0, 4.0), 3, 26221, 2707,
     "b073d6ded5b32aa2728a1be3ea72a477182c22620e06154bdc4770a11fa5fd24",
     "21c3dde087f6958c5aaf47c6a869b2f28687c80094efc8db7869849953eccbdd"),
    ("binomial:2", (2.0, 1.5, 1.0, 0.5, 0.0), 1, 26221, 2708,
     "5a4447ba91e1eee411a1e58317fda5245079778df44cb1a3b2d517245aca0fc0",
     "b293228d21f01605b0541ba44c624f54a607847efa7af80f35ffa46c8539912e"),
    ("binomial:2", (2.0, 1.5, 1.0, 0.5, 0.0), 3, 1031, 2709,
     "b4ea853c90bfca8ddebf33d747645a4c8aa133a0fc5e51696eacf6b60102ff14",
     "36d736ac4e52f09c7dfe26da42a72b4849d8a10a358469dbc77e95b221045610"),
    ("binomial:50", (40.0, 35.0, 25.0, 10.0, 1.0), 3, 1031, 2710,
     "be0549f6f715d43d777ba512733e51fe5b0822841ca92b48fb2a886c96bcda49",
     "ce09d31e21b6dcb17d2d39b54da4e6360083fa87c21a199541597a78cfb5a363"),
    ("binomial:10", (9.0, 6.5, 3.0, 0.5, 0.0), 13, 1031, 2711,
     "5ac7620c87c0877525fe8ce3432cf2c95fead81df11bd0d91510929e01dbeb76",
     "d304f81dc0b5460b9ce9ed70c6841707f73051394e4ad0df2847c29678b3e766"),
    ("binomial:10", "ramp40", 3, 3283, 2712,
     "f777ad736f7233259dfa63bc862cd412d373e3ad94939ab6ccc3f2711bddd336",
     "a0239cd652b2618e3376ddf75d441b99171ff6566fac422694ace75fdd0e2fd8"),
    ("gaussian:1", "ramp3000", 1, 50, 2713,
     "72c99d9e7c8bf009672d1b7d6685ce75360e03be79920526010f5a3b601c3096",
     "44965ba293520a84b0359155c70e376e62721f20d7044f44dd908a169852f05b"),
]


def _means(mu) -> np.ndarray:
    if mu == "ramp40":
        return np.linspace(10.0, 0.0, 40)
    if mu == "ramp3000":
        return np.linspace(9.0, 3.0, 3000)
    return np.asarray(mu, dtype=float)


def _sha(rows: np.ndarray) -> str:
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    return hashlib.sha256(rows.tobytes()).hexdigest()


def _case_id(case) -> str:
    spec, mu, reps, trials = case[:4]
    return f"{spec}-n{_means(mu).size}-reps{reps}-t{trials}"


@pytest.mark.parametrize("case", DIGESTS, ids=_case_id)
def test_sample_rows_keep_their_bits(case):
    spec, mu, reps, trials, seed, rows_digest, _ = case
    rows = family_from_spec(spec).sample_rows(_means(mu), np.random.default_rng(seed), trials, reps)
    assert rows.shape == (trials, _means(mu).size)
    assert _sha(rows) == rows_digest


@pytest.mark.parametrize("case", DIGESTS, ids=_case_id)
def test_row_sampler_blocks_concatenate_to_the_recorded_rows(case):
    spec, mu, reps, trials, seed, rows_digest, _ = case
    means = _means(mu)
    draw = family_from_spec(spec).row_sampler(means, reps)
    blocks = list(draw(np.random.default_rng(seed), trials))
    step = _block_rows(means.size)
    assert [len(b) for b in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= step
    assert _sha(np.concatenate(blocks)) == rows_digest


@pytest.mark.parametrize("case", DIGESTS, ids=_case_id)
def test_simulate_scores_keep_their_bits(case):
    spec, mu, reps, trials, seed, _, sim_digest = case
    scores = simulate_scores(family_from_spec(spec), _means(mu), reps, trials, seed)
    assert _sha(scores) == sim_digest


@pytest.mark.parametrize("case", [c for c in DIGESTS if _means(c[1]).size <= 5], ids=_case_id)
def test_the_sweep_tables_the_recorded_scores(case, monkeypatch):
    spec, mu, reps, trials, seed, _, sim_digest = case
    seen, subset_means = [], mechanism._subset_means

    def recording(scores, table):
        seen.append(scores.copy())
        return subset_means(scores, table)

    monkeypatch.setattr(mechanism, "_subset_means", recording)
    rank_all_utilities(family_from_spec(spec), _means(mu), UtilityFn("identity"),
                       scores_per_item=reps, trials=trials, seed=seed)
    assert _sha(np.concatenate(seen)) == sim_digest
