"""Driver pieces: seeded sampling, set files, thresholds, and reports."""

import collections
import hashlib
import itertools
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqgeom import geometry, harness, orthogroup
from zqgeom.configsets import FULL_GRID_CAP, PointSet
from zqgeom.harness import (
    CSV_HEADER,
    LEMMAS,
    SUITE_PLANE_CAP,
    ExperimentConfig,
    Lemma,
    SetSource,
    SplitMix64,
    _check_difference_census,
    _check_group_axioms,
    _check_hensel_quadratics,
    _check_line_census,
    _check_point_line_incidence,
    _compositions,
    _csv_num,
    _draw_below,
    _lemma_rows,
    _norm_table,
    _rotated_plane_checks,
    _sample_indices,
    _stabilizer_bounds,
    conclusion_bound,
    format_pointset,
    generate_set,
    meets_hypothesis,
    parse_pointset,
    random_subset,
    read_pointset_file,
    report_to_csv,
    report_to_json,
    run_lemma_suite,
    run_theorem_experiment,
    size_threshold,
    trial_rng,
    write_pointset_file,
    write_report,
)
from zqgeom.orthogroup import _OP_CAP, so2_elements
from zqgeom.ring import Modulus, is_prime

M3 = Modulus(3, 1)
M9 = Modulus(3, 2)
M25 = Modulus(5, 2)


def test_splitmix_reference_stream():
    # first outputs for seed 0, pinned so reports never drift across platforms
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_below_rejects_bad_range_and_stays_in_range():
    rng = SplitMix64(123)
    with pytest.raises(ValueError):
        rng.below(0)
    draws = [rng.below(10) for _ in range(1000)]
    assert set(draws) == set(range(10))


def test_trial_streams_reproducible_and_distinct():
    a = [trial_rng(7, 0).next_u64() for _ in range(4)]
    b = [trial_rng(7, 0).next_u64() for _ in range(4)]
    c = [trial_rng(7, 1).next_u64() for _ in range(4)]
    d = [trial_rng(8, 0).next_u64() for _ in range(4)]
    assert a == b
    assert a != c and a != d


def _sample_indices_list(rng, n, k):
    # the dense Fisher-Yates the sparse sampler must reproduce draw for draw
    idx = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


@pytest.mark.parametrize(
    "n,k,seed",
    [(1, 1, 0), (9, 0, 1), (9, 9, 2), (10, 3, 3), (81, 81, 4), (625, 16, 5),
     (729**2, 12, 6), (4096, 4096, 7)],
)
def test_sparse_sampler_matches_the_list_shuffle(n, k, seed):
    for trial in range(3):
        got = _sample_indices(trial_rng(seed, trial), n, k)
        assert got == _sample_indices_list(trial_rng(seed, trial), n, k)
        assert len(set(got)) == k and all(0 <= i < n for i in got)


def _unrank(index, q, d):
    # big-endian digits of index in base q, one point at a time
    out = []
    for _ in range(d):
        index, r = divmod(index, q)
        out.append(r)
    return tuple(reversed(out))


def _scalar_subset(m, d, k, seed, trial):
    """The scalar sampler: below() per draw, the dense shuffle, a per-index
    unrank; returns the sorted points and the generator state after it."""
    rng = trial_rng(seed, trial)
    chosen = _sample_indices_list(rng, m.q**d, k)
    return tuple(sorted(_unrank(i, m.q, d) for i in chosen)), rng._state


_GRIDS = [
    (Modulus(p, l), d)
    for p in range(3, 730, 2) if is_prime(p)
    for l in range(1, 7) if p**l <= 729
    for d in range(1, 5) if p ** (l * d) <= FULL_GRID_CAP
]


@st.composite
def _draws(draw):
    m, d = draw(st.sampled_from(_GRIDS))
    k = draw(st.integers(0, min(m.q**d, 2000)))
    return m, d, k, draw(st.integers(-(2**70), 2**70)), draw(st.integers(-5, 50))


@settings(max_examples=120)
@given(_draws())
def test_random_subset_matches_the_scalar_sampler(case):
    m, d, k, seed, trial = case
    points, state = _scalar_subset(m, d, k, seed, trial)
    assert random_subset(m, d, k, seed, trial).points == points
    rng = trial_rng(seed, trial)
    _sample_indices(rng, m.q**d, k)
    assert rng._state == state


@pytest.mark.parametrize(
    "spans,draws_per_span",
    [
        # above 2**63 the rejection zone 2**64 - s is nearly half of all draws
        ([2**63 + 300 - i for i in range(300)], 1.5),
        ([2**64 - 1 - i for i in range(40)], 1),
        ([1, 2**63, 3, 2**63 + 5, 2**32 + 1, 2**64 - 1, 7, 2**63 + 1], 1),
        ([10**6 - i for i in range(50)], 1),
    ],
)
def test_vector_draws_match_below_through_rejections(spans, draws_per_span):
    calls = 0

    class Counted(SplitMix64):
        def next_u64(self):
            nonlocal calls
            calls += 1
            return super().next_u64()

    seeds = (0, 3, -(2**65))
    for seed in seeds:
        ref = Counted(seed)
        want = [ref.below(n) for n in spans]
        rng = SplitMix64(seed)
        assert _draw_below(rng, np.array(spans, dtype=np.uint64)).tolist() == want
        assert rng._state == ref._state
    assert calls >= draws_per_span * len(seeds) * len(spans)


def _unmix64(z):
    # inverse of harness._mix64: each odd multiplier has an inverse mod
    # 2**64, and y = x ^ (x >> k) gives back x by iterating x = y ^ (x >> k)
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return unshift(z, 30)


@pytest.mark.parametrize("span", [3, 10**6 - 7, 2**63 + 5, 2**64 - 1])
def test_vector_draws_match_below_at_the_rejection_edge(span):
    # first draws of 2**64 - r - 1 (the largest accepted) and 2**64 - r
    # (the smallest rejected), with r = 2**64 mod span
    edge = 2**64 - 2**64 % span
    for first in (edge - 1, edge):
        seed = _unmix64(first) - 0x9E3779B97F4A7C15
        assert SplitMix64(seed).next_u64() == first
        ref = SplitMix64(seed)
        want = [ref.below(span), ref.below(span)]
        rng = SplitMix64(seed)
        assert _draw_below(rng, np.array([span, span], dtype=np.uint64)).tolist() == want
        assert rng._state == ref._state


def test_random_subset_golden_digest():
    # sha256 of the gen-set file text, pinned from the scalar sampler
    text = format_pointset(random_subset(Modulus(3, 6), 2, 6000, seed=7))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5e6e169233696a21b2aa5eb2155846379969f9adccea2bd4a72017fdb6ca46f0"
    )


def test_random_subset_deterministic():
    a = random_subset(M9, 2, 12, seed=5)
    b = random_subset(M9, 2, 12, seed=5)
    c = random_subset(M9, 2, 12, seed=5, trial=1)
    assert a.points == b.points
    assert a.points != c.points
    assert len(a) == 12


def test_random_subset_eventually_covers_the_grid():
    seen = set()
    for trial in range(60):
        seen.update(random_subset(M3, 2, 3, seed=1, trial=trial))
    assert seen == set(itertools.product(range(3), repeat=2))


def test_random_subset_size_errors():
    with pytest.raises(ValueError):
        random_subset(M3, 2, 10, seed=0)
    with pytest.raises(ValueError):
        random_subset(M3, 2, -1, seed=0)


def test_pointset_file_round_trip(tmp_path):
    ps = random_subset(M9, 2, 7, seed=2)
    path = tmp_path / "pts.txt"
    write_pointset_file(path, ps)
    again = read_pointset_file(path)
    assert again.points == ps.points
    assert again.m == ps.m and again.d == 2


def test_parse_pointset_comments_and_blank_lines():
    ps = parse_pointset("# written by hand\nq=9 d=2\n1,2  # a point\n\n3,0\n")
    assert ps.m == M9 and ps.d == 2
    assert ps.points == ((1, 2), (3, 0))


@pytest.mark.parametrize(
    "text",
    [
        "1,2\n",             # missing header
        "q=9 d=2\n9,0\n",    # residue out of range
        "q=9 d=2\n1\n",      # wrong dimension
        "q=9 d=2\n1,x\n",    # not an integer
        "q=12 d=2\n1,2\n",   # modulus is not an odd prime power
    ],
)
def test_parse_pointset_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_pointset(text)


def test_set_source_parse():
    assert SetSource.parse("full") == SetSource("full")
    assert SetSource.parse("random:47") == SetSource("random", size=47)
    assert SetSource.parse("product:a.txt") == SetSource("product", path="a.txt")
    assert SetSource.parse("file:b.txt") == SetSource("file", path="b.txt")
    assert SetSource.parse("random:47").spec_string() == "random:47"
    # sizes are plain ASCII decimals, as in set files
    for bad in ("random", "random:x", "product:", "nope:1", "", "random:1_0",
                "random:\u0661\u0662", "random: 7 ", "random:7\n"):
        with pytest.raises(ValueError):
            SetSource.parse(bad)


def test_experiment_config_validation():
    src = SetSource.parse("full")
    ExperimentConfig(p=3, l=2, kind="dotprod", source=src, d=3)  # fine
    with pytest.raises(ValueError):
        ExperimentConfig(p=3, l=2, kind="nope", source=src)
    with pytest.raises(ValueError):
        ExperimentConfig(p=3, l=2, kind="t2", source=src, d=3)
    with pytest.raises(ValueError):
        ExperimentConfig(p=3, l=2, kind="v2", source=src, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(p=4, l=2, kind="v2", source=src)


def test_generate_set_modes(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("q=9 d=1\n0\n1\n5\n")
    cfg = ExperimentConfig(
        p=3, l=2, kind="dotprod", source=SetSource("product", path=str(base))
    )
    E = generate_set(cfg, 0)
    assert E.base == (0, 1, 5) and len(E) == 9

    plane = tmp_path / "plane.txt"
    write_pointset_file(plane, random_subset(M9, 2, 6, seed=1))
    cfg = ExperimentConfig(p=3, l=2, kind="v2", source=SetSource("file", path=str(plane)))
    assert len(generate_set(cfg, 0)) == 6

    cfg = ExperimentConfig(p=3, l=1, kind="t2", source=SetSource("full"))
    assert len(generate_set(cfg, 0)) == 9

    # q mismatch between file and config
    cfg = ExperimentConfig(p=5, l=2, kind="v2", source=SetSource("file", path=str(plane)))
    with pytest.raises(ValueError):
        generate_set(cfg, 0)
    # product sources need a one-dimensional base
    cfg = ExperimentConfig(
        p=3, l=2, kind="dotprod", source=SetSource("product", path=str(plane))
    )
    with pytest.raises(ValueError):
        generate_set(cfg, 0)


def test_size_thresholds_pinned():
    assert size_threshold("t2", M3) == 9
    assert size_threshold("v2", M9) == 47
    assert size_threshold("dotprod", M9, 2) == 47
    assert not meets_hypothesis("t2", M3, 2, 8)
    assert meets_hypothesis("t2", M3, 2, 9)
    assert not meets_hypothesis("v2", M9, 2, 46)
    assert meets_hypothesis("v2", M9, 2, 47)


def test_size_thresholds_are_exact_integer_roots():
    for m in (M3, M9, Modulus(3, 3), M25, Modulus(7, 2)):
        t2 = size_threshold("t2", m)
        assert t2**3 >= 3 * m.p ** (6 * m.l - 1) > (t2 - 1) ** 3
        v2 = size_threshold("v2", m)
        assert v2**2 > m.p ** (4 * m.l - 1) >= (v2 - 1) ** 2
        for d in (2, 3):
            s = size_threshold("dotprod", m, d)
            target = m.p ** (d * (2 * m.l - 1) + 1)
            assert s**2 >= target > (s - 1) ** 2


def test_conclusion_bounds_exact():
    assert conclusion_bound("t2", M3) == 14
    assert conclusion_bound("v2", M9) == 2
    assert conclusion_bound("v2", Modulus(7, 2)) == 13
    assert conclusion_bound("dotprod", M9) == Fraction(9, 2)
    with pytest.raises(ValueError):
        conclusion_bound("nope", M9)


def test_experiment_report_json_round_trip():
    cfg = ExperimentConfig(p=3, l=1, kind="t2", source=SetSource.parse("full"))
    rep = run_theorem_experiment(cfg)
    parsed = json.loads(report_to_json(rep))
    assert parsed == rep.to_dict()
    assert parsed["schema"] == 1
    assert parsed["kind"] == "experiment"
    assert parsed["config"]["set"] == "full"
    rec = parsed["trials"][0]
    assert rec["pass"] == (rec["statistic"] >= rec["bound"])


def test_experiment_t2_full_plane():
    cfg = ExperimentConfig(p=3, l=1, kind="t2", source=SetSource.parse("full"))
    rec = run_theorem_experiment(cfg).trials[0]
    assert rec.set_size == 9
    assert rec.statistic == 21
    assert rec.bound == 14.0
    assert rec.meets_threshold and rec.passed


def test_experiment_below_threshold_still_runs():
    cfg = ExperimentConfig(
        p=3, l=2, kind="v2", source=SetSource.parse("random:5"), trials=2, seed=1
    )
    rep = run_theorem_experiment(cfg)
    assert len(rep.trials) == 2
    assert all(not r.meets_threshold for r in rep.trials)
    assert rep.aggregate["all_meet_hypothesis"] is False


def test_experiment_v2_at_threshold_passes():
    cfg = ExperimentConfig(
        p=3, l=2, kind="v2", source=SetSource.parse("random:47"), trials=5, seed=11
    )
    rep = run_theorem_experiment(cfg)
    assert rep.all_passed
    assert rep.aggregate["all_meet_hypothesis"] is True
    assert rep.aggregate["statistic_min"] >= 2


def test_experiment_dotprod_product_set(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("q=9 d=1\n" + "".join(f"{x}\n" for x in range(7)))
    cfg = ExperimentConfig(
        p=3, l=2, kind="dotprod", source=SetSource("product", path=str(base))
    )
    rep = run_theorem_experiment(cfg)
    rec = rep.trials[0]
    assert rec.set_size == 49
    assert rec.meets_threshold and rec.passed
    assert rec.ratio == rec.statistic / 9
    assert rep.aggregate["min_ratio"] == rec.ratio


def test_experiment_csv_golden_header():
    cfg = ExperimentConfig(
        p=3, l=2, kind="v2", source=SetSource.parse("random:10"), trials=2, seed=3
    )
    lines = report_to_csv(run_theorem_experiment(cfg)).strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER) == "trial,set_size,statistic,bound,pass"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "10"
    assert first[4] in ("true", "false")


def test_csv_bound_keeps_every_digit_of_the_json_bound():
    # the t2 bound at Z_127 is 1024192, which a 6-digit format rounds to 1.02419e+06
    cfg = ExperimentConfig(
        p=127, l=1, kind="t2", source=SetSource.parse("random:3"), trials=1, seed=0
    )
    rep = run_theorem_experiment(cfg)
    row = report_to_csv(rep).splitlines()[1].split(",")
    assert row[3] == "1024192"
    assert json.loads(report_to_json(rep))["trials"][0]["bound"] == 1024192.0


@pytest.mark.parametrize(
    "x, text", [(1024192.0, "1024192"), (24.5, "24.5"), (1 / 3, "0.3333333333333333"),
                (2.0**70, "1.1805916207174113e+21"), (0.0, "0")],
)
def test_csv_floats_read_back_exactly(x, text):
    assert _csv_num(x) == text and float(text) == x


def _rows(m, check):
    # the rows the suite's row builder makes for one check
    return _lemma_rows(m, [(i, lemma) for i, lemma in enumerate(LEMMAS) if lemma.check is check])


def test_lemma_suite_q9_all_pass():
    rep = run_lemma_suite(M9)
    assert rep.kind == "lemmas"
    assert rep.all_passed
    assert rep.aggregate == {"passed": 16, "failed": 0, "skipped": 0}
    assert rep.diagnostics["average_line_points"] == 7.5
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))
    assert names == [lemma.name for lemma in LEMMAS]
    assert [c.index for c in rep.checks] == list(range(len(names)))
    by_name = {c.name: c for c in rep.checks}
    stab = by_name["stabilizer_bound_zero_norm"]
    assert stab.statistic == 3 and stab.bound == 3 and stab.witness == "xi=(0,3)"
    assert by_name["stabilizer_bound_nonzero_norm"].statistic == 1
    assert by_name["difference_weighted_bound"].statistic == 1944
    assert by_name["sphere_matches_group"].passed


def test_lemma_suite_builds_its_norm_table_once():
    _norm_table.cache_clear()
    run_lemma_suite(M9)
    info = _norm_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    table = _norm_table(M9)
    with pytest.raises(ValueError):
        table[0, 0] = 1
    x, y = np.indices((9, 9))
    assert np.array_equal(table, (x * x + y * y) % 9)


def test_lemma_suite_skips_zero_norm_cases_for_p_1_mod_4():
    rep = run_lemma_suite(M25)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["stabilizer_bound_zero_norm"].skipped
    assert by_name["zero_norm_stratum_form"].skipped
    assert by_name["zero_norm_stratum_form"].note != ""
    assert rep.all_passed
    assert rep.aggregate["skipped"] == 2


def test_lemma_suite_skips_census_at_prime_modulus():
    rep = run_lemma_suite(M3)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["difference_census_match"].skipped
    assert rep.all_passed


GOLDEN = Path(__file__).parent / "golden"


def _counted_checks(monkeypatch):
    """Swap every LEMMAS check for a wrapper that counts its calls, keyed by
    the original check; rows that share a check share one wrapper."""
    calls = collections.Counter()

    def counted(check):
        def run(m):
            calls[check] += 1
            return check(m)

        return run

    wrapped = {lemma.check: counted(lemma.check) for lemma in LEMMAS}
    rows = tuple(lemma._replace(check=wrapped[lemma.check]) for lemma in LEMMAS)
    monkeypatch.setattr(harness, "LEMMAS", rows)
    return calls


@pytest.mark.parametrize(
    "q", [3, 5, 7, 9, 13, 25, 27, 81, 121, 125, 243, 587, 593], ids=lambda q: f"Z_{q}"
)
def test_each_check_runs_once_and_only_for_rows_that_run(monkeypatch, q):
    m = Modulus.from_q(q)
    calls = _counted_checks(monkeypatch)
    rep = run_lemma_suite(m)
    assert [c.name for c in rep.checks] == [lemma.name for lemma in LEMMAS]
    assert max(calls.values()) == 1
    running = {lemma.check for lemma, row in zip(LEMMAS, rep.checks) if not row.skipped}
    assert set(calls) == running
    if q in (587, 593):
        assert _check_hensel_quadratics not in calls
    if q in (121, 125, 243) or m.l == 1:
        assert _check_difference_census not in calls


def test_every_declared_skip_is_pinned_by_a_golden_report():
    default = Lemma._field_defaults["skip"]
    declared = {lemma.name for lemma in LEMMAS if lemma.skip is not default}
    assert declared == {"hensel_quadratic_lifts", "stabilizer_bound_zero_norm",
                        "zero_norm_stratum_form", "difference_census_match"}
    skipped = set()
    for path in sorted(GOLDEN.glob("lemmas_z*.json")):
        report = json.loads(path.read_text())
        m = Modulus(report["config"]["p"], report["config"]["l"])
        for row in report["checks"]:
            # each golden note is the one its row declares on that modulus
            assert row["note"] == LEMMAS[row["index"]].skip(m)
            if row["skipped"]:
                skipped.add(row["name"])
    assert skipped == declared


def test_plane_cap_bounds_the_incidence_and_group_scans():
    # the suite refuses q**2 > SUITE_PLANE_CAP before any check runs, so over
    # every modulus it takes the incidence census (|L_0| * q line points) and
    # the group products (|SO_2|**2 pairs) stay about 200 times inside _OP_CAP
    moduli = [Modulus(p, l) for p in range(3, isqrt(SUITE_PLANE_CAP) + 1) if is_prime(p)
              for l in range(1, 20) if p ** (2 * l) <= SUITE_PLANE_CAP]
    assert max(m.q for m in moduli) == 997
    incidence = {m.q: (m.q + m.q // m.p) * m.q for m in moduli}
    pairs = {m.q: len(orthogroup.so2_table(m)) ** 2 for m in moduli}
    assert max(incidence.values()) == incidence[997] == 995_006
    assert max(pairs.values()) == pairs[997] == 992_016
    assert 200 * max(incidence[997], pairs[997]) < _OP_CAP


def test_incidence_check_runs_beyond_the_old_scan_budget():
    # 587**2 points times 588 lines exceeded the op budget of a per-vector scan
    (check,) = _rows(Modulus(587, 1), _check_point_line_incidence)
    assert not check.skipped
    assert check.passed and check.statistic == 0
    assert check.universe == 587**2 - 1


def test_rotated_plane_checks_run_beyond_the_old_scan_budget():
    # 729**2 points times 972 rotations exceeded the op budget of the plane scans
    m = Modulus(3, 6)
    norm, nonzero, zero = _rows(m, _rotated_plane_checks)
    assert not any(c.skipped for c in (norm, nonzero, zero))
    assert norm.passed and norm.statistic == 0 and norm.universe == 729**2 * 972
    per_k = orthogroup._fix_depths(m)
    # a vector of depth j has a zero norm iff 2j >= 6, and is fixed by the
    # rows of depth >= 6 - j: the largest stabilizers sit at j = 2 and j = 5
    assert (nonzero.statistic, nonzero.witness) == (sum(per_k[4:]), "xi=(0,9)")
    assert (zero.statistic, zero.witness) == (sum(per_k[1:]), "xi=(0,243)")
    assert nonzero.passed and zero.passed and zero.statistic == zero.bound == 3**5


def _incidence_scan_oracle(m):
    # per-vector scan of every full-length line, as (mismatches, first witness)
    full = geometry.lines_in_stratum(m, 0)
    fails, witness = 0, ""
    for v in itertools.product(range(m.q), repeat=2):
        if v == (0, 0):
            continue
        hits = sum(1 for line in full if v in line)
        if hits != m.p ** geometry.stratum_of(m, v):
            fails += 1
            witness = witness or f"v={v}, hits={hits}"
    return fails, witness


@pytest.mark.parametrize("m, dropped", [(M9, 2), (M25, 0), (Modulus(3, 3), 7)], ids=str)
def test_incidence_check_reports_a_dropped_line_like_the_scan(monkeypatch, m, dropped):
    census = geometry.lines_in_stratum

    def faulty(mod, n):
        lines = census(mod, n)
        return lines[:dropped] + lines[dropped + 1 :] if n == 0 else lines

    monkeypatch.setattr(geometry, "lines_in_stratum", faulty)
    (check,) = _rows(m, _check_point_line_incidence)
    fails, witness = _incidence_scan_oracle(m)
    assert fails > 0
    assert not check.passed and not check.skipped
    assert (check.statistic, check.witness) == (fails, witness)


def _ladder_id(value):
    # a set's print order follows the string hash, which varies per process;
    # the skipped names are a tuple so the test id keeps the listed order
    if isinstance(value, tuple):
        return "{" + ", ".join(map(repr, value)) + "}"
    return str(value)


@pytest.mark.parametrize(
    "m, aggregate, skipped",
    [
        (Modulus(3, 5), {"passed": 15, "failed": 0, "skipped": 1},
         ("difference_census_match",)),
        (Modulus(5, 3), {"passed": 13, "failed": 0, "skipped": 3},
         ("zero_norm_stratum_form", "stabilizer_bound_zero_norm",
          "difference_census_match")),
    ],
    ids=_ladder_id,
)
def test_lemma_ladder_aggregates(m, aggregate, skipped):
    rep = run_lemma_suite(m)
    assert rep.aggregate == aggregate
    names = [c.name for c in rep.checks]
    assert all(names.count(lemma.name) == 1 for lemma in LEMMAS)
    assert {c.name for c in rep.checks if c.skipped} == set(skipped)
    incidence = next(c for c in rep.checks if c.name == "point_line_incidence")
    assert incidence.statistic == 0 and incidence.universe == m.q**2 - 1


def test_lemma_suite_rejects_oversized_modulus():
    with pytest.raises(ValueError):
        run_lemma_suite(Modulus(1009, 1))


def test_lemma_suite_csv_rows_are_checks():
    rep = run_lemma_suite(M3)
    lines = report_to_csv(rep).strip().splitlines()
    assert lines[0] == "trial,set_size,statistic,bound,pass"
    assert len(lines) == 1 + len(rep.checks)


def test_write_report_formats(tmp_path):
    rep = run_lemma_suite(M3)
    out_json = tmp_path / "rep.json"
    out_csv = tmp_path / "rep.csv"
    write_report(rep, out_json, "json")
    write_report(rep, out_csv, "csv")
    assert json.loads(out_json.read_text())["kind"] == "lemmas"
    assert out_csv.read_text().startswith("trial,set_size,")
    with pytest.raises(ValueError):
        write_report(rep, tmp_path / "rep.xml", "xml")


def test_reports_identical_across_runs_modulo_wall_time():
    cfg = ExperimentConfig(
        p=3, l=2, kind="v2", source=SetSource.parse("random:12"), trials=3, seed=9
    )
    a = json.loads(report_to_json(run_theorem_experiment(cfg)))
    b = json.loads(report_to_json(run_theorem_experiment(cfg)))
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


# ---------------------------------------------------------------------------
# the vectorized lemma checks against the loops they replaced

M27 = Modulus(3, 3)
_DIFFERENTIAL = [M9, M25, M27, Modulus(7, 2), Modulus(11, 2)]


def _group_axioms_loop(m):
    # inverses first, then every composition t o u, as (mismatches, first witness)
    elems = so2_elements(m)
    keys = {t.key() for t in elems}
    fails, witness = 0, ""
    for t in elems:
        if t.inverse().key() not in keys or t.compose(t.inverse()).key() != (1, 0):
            fails += 1
            witness = witness or f"inverse of {t.key()}"
    for t in elems:
        for u in elems:
            if t.compose(u).key() not in keys:
                fails += 1
                witness = witness or f"{t.key()} o {u.key()}"
    return fails, witness


def _plane(m):
    x = np.arange(m.q, dtype=np.int64)
    return np.meshgrid(x, x, indexing="ij")


def _norm_invariance_loop(m):
    # one rotated int64 plane per rotation, as (mismatches, first witness)
    q = m.q
    X, Y = _plane(m)
    norms = (X**2 + Y**2) % q
    fails, witness = 0, ""
    for t in so2_elements(m):
        bad = norms[(t.a * X - t.b * Y) % q, (t.b * X + t.a * Y) % q] != norms
        if bad.any():
            fails += int(bad.sum())
            if not witness:
                i, j = map(int, np.argwhere(bad)[0])
                witness = f"theta={t.key()}, v=({i},{j})"
    return fails, witness


def _stabilizer_table_loop(m):
    q = m.q
    X, Y = _plane(m)
    counts = np.zeros((q, q), dtype=np.int64)
    for t in so2_elements(m):
        counts += ((t.a * X - t.b * Y) % q == X) & ((t.b * X + t.a * Y) % q == Y)
    return counts


def _line_census_loop(m):
    # per line: its point list, its set, and the set of sets per stratum
    fails, witness, universe = 0, "", 0
    for n in range(m.l):
        lines = geometry.lines_in_stratum(m, n)
        universe += len(lines)
        if len(lines) != m.p ** (m.l - n) + m.p ** (m.l - n - 1):
            fails += 1
            witness = witness or f"census size, n={n}"
        seen = set()
        for line in lines:
            pts = line.points()
            if len(set(pts)) != len(line):
                fails += 1
                witness = witness or f"short line {line.generator}"
            seen.add(frozenset(pts))
        if len(seen) != len(lines):
            fails += 1
            witness = witness or f"duplicate point sets, n={n}"
    return fails, witness, universe


def _stabilizer_rows(m):
    # the rotated-plane pass decides the norm row, then the two stabilizer rows
    return [c.to_dict() for c in _rows(m, _rotated_plane_checks)[1:]]


def _stabilizer_rows_loop(m):
    # the same rows fed by the per-rotation table
    outcomes = _stabilizer_bounds(m, _stabilizer_table_loop(m))
    rows = [(i, lemma._replace(check=lambda mod: outcomes)) for i, lemma in enumerate(LEMMAS)
            if lemma.name.startswith("stabilizer_bound")]
    return [c.to_dict() for c in _lemma_rows(m, rows)]


@pytest.mark.parametrize("m", _DIFFERENTIAL, ids=str)
def test_lemma_checks_match_their_loops(m):
    check = _rows(m, _check_group_axioms)[0]
    assert (check.statistic, check.witness) == _group_axioms_loop(m) == (0, "")
    check = _rows(m, _rotated_plane_checks)[0]
    assert (check.statistic, check.witness) == _norm_invariance_loop(m) == (0, "")
    check = _rows(m, _check_line_census)[0]
    assert (check.statistic, check.witness, check.universe) == _line_census_loop(m)
    assert np.array_equal(orthogroup.stabilizer_table(m), _stabilizer_table_loop(m))
    assert _stabilizer_rows(m) == _stabilizer_rows_loop(m)


@pytest.fixture
def corrupt_group(monkeypatch):
    """Swap rotations of a modulus's group table for non-rotations, or drop
    those mapped to None."""

    def corrupt(m, swaps):
        real = orthogroup.so2_table
        table = real(m).copy()
        rows = table.tolist()
        for good, bad in swaps.items():
            if bad is not None:
                table[rows.index(list(good))] = bad
        table = np.delete(table, [rows.index(list(g)) for g, b in swaps.items() if b is None], 0)
        monkeypatch.setattr(
            orthogroup, "so2_table", lambda mod: table if mod == m else real(mod)
        )
        orthogroup.so2_elements.cache_clear()

    yield corrupt
    orthogroup.so2_elements.cache_clear()


@pytest.mark.parametrize(
    "m, swaps",
    [
        (M9, {(1, 3): (1, 4)}),
        (M27, {(1, 9): (1, 10)}),
        (M25, {(0, 1): (0, 2)}),
        (Modulus(7, 2), {(1, 0): (2, 0)}),
        # two bad rows: the earlier one in table order names the witness
        (M27, {(1, 9): (1, 10), (0, 1): (0, 2)}),
    ],
    ids=str,
)
def test_group_checks_report_a_corrupted_rotation_like_the_loops(corrupt_group, m, swaps):
    clean = orthogroup.stabilizer_table(m)
    corrupt_group(m, swaps)
    check = _rows(m, _check_group_axioms)[0]
    fails, witness = _group_axioms_loop(m)
    assert fails > 0 and not check.passed
    assert (check.statistic, check.witness) == (fails, witness)
    check = _rows(m, _rotated_plane_checks)[0]
    fails, witness = _norm_invariance_loop(m)
    assert fails > 0 and not check.passed
    assert (check.statistic, check.witness) == (fails, witness)
    table = orthogroup.stabilizer_table(m)
    assert not np.array_equal(table, clean)
    assert np.array_equal(table, _stabilizer_table_loop(m))
    assert _stabilizer_rows(m) == _stabilizer_rows_loop(m)


@pytest.mark.parametrize(
    "m, swaps",
    [
        (M9, {(8, 0): None}),
        (M9, {(1, 3): None, (1, 6): None}),
        (M27, {(1, 9): None, (1, 18): None}),
        (M25, {(0, 1): None, (0, 24): None}),
    ],
    ids=str,
)
def test_group_axioms_report_missing_rotations_like_the_loop(corrupt_group, m, swaps):
    # the dropped rotations are each other's inverses (-I is its own), so
    # every inverse check passes and only products fall outside the table
    corrupt_group(m, swaps)
    check = _rows(m, _check_group_axioms)[0]
    fails, witness = _group_axioms_loop(m)
    assert fails > 0 and " o " in witness
    assert (check.statistic, check.witness) == (fails, witness)
    assert _stabilizer_rows(m) == _stabilizer_rows_loop(m)


@st.composite
def _table_rows(draw, m):
    """A row (a, b) for a group table: any pair, a true rotation, or
    (a - 1) + b i built from chosen depths, directly or, for p = 1 mod 4,
    through the split coordinates (a - 1) + b i -> ((a - 1) +- iota b)."""
    q, p = m.q, m.p
    kind = draw(st.sampled_from(["any", "rotation", "scaled", "split"]))
    x, y = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    if kind == "any":
        return x, y
    if kind == "rotation":
        return tuple(draw(st.sampled_from(orthogroup.so2_table(m).tolist())))
    s, t = draw(st.integers(0, m.l)), draw(st.integers(0, m.l))
    re, im = p**s * x % q, p**t * y % q
    if kind == "split" and p % 4 == 1:
        iota = next(i for i in range(q) if (i * i + 1) % q == 0)
        half = pow(2, -1, q)
        re, im = (re + im) * half % q, (re - im) * half * pow(iota, -1, q) % q
    return (re + 1) % q, im


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_depth_counts_match_the_loops_on_any_table(data):
    # every count must hold for an arbitrary table, not only for the group
    m = data.draw(st.sampled_from([M9, M25, M27, Modulus(7, 2), Modulus(13, 2)]), label="m")
    rows = data.draw(st.lists(_table_rows(m), max_size=8), label="rows")
    table = np.array(rows, dtype=np.int64).reshape(-1, 2)
    real = orthogroup.so2_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orthogroup, "so2_table", lambda mod: table if mod == m else real(mod))
        orthogroup.so2_elements.cache_clear()
        try:
            assert np.array_equal(orthogroup.stabilizer_table(m), _stabilizer_table_loop(m))
            check = _rows(m, _rotated_plane_checks)[0]
            assert (check.statistic, check.witness) == _norm_invariance_loop(m)
            assert check.universe == m.q**2 * len(rows)
            assert _stabilizer_rows(m) == _stabilizer_rows_loop(m)
            v = data.draw(st.tuples(st.integers(0, m.q - 1), st.integers(0, m.q - 1)), label="v")
            keys = [t.key() for t in orthogroup.stabilizer(m, v)]
            assert keys == [t.key() for t in so2_elements(m) if t.apply(v) == v]
        finally:
            orthogroup.so2_elements.cache_clear()


def _duplicate(lines, k):
    return lines[:k] + lines[k - 1 : k] + lines[k + 1 :]


@pytest.mark.parametrize(
    "m, faults",
    [
        (M9, {0: lambda m, lines: _duplicate(lines, 5)}),
        (M27, {1: lambda m, lines: lines + lines[2:3]}),
        (M25, {0: lambda m, lines: lines[:3] + (geometry.Line(m, (5, 5), 0),) + lines[4:]}),
        (M27, {0: lambda m, lines: _duplicate(lines, 7),
               1: lambda m, lines: lines[:1] + (geometry.Line(m, (9, 9), 1),) + lines[2:]}),
        (M27, {2: lambda m, lines: lines + (geometry.Line(m, (0, 9), 2),) * 2}),
    ],
    ids=["Z_9-replaced", "Z_27-appended", "Z_25-short", "Z_27-two-strata", "Z_27-twice"],
)
def test_line_census_check_reports_a_faulty_census_like_the_loop(monkeypatch, m, faults):
    census = geometry.lines_in_stratum

    def faulty(mod, n):
        lines = census(mod, n)
        return faults[n](mod, lines) if n in faults else lines

    monkeypatch.setattr(geometry, "lines_in_stratum", faulty)
    check = _rows(m, _check_line_census)[0]
    fails, witness, universe = _line_census_loop(m)
    assert fails > 0 and not check.passed
    assert (check.statistic, check.witness, check.universe) == (fails, witness, universe)


def test_line_tables_are_cached_per_census_not_per_modulus(monkeypatch):
    # clean runs fill the row tables of Z_27 and Z_9 first; a faulty census
    # of the same moduli must get tables of its own
    assert _rows(M27, _check_line_census)[0].passed
    clean = geometry.incidence_census(M9)
    census = geometry.lines_in_stratum

    def faulty(mod, n):
        lines = census(mod, n)
        return _duplicate(lines, 3) if n == 0 else lines

    monkeypatch.setattr(geometry, "lines_in_stratum", faulty)
    check = _rows(M27, _check_line_census)[0]
    fails, witness, universe = _line_census_loop(M27)
    assert fails > 0 and not check.passed
    assert (check.statistic, check.witness, check.universe) == (fails, witness, universe)
    hits = geometry.incidence_census(M9)
    want = np.zeros((M9.q, M9.q), dtype=np.int64)
    for line in faulty(M9, 0):
        for point in set(line.points()):
            want[point] += 1
    assert np.array_equal(hits, want) and not np.array_equal(hits, clean)


@pytest.mark.parametrize("m, rows", [(Modulus(3, 6), 100), (Modulus(31, 2), 333)], ids=str)
def test_group_products_in_int32_match_int64(monkeypatch, m, rows):
    # every t o u of the group, in blocks of `rows` rotations t, against
    # (ta ua - tb ub, tb ua + ta ub) in int64
    g, q = orthogroup.so2_table(m), m.q
    monkeypatch.setattr(orthogroup, "_CHUNK_BYTES", 4 * len(g) * rows)
    blocks = list(_compositions(g, q))
    assert [s for s, _ in blocks] == list(range(0, len(g), rows))
    got = np.concatenate([block for _, block in blocks])
    assert got.dtype == np.int32
    ta, tb, ua, ub = g[:, :1], g[:, 1:], g[:, 0], g[:, 1]
    want = (ta * ua - tb * ub) % q * q + (tb * ua + ta * ub) % q
    assert np.array_equal(got, want)
