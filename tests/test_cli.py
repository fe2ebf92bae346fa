import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import tensortract
from tensortract import (ComplexityQuery, KernelSpec, NumericError, ResourceLimitError,
                         TruncationError, count_info_complexity_all, family_eigenpair,
                         family_eigenvalues)
from tensortract.cli import _csv_lines, _fmt, _write_json, build_parser, main
from tensortract.spectra import FAMILIES
from tensortract.complexity import _effective_budget, _participating_weights
from tensortract.eigensolve import (ANALYTIC_FAMILIES, _FLOAT_ROOTS, family_count_bound,
                                    family_eigenpairs)

MIN = KernelSpec("sobolev-min")


def run(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


def test_eigs_sobolev_min_csv(tmp_path):
    out = tmp_path / "eigs.csv"
    assert run(["eigs", "--family", "sobolev-min", "--count", "2",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["j", "lambda", "alpha", "beta"]
    assert float(rows[0][1]) == pytest.approx(1.35103388, abs=1e-7)
    assert float(rows[1][1]) == pytest.approx(0.08521617, abs=1e-7)


def test_eigs_korobov_tie(tmp_path):
    out = tmp_path / "eigs.csv"
    assert run(["eigs", "--family", "korobov", "--alpha", "1", "--beta", "1",
                "--count", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [1.0, 1.0, 1.0]


def test_eigs_cosh_json(tmp_path):
    out = tmp_path / "eigs.json"
    assert run(["eigs", "--family", "sobolev-cosh", "--count", "2",
                "--out", str(out), "--format", "json"]) == 0
    data = json.loads(out.read_text())
    lams = [row["lambda"] for row in data["eigenpairs"]]
    assert lams[0] == 1.0
    assert lams[1] == pytest.approx(0.091999668, abs=1e-9)


def _count_root_solves(monkeypatch):
    """Record the count of every `_min_kernel_roots` call."""
    calls = []
    solve = tensortract.eigensolve._min_kernel_roots
    monkeypatch.setattr(tensortract.eigensolve, "_min_kernel_roots",
                        lambda count, m=None: calls.append(count) or solve(count, m))
    return calls


def test_eigs_solves_each_root_once(monkeypatch, capsys):
    # one vector solve of all the roots, never one solve per row
    calls = _count_root_solves(monkeypatch)
    assert run(["eigs", "--family", "sobolev-min", "--count", "20", "--format", "json"]) == 0
    assert calls == [20]
    assert json.loads(capsys.readouterr().out)["exact_decay"] == 2.0


@pytest.mark.parametrize("spec", [
    KernelSpec("sobolev-min"), KernelSpec("sobolev-cosh"),
    KernelSpec("korobov", alpha=0.75, beta=0.9), KernelSpec("korobov", alpha=1.0, beta=1.0),
    KernelSpec("korobov", alpha=2.3, beta=0.37)], ids=lambda spec: spec.label())
def test_eigs_lambda_is_the_counted_list(tmp_path, spec):
    # eigs writes the very values complexity and classify count, bit for bit,
    # on both sides of the roots sobolev-min solves in floats
    out = tmp_path / "eigs.csv"
    flags = ["--alpha", str(spec.alpha), "--beta", str(spec.beta)] if spec.alpha else []
    k = _FLOAT_ROOTS
    for count in (k - 1, k, k + 1, 2 * k, 3000):
        assert run(["eigs", "--family", spec.family, *flags, "--count", str(count),
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [int(row[0]) for row in rows] == list(range(1, count + 1))
        np.testing.assert_array_equal([float(row[1]) for row in rows],
                                      family_eigenvalues(spec, count).values)


def test_classify_reads_the_head_of_the_complexity_list(monkeypatch, capsys):
    counted = []
    count_all = tensortract.cli.count_info_complexity_all
    monkeypatch.setattr(tensortract.cli, "count_info_complexity_all",
                        lambda seq, query: counted.append(seq) or count_all(seq, query))
    assert run(["complexity", "--family", "sobolev-min", "--eps", "1e-3", "--d", "2"]) == 0
    capsys.readouterr()
    assert run(["classify", "--family", "sobolev-min", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (seq,) = counted
    assert len(seq.values) > 2 * _FLOAT_ROOTS
    assert [report["lambda1"], report["lambda2"]] == seq.values[:2].tolist()


@pytest.mark.parametrize("spec", [
    KernelSpec("sobolev-min"), KernelSpec("sobolev-cosh"),
    KernelSpec("korobov", alpha=0.75, beta=0.9)], ids=lambda spec: spec.label())
def test_eigs_csv_bytes_are_the_fmt_join(tmp_path, capsys, spec):
    # one %-template per row writes the bytes of the per-value _fmt join
    count = 3 * _FLOAT_ROOTS
    flags = ["--alpha", str(spec.alpha), "--beta", str(spec.beta)] if spec.alpha else []
    args = ["--family", spec.family, *flags]
    values, params = family_eigenpairs(spec, count)
    keys = sorted(params)
    rows = zip(range(1, count + 1), values.tolist(), *(params[k].tolist() for k in keys))
    want = ",".join(["j", "lambda", *keys]) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    out = tmp_path / "eigs.csv"
    assert run(["eigs", *args, "--count", str(count), "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    assert run(["eigs", *args, "--count", str(count)]) == 0
    assert capsys.readouterr().out == want


def test_csv_text_fields_round_trip(tmp_path, capsys):
    # a text field holding a comma, a quote or a line break is quoted as
    # csv.QUOTE_MINIMAL quotes it; every other field keeps _fmt's bytes
    korobov = ["--family", "korobov", "--alpha", "1", "--beta", "0.5"]
    for argv in (["classify", *korobov], ["complexity", *korobov, "--eps", "0.1", "--d", "2"],
                 ["complexity", "--family", "sobolev-min", "--eps", "0.1", "--d", "2"]):
        assert run([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run(argv) == 0
        text = capsys.readouterr().out
        header, row = csv.reader(io.StringIO(text))
        assert len(row) == len(header), argv
        fields = dict(zip(header, row))
        assert all(fields[key] == v for key, v in payload.items() if isinstance(v, str))
        assert text.split("\n")[1] == ",".join(_fmt(payload[key]) for key in header)
        assert ('"' in text) == (argv[2] == "korobov")
    out = tmp_path / "report.csv"
    assert run(["reproduce", "--only", "4", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    header, *table = csv.reader(io.StringIO(out.read_text()))
    assert {len(row) for row in table} == {len(header)}
    assert "korobov t* (alpha=1, beta=0.367879)" in [row[1] for row in table]
    line = next(_csv_lines([['say "hi", then\nstop', 0.5, True, None]]))
    assert line == '"say ""hi"", then\nstop",0.5,true,\n'
    assert list(csv.reader(io.StringIO(line))) == [['say "hi", then\nstop', "0.5", "true", ""]]


def test_oracle_eigs_at_a_petascale_grid_is_the_analytic_rule(capsys):
    # the secular and aliased solvers never form an m-sized array, and at
    # m = 10^15 the quadrature error is far below double precision
    for args, rule in ((["--family", "sobolev-min"], family_eigenvalues(MIN, 5)),
                       (["--family", "korobov", "--alpha", "1", "--beta", "0.5"],
                        family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=0.5), 5))):
        assert run(["oracle-eigs", "--grid-size", str(10 ** 15), "--count", "5",
                    "--format", "json"] + args) == 0
        got = [row["lambda"] for row in json.loads(capsys.readouterr().out)["eigenvalues"]]
        np.testing.assert_allclose(got, rule.values, rtol=1e-12)


def test_oracle_eigs_small_grid(tmp_path):
    out = tmp_path / "oracle.csv"
    assert run(["oracle-eigs", "--family", "sobolev-min", "--count", "2",
                "--grid-size", "200", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(1.35103388, rel=1e-3)


def test_oracle_eigs_refine(tmp_path):
    out = tmp_path / "refined.csv"
    assert run(["oracle-eigs", "--family", "sobolev-min", "--count", "1",
                "--refine", "100,200", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["j", "lambda", "error_estimate"]
    assert float(rows[0][1]) == pytest.approx(1.3510338868783787, abs=1e-5)
    assert float(rows[0][2]) > 0.0


@pytest.mark.parametrize("args, solver", [
    (["--family", "sobolev-distance", "--anchor", "0.5", "--grid-size", "200"], "anchored"),
    (["--family", "korobov", "--alpha", "0.75", "--beta", "0.5", "--grid-size", "200"],
     "circulant-fft"),
    (["--family", "sobolev-distance", "--anchor", "0.3", "--grid-size", "20"], "anchored"),
    (["--family", "sobolev-distance", "--anchor", "0.5", "--count", "3", "--refine", "10,20"],
     "anchored"),
    (["--family", "sobolev-cosh", "--grid-size", "20"], "dct"),
    (["--family", "brownian-min", "--grid-size", "20"], "dst"),
    (["--family", "sobolev-min", "--grid-size", "200", "--count", "200"], "secular"),
    (["--family", "sobolev-distance", "--anchor", "0", "--grid-size", "20"], "secular"),
    (["--family", "sobolev-distance", "--anchor", "1", "--count", "3", "--refine", "10,20"],
     "secular"),
    (["--family", "korobov", "--alpha", "1", "--beta", "0.5", "--grid-size", "200"], "aliased"),
    (["--family", "korobov", "--alpha", "3", "--beta", "0.5", "--count", "3", "--refine", "10,20"],
     "aliased"),
])
def test_oracle_eigs_reports_its_solver(capsys, args, solver):
    assert run(["oracle-eigs", "--format", "json"] + args) == 0
    assert json.loads(capsys.readouterr().out)["solver"] == solver


def test_oracle_eigs_refine_checks_count_against_the_solved_sizes(capsys):
    # only 100 and 200 are solved, so --count 5 fits though 3 is listed first
    assert run(["oracle-eigs", "--family", "sobolev-min", "--count", "5",
                "--refine", "3,100,200", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == 5
    assert run(["oracle-eigs", "--count", "5", "--refine", "3,4,200"]) == 2


def test_oracle_eigs_refine_reports_no_grid_size(capsys):
    # --refine solves only its own two finest sizes, never the --grid-size default
    assert run(["oracle-eigs", "--count", "1", "--refine", "100,200", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["grid_size"] is None
    assert data["refine"] == "100,200"


def test_complexity_command(tmp_path):
    out = tmp_path / "cx.json"
    assert run(["complexity", "--family", "korobov", "--alpha", "1",
                "--beta", "0.5", "--d", "1", "--eps", "0.6",
                "--out", str(out), "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 3
    assert data["method"] == "weight-classes"
    assert not data["saturated"]


def test_complexity_std_lower_bound(capsys):
    assert run(["complexity", "--family", "korobov", "--alpha", "1",
                "--beta", "0.5", "--d", "2", "--eps", "0.5",
                "--info-class", "std", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lower_bound_only"] is True


def test_complexity_builds_one_list_of_the_closed_form_length(monkeypatch, capsys):
    sizes = []
    build = tensortract.cli.family_eigenvalues
    monkeypatch.setattr(tensortract.cli, "family_eigenvalues",
                        lambda spec, count: sizes.append(count) or build(spec, count))
    assert run(["complexity", "--family", "sobolev-min", "--eps", "1e-3", "--d", "2",
                "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # alpha_j > (j - 1) pi bounds the 274 counted indices by floor(alpha_1 / (pi eps)) + 1
    assert sizes == [math.floor(0.8603335890193798 / (math.pi * 1e-3)) + 2] == [275]
    long = count_info_complexity_all(family_eigenvalues(MIN, 4096),
                                     ComplexityQuery(eps=1e-3, d=2))
    assert (data["count"], data["truncation_index"]) == (long.count, long.truncation_index)
    assert (long.count, long.truncation_index) == (865, 274)


@pytest.mark.parametrize("eps", ["1e-9", "1e-300"])
def test_complexity_refuses_a_tiny_eps_before_any_root_is_solved(monkeypatch, capsys, eps):
    calls = _count_root_solves(monkeypatch)
    assert run(["complexity", "--family", "sobolev-min", "--d", "3", "--eps", eps]) == 3
    assert "more than 2^21 univariate eigenvalues" in capsys.readouterr().err
    assert calls == []


def _doubling_loop(spec, eps):
    """Oracle for the closed-form list length: the list that doubling from 64
    first resolves at eps, refusing past 2^21 eigenvalues."""
    budget = _effective_budget(eps)
    count = 64
    while True:
        lam = family_eigenvalues(spec, count)
        try:
            _participating_weights(lam, budget)
            return lam
        except TruncationError as exc:
            count *= 2
            if count > 2 ** 21:
                raise ResourceLimitError("past 2^21") from exc


@st.composite
def _count_cases(draw):
    spec = draw(st.one_of(
        st.sampled_from([KernelSpec("sobolev-min"), KernelSpec("sobolev-cosh")]),
        st.builds(lambda alpha, beta: KernelSpec("korobov", alpha=alpha, beta=beta),
                  st.floats(0.55, 4.0), st.one_of(st.just(1.0), st.floats(0.01, 1.0)))))
    eps = 10.0 ** draw(st.floats(-6.0, -0.01))
    # d > 1 only where the count stays cheap
    d = draw(st.integers(1, 3)) if eps > 0.01 else 1
    return spec, ComplexityQuery(eps=eps, d=d)


@settings(max_examples=60, deadline=None)
@given(_count_cases())
def test_closed_form_length_matches_the_doubling_loop(case):
    spec, query = case
    length = family_count_bound(spec, query.eps) + 1
    if length > 2 ** 21:   # refused, and so by the loop
        with pytest.raises(ResourceLimitError, match="past 2"):
            _doubling_loop(spec, query.eps)
        return
    lam, want = family_eigenvalues(spec, int(length)), _doubling_loop(spec, query.eps)
    budget = _effective_budget(query.eps)
    # the list never raises, and the same participating weights give the same
    # count at every d; counting 10^4 of them or more takes too long here
    w = _participating_weights(lam, budget)
    np.testing.assert_array_equal(w, _participating_weights(want, budget))
    if len(w) < 10 ** 4:
        got, ref = count_info_complexity_all(lam, query), count_info_complexity_all(want, query)
        assert (got.count, got.truncation_index) == (ref.count, ref.truncation_index)


@pytest.mark.parametrize("spec", [KernelSpec("sobolev-min"), KernelSpec("sobolev-cosh"),
                                  KernelSpec("korobov", alpha=0.75, beta=0.9)],
                         ids=lambda spec: spec.label())
def test_complexity_refusal_edge_at_two_to_the_21(spec):
    """The closed form refuses every eps up to `edge`, where a 2^21-long list
    would need one more eigenvalue; the doubling loop refused only up to 5e-13
    relative below it, so in between its 2^21-long list still resolved."""
    # bisect on the bit patterns, which positive doubles share the order of
    lo, hi = (int(np.float64(eps).view(np.int64)) for eps in (1e-9, 1e-3))   # refused, resolved
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if family_count_bound(spec, float(np.int64(mid).view(np.float64))) + 1 > 2 ** 21:
            lo = mid
        else:
            hi = mid
    edge, above = (float(np.int64(bits).view(np.float64)) for bits in (lo, hi))
    assert family_count_bound(spec, above) + 1 <= 2 ** 21
    assert run(["complexity", "--family", spec.family, "--d", "1", "--eps", repr(edge)]
               + (["--alpha", "0.75", "--beta", "0.9"] if spec.alpha else [])) == 3
    lam = family_eigenvalues(spec, 2 ** 21)
    for eps in (above, edge):   # the doubling loop's last list resolves both
        assert len(_participating_weights(lam, _effective_budget(eps))) < 2 ** 21
    with pytest.raises(TruncationError):   # and both refuse below the window
        _participating_weights(lam, _effective_budget(edge * (1.0 - 1e-12)))


def test_classify_command(capsys):
    assert run(["classify", "--family", "sobolev-min", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification_all"] == "qpt-not-pt"
    assert data["qpt_exponent"] == 1.0
    assert data["classification_std"] == "curse"
    assert data["goodcase_holds"] is True


def test_classify_korobov_tie(capsys):
    assert run(["classify", "--family", "korobov", "--alpha", "1.0",
                "--beta", "1.0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification_all"] == "curse"
    assert data["classification_std"] == "curse"


def test_classify_csv_writes_null_as_an_empty_field(capsys):
    assert run(["classify", "--family", "korobov", "--alpha", "1", "--beta", "1"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    fields = dict(zip(header, row))
    assert fields["qpt_exponent"] == fields["goodcase_holds"] == ""


def test_density_outputs_and_determinism(tmp_path, capsys):
    out = tmp_path / "fig"
    assert run(["density", "--samples", "257", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["unit_mass_defect"] < 1e-6
    csv_path, svg_path = tmp_path / "fig.csv", tmp_path / "fig.svg"
    first_csv = csv_path.read_bytes()
    first_svg = svg_path.read_bytes()
    assert run(["density", "--samples", "257", "--out", str(out)]) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == first_csv
    assert svg_path.read_bytes() == first_svg
    assert first_svg.startswith(b"<?xml")

    header, rows = read_csv(csv_path)
    assert header == ["x", "g1"]
    ys = [float(r[1]) for r in rows]
    # monotone in the direction fixed by the endpoint sign check
    direction = 1.0 if ys[-1] > ys[0] else -1.0
    assert all(direction * (b - a) > 0.0 for a, b in zip(ys, ys[1:]))
    assert ys[-1] / ys[0] == pytest.approx(1.5333081513115288, abs=1e-9)


def test_density_csv_round_trip_exact(tmp_path, capsys):
    out = tmp_path / "fig"
    assert run(["density", "--samples", "65", "--out", str(out)]) == 0
    capsys.readouterr()
    from tensortract.cli import density_profile
    xs, ys, _ = density_profile(65)
    _, rows = read_csv(tmp_path / "fig.csv")
    for (x, y), row in zip(zip(xs, ys), rows):
        assert float(row[0]) == x
        assert float(row[1]) == y


def test_density_integral_matches_scipy_simpson():
    import scipy.integrate

    from tensortract.cli import _DENSITY_QUAD_NODES, density_profile
    pair = family_eigenpair(MIN, 1)
    qx = np.linspace(0.0, 1.0, _DENSITY_QUAD_NODES)
    expected = scipy.integrate.simpson((pair.func(qx) / math.sqrt(pair.value)) ** 2, x=qx)
    assert abs(density_profile(65)[2] - expected) <= 1e-15


def test_density_rejects_other_families(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["density", "--family", "sobolev-cosh"])
    assert exc.value.code == 2


def test_verify_reduction_small(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify-reduction", "--problems", "4", "--trials", "2",
                "--samples", "6", "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["failures"] == 0
    assert len(data["reports"]) == 4


def test_verify_reduction_from_file(tmp_path):
    path = tmp_path / "problem.txt"
    # first line 'm k', then gram_F (m x m), operator_S (k x m), gram_G (k x k), row-major
    path.write_text("3 2\n"
                    "2 0.5 0\n0.5 2 0.5\n0 0.5 2\n"
                    "1 0.3 -0.2\n0 1 0.4\n"
                    "1.5 0.2\n0.2 1\n")
    out = tmp_path / "report.json"
    assert run(["verify-reduction", "--problem", str(path), "--trials", "2",
                "--samples", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["instances"] == 1


@pytest.mark.parametrize("option", ["--max-n", "--m-max", "--k-max"])
def test_verify_reduction_sets_its_own_instance_sizes(option):
    # m in [2, 6], k in [1, 4] and n in [0, 2] are fixed; the options are gone
    with pytest.raises(SystemExit) as exc:
        run(["verify-reduction", "--problems", "1", option, "3"])
    assert exc.value.code == 2


def test_verify_reduction_loop_counts_are_guarded():
    # each of these sizes a loop or a (samples, k) draw: past 2^21 is a
    # resource limit, refused before any problem is drawn
    for option in ("--problems", "--trials", "--samples"):
        for value in (2 ** 21 + 1, 10 ** 19):
            assert run(["verify-reduction", option, str(value)]) == 3, option


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=korobov\nalpha=1\nbeta=0.5\nd=1\neps=0.6\nformat=json\n")
    assert run(["complexity", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 3
    # explicit flags win over the config value
    assert run(["complexity", "--config", str(cfg), "--eps", "0.9"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_invalid_arguments_exit_code(tmp_path):
    assert run(["eigs", "--family", "korobov", "--alpha", "0.3",
                "--beta", "0.5", "--count", "2"]) == 2
    assert run(["oracle-eigs", "--family", "korobov", "--alpha", "inf",
                "--beta", "0.5"]) == 2
    # parameters of another family are refused, not ignored
    assert run(["eigs", "--family", "sobolev-min", "--alpha", "7"]) == 2
    assert run(["oracle-eigs", "--family", "sobolev-cosh", "--anchor", "0.3"]) == 2
    for refine in ("100,,200", "100,2x00"):
        assert run(["oracle-eigs", "--count", "2", "--refine", refine]) == 2
    for flag, value in (("--seed", "-1"), ("--trials", "0"), ("--samples", "0")):
        assert run(["verify-reduction", "--problems", "1", flag, value]) == 2
    for problems in ("0", "-1"):   # no instance checked is no pass
        assert run(["verify-reduction", "--problems", problems]) == 2
    path = tmp_path / "problem.txt"
    # a non-numeric token, a non-integer m, a NaN in the operator
    for text in ("2 1\n1 0 0 x\n0.5 0.5\n1\n", "2.5 1\n1 0 0 1\n0.5 0.5\n1\n",
                 "2 1\n1 0 0 1\nnan 0.5\n1\n"):
        path.write_text(text)
        assert run(["verify-reduction", "--problem", str(path)]) == 2


def test_resource_guard_exit_code():
    assert run(["complexity", "--family", "korobov", "--alpha", "0.51",
                "--beta", "1.0", "--d", "2", "--eps", "0.000001"]) == 3
    # refused before a single eigenpair is built (10^8 would take about 25 minutes)
    for count in (2 ** 21 + 1, 10 ** 8):
        assert run(["eigs", "--family", "korobov", "--alpha", "1", "--beta", "0.5",
                    "--count", str(count)]) == 3


def test_json_output_is_strict(tmp_path):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NumericError):
            _write_json(tmp_path / "bad.json", {"x": bad})
    assert not (tmp_path / "bad.json").exists()


def test_memory_exhaustion_exit_code(capsys):
    # 10^15 nodes need 8 PB, past any address space: the allocation fails at
    # once (korobov's circulant FFT needs every node; the closed forms need none)
    assert run(["oracle-eigs", "--family", "korobov", "--alpha", "0.75", "--beta", "0.5",
                "--grid-size", str(10 ** 15)]) == 3
    assert capsys.readouterr().err.startswith("resource limit: out of memory")


def test_reproduce_subset(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["reproduce", "--only", "1,3,4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "checks passed" in text
    data = json.loads(out.read_text())
    assert all(row["pass"] for row in data)
    assert {row["criterion_id"] for row in data} == {"1", "3", "4"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reproduce_report_carries_criterion_seconds(tmp_path, capsys, fmt):
    out = tmp_path / f"report.{fmt}"
    assert run(["reproduce", "--only", "1,3", "--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    if fmt == "json":
        rows = [(row["criterion_id"], row["seconds"]) for row in json.loads(out.read_text())]
    else:
        header, table = read_csv(out)
        assert header[-1] == "seconds"
        rows = [(row[0], float(row[-1])) for row in table]
    seconds = {}
    for cid, sec in rows:
        assert isinstance(sec, float) and sec >= 0.0
        # every row of one criterion carries that criterion's time
        assert seconds.setdefault(cid, sec) == sec
    assert set(seconds) == {"1", "3"}


def test_reproduce_fail_hook(tmp_path, capsys, fail_hook):
    out = tmp_path / "report.csv"
    fail_hook("1")
    assert run(["reproduce", "--only", "1", "--out", str(out), "--format", "csv"]) == 4
    assert "FAIL" in capsys.readouterr().out
    # the perturbation lives in the tests: reproduce has no option for it
    with pytest.raises(SystemExit) as exc:
        run(["reproduce", "--fail", "1"])
    assert exc.value.code == 2
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = subparsers.choices["reproduce"]._actions
    assert {a.dest for a in options if a.option_strings} - {"help"} == {
        "out", "format", "config", "only"}


@pytest.mark.parametrize("cid", ["9", "13"])
def test_reproduce_fail_hook_on_characterization_and_goodcase(capsys, fail_hook, cid):
    fail_hook(cid)
    assert run(["reproduce", "--only", cid]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_density_needs_two_samples():
    assert run(["density", "--samples", "1"]) == 2


def test_svg_format_rejected_outside_density():
    with pytest.raises(SystemExit) as exc:
        run(["eigs", "--family", "sobolev-min", "--count", "2", "--format", "svg"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eigs", "oracle-eigs", "classify", "density", "reproduce"])
def test_seed_only_on_verify_reduction(command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--seed", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eigs", "--anchor", "0.3"], ["classify", "--anchor", "0.3"],
    ["complexity", "--anchor", "0.3", "--d", "2", "--eps", "0.1"],
    ["density", "--alpha", "1"], ["eigs", "--family", "brownian-min"],
    ["classify", "--family", "sobolev-distance"],
    ["complexity", "--family", "brownian-min", "--d", "2", "--eps", "0.1"]])
def test_family_flags_only_where_they_apply(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_config_flag_without_path_exits_2(tmp_path, capsys):
    assert run(["eigs", "--config"]) == 2
    assert run(["eigs", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("form", [("--config", "{}"), ("--config={}",), ("--conf", "{}"),
                                  ("--conf={}",)],
                         ids=["separate", "equals", "abbreviated", "abbreviated-equals"])
def test_config_file_applied_in_every_spelling(tmp_path, capsys, form):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("count=3\n")
    assert run(["eigs", *(token.format(cfg) for token in form)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3


def _bad_paths(tmp_path):
    """A missing file, a directory and a file that is not UTF-8 text."""
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(128, 256)))
    (tmp_path / "dir").mkdir(exist_ok=True)
    return {"missing": str(tmp_path / "missing" / "p.txt"), "dir": str(tmp_path / "dir"),
            "binary": str(binary)}


@pytest.mark.parametrize("argv", [
    ["verify-reduction", "--problem", "{missing}"], ["verify-reduction", "--problem", "{dir}"],
    ["verify-reduction", "--problem", "{binary}"], ["eigs", "--out", "{missing}"],
    ["density", "--out", "{missing}"], ["eigs", "--config", "{binary}"]])
def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys, argv):
    paths = _bad_paths(tmp_path)
    assert run([tok.format(**paths) for tok in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-reduction", "--problem", "{bad}"], ["verify-reduction", "--config", "{bad}"],
    ["verify-reduction", "--problem", "{bad}", "--config", "{good}"]],
    ids=["problem", "config", "problem-with-config"])
def test_file_that_is_not_utf8_is_named(tmp_path, capsys, argv):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.cfg"
    bad.write_bytes(b"\x80\x81")
    good.write_text("samples=5\n")
    assert run([tok.format(bad=bad, good=good) for tok in argv]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and str(good) not in err
    assert "Traceback" not in err


# argument values for the fuzz: small valid numbers, out-of-range and
# non-numeric ones, and the bad paths of _bad_paths
_FUZZ_VALUES = ["1", "2", "3", "0.5", "0.1", "0.001", "1e-300", "0", "-1", "nan", "inf",
                "-inf", "", "x", "{missing}", "{dir}", "{binary}"]
# criteria that take milliseconds, and one unknown id
_FUZZ_CRITERIA = ["1", "3", "4", "6", "13", "1,13", "99"]


def _subcommand_options():
    """Each subcommand's options, but --only, which the fuzz draws from
    _FUZZ_CRITERIA alone."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings and a.dest != "only"]
            for name, p in subparsers.choices.items()}


_OPTIONS = _subcommand_options()


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    # keep every call cheap: a handful of problems, a few fast criteria
    if command == "verify-reduction":
        argv += ["--problems", "2"]
    if command == "reproduce":
        argv += ["--only", draw(st.sampled_from(_FUZZ_CRITERIA))]
    for action in draw(st.lists(st.sampled_from(_OPTIONS[command]), max_size=5)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(st.sampled_from(list(action.choices or []) + _FUZZ_VALUES)))
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_argv())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    paths = _bad_paths(tmp_path)
    try:
        code = run([tok.format(**paths) for tok in argv])
    except SystemExit as exc:   # argparse refusing the argv, or --help
        assert exc.code in (0, 2), argv
    else:
        assert code in (0, 1, 2, 3, 4), argv


# The CLI contract on well-typed argv: nan, inf, zeros, negatives, range edges
# and huge integers, but no m-sized solve above m = 10^5 and no long loop
_HUGE = str(10 ** 30)
_C_ALPHA = ["nan", "inf", "-1", "0.5", "0.5000001", "0.75", "1", "2"]
_C_BETA = ["nan", "-1", "0", "1e-300", "0.3", "1", "1.0000001"]
_C_ANCHOR = ["nan", "-0.5", "0", "1e-300", "0.3", "0.5", "1", "1.5"]
_C_EPS = ["nan", "inf", "-0.5", "0", "1e-300", "0.001", "0.1", "0.5", "0.999999999999", "1"]
# per subcommand: its drawn options, and config lines of its own keys
_CONTRACT_OPTIONS = {
    "eigs": {"--count": ["-3", "0", "1", "7", str(2 ** 21 + 1), _HUGE]},
    "oracle-eigs": {"--count": ["-1", "0", "1", "5", "64"], "--anchor": _C_ANCHOR,
                    "--grid-size": ["-1", "0", "1", "7", "400", "100000", str(10 ** 15),
                                    str(2 ** 53), str(2 ** 53 + 1), _HUGE],
                    "--refine": ["3,100,200", "1000,2000", "7,5", "a,b", "5", f"3,{_HUGE}"]},
    "complexity": {"--d": ["-1", "0", "1", "3", "8", str(10 ** 19)], "--eps": _C_EPS,
                   "--info-class": ["all", "std"]},
    "classify": {},
    "density": {"--samples": ["-1", "0", "1", "2", "65", str(2 ** 21 + 1), _HUGE]},
    "verify-reduction": {"--seed": ["-1", "0", "7", str(2 ** 70)],
                         "--problems": ["0", "1", "2", _HUGE], "--trials": ["0", "1", "2", _HUGE],
                         "--samples": ["0", "1", "3", _HUGE], "--problem": ["{problem}"]},
    "reproduce": {"--only": ["1", "3", "6", "13", "14", "1,13", "99"]},
}
_CONTRACT_CONFIG = {"eigs": "count=3", "oracle-eigs": "grid-size=50", "complexity": "eps=0.25",
                    "classify": "family=sobolev-cosh", "density": "samples=9",
                    "verify-reduction": "problems=1", "reproduce": "only=4"}
_PROBLEM_FILES = ["", "2 1\n1 0 0 1\n0.5 0.5\n1\n", "2 1\nnan 0 0 1\n0.5 0.5\n1\n",
                  "2 1\n1 2 0.5 1\n0.5 0.5\n1\n", "1 1\n-1\n1\n1\n", "x y\n"]
_TABULAR = ("eigs", "oracle-eigs", "complexity", "classify", "reproduce")


@st.composite
def _contract_case(draw):
    """(argv, config text or None, problem file text)."""
    command = draw(st.sampled_from(sorted(_CONTRACT_OPTIONS)))
    argv = [command]
    if command in ("eigs", "oracle-eigs", "complexity", "classify"):
        families = FAMILIES if command == "oracle-eigs" else ANALYTIC_FAMILIES
        family = draw(st.sampled_from(families))
        argv += ["--family", family]
        # korobov needs both parameters and every other family refuses them:
        # those get one only now and then
        for option, values in (("--alpha", _C_ALPHA), ("--beta", _C_BETA)):
            wanted = draw(st.booleans()) if family == "korobov" else draw(st.integers(0, 9)) == 0
            if wanted:
                argv += [option, draw(st.sampled_from(values))]
    options = _CONTRACT_OPTIONS[command]
    for option in draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else ():
        argv += [option, draw(st.sampled_from(options[option]))]
    # complexity needs --d and --eps; reproduce runs a few fast criteria, never all
    for option, default in {"complexity": {"--d": "2", "--eps": "0.1"},
                            "reproduce": {"--only": "1"}}.get(command, {}).items():
        argv += [] if option in argv else [option, default]
    if "korobov" in argv and command == "oracle-eigs":
        # the circulant solver is m-sized: grids up to 10^5 only
        sizes = [int(s) for i, tok in enumerate(argv) if tok in ("--grid-size", "--refine")
                 for s in argv[i + 1].split(",") if s.isdigit()]
        assume(max(sizes, default=2000) <= 10 ** 5)
    config = None
    if draw(st.booleans()):
        lines = st.sampled_from(["", "# a comment", _CONTRACT_CONFIG[command], "no equals sign"])
        config = "\n".join(draw(st.lists(lines, max_size=3)))
    return argv, config, draw(st.sampled_from(_PROBLEM_FILES))


def _json_rows(payload):
    """The row dicts of a JSON payload: the list it is or holds, else the one dict."""
    if isinstance(payload, list):
        return payload
    return next((v for v in payload.values() if isinstance(v, list)), [payload])


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_contract_case())
@example((["density", "--samples", _HUGE], None, ""))   # once a numpy ValueError
@example((["oracle-eigs", "--grid-size", _HUGE], None, ""))   # once an OverflowError from len()
@example((["oracle-eigs", "--family", "sobolev-distance", "--anchor", "0.3",
           "--grid-size", str(2 ** 53), "--count", "64"], None, ""))
def test_cli_contract_property(tmp_path, monkeypatch, case):
    """Every call returns a documented exit code and raises nothing; on exit 0
    the CSV and the JSON of a tabular subcommand hold the same fields under
    _fmt, all but reproduce's wall times."""
    argv, config, problem = case
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.txt").write_text(problem)
    argv = [tok.format(problem=tmp_path / "problem.txt") for tok in argv]
    if config is not None:
        (tmp_path / "args.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "args.cfg")]
    if argv[0] not in _TABULAR:
        assert run(argv + ["--out", str(tmp_path / "out")]) in (0, 1, 2, 3, 4), argv
        return
    outs = {fmt: tmp_path / f"out.{fmt}" for fmt in ("csv", "json")}
    codes = {run(argv + ["--format", fmt, "--out", str(out)]) for fmt, out in outs.items()}
    assert len(codes) == 1 and codes <= {0, 1, 2, 3, 4}, (argv, codes)
    if codes != {0}:
        return
    lines = list(csv.reader(io.StringIO(outs["csv"].read_text())))
    header, rows = lines[0], _json_rows(json.loads(outs["json"].read_text()))
    assert len(lines) == 1 + len(rows), argv
    for fields, row in zip(lines[1:], rows):
        want = next(csv.reader([",".join(_fmt(row[h]) for h in header)]))
        assert len(fields) == len(header), argv
        assert [f for f, h in zip(fields, header) if h != "seconds"] == \
            [f for f, h in zip(want, header) if h != "seconds"], argv


@pytest.mark.parametrize("command", ["density", "verify-reduction"])
def test_format_only_where_it_is_used(command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--format", "csv"])
    assert exc.value.code == 2


def test_verify_reduction_slow_power_iteration_seed():
    # instance 4 has lambda_2 / lambda_1 = 0.857: a fixed 80-step power
    # iteration stopped 7e-5 short of the top eigenspace and reported a failure
    assert run(["verify-reduction", "--problems", "5", "--trials", "2",
                "--samples", "5", "--seed", "504"]) == 0


def test_reproduce_prints_only_the_table(capsys):
    assert run(["reproduce", "--only", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"
    assert all(re.match(r"\[(PASS|FAIL)\] +11 ", line) for line in lines[:-1]), lines


def test_verify_reduction_byte_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-reduction", "--problems", "3", "--trials", "2", "--samples", "5",
            "--seed", "11"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _run_python(code, *args):
    src = os.path.dirname(os.path.dirname(tensortract.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_cli_import_loads_neither_mpmath_nor_scipy_special():
    # scipy.special is imported where the Korobov series needs it, every
    # Nystrom solver is numpy alone, and mpmath is only a test oracle
    modules = {"mpmath", "scipy.special", "scipy.sparse", "scipy.linalg", "scipy.integrate"}
    code = f"import sys, tensortract.cli; print(sorted({modules!r} & set(sys.modules)))"
    assert _run_python(code).strip() == "[]"


_SCIPY_FREE_CALLS = """
import contextlib, io, json, sys
from tensortract.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

run(["eigs", "--count", "3"])
run(["complexity", "--family", "korobov", "--alpha", "1", "--beta", "0.5", "--d", "3",
     "--eps", "0.3"])
run(["classify"])
run(["density", "--samples", "65", "--out", sys.argv[1]])
run(["verify-reduction", "--problems", "3", "--trials", "2", "--samples", "5"])
run(["oracle-eigs", "--family", "korobov", "--alpha", "1", "--beta", "0.5",
     "--grid-size", "64"])
run(["oracle-eigs", "--grid-size", "400"])
run(["oracle-eigs", "--family", "sobolev-min", "--grid-size", "3000", "--count", "3000"])
run(["oracle-eigs", "--family", "sobolev-min", "--grid-size", "1000000", "--count", "5"])
run(["oracle-eigs", "--family", "sobolev-distance", "--anchor", "0.5", "--grid-size", "400"])
run(["oracle-eigs", "--family", "sobolev-distance", "--anchor", "0.3", "--grid-size", "3000",
     "--count", "3000"])
run(["oracle-eigs", "--family", "sobolev-distance", "--anchor", "0.3",
     "--grid-size", "1000000000000000", "--count", "5"])
small = scipy_modules()
run(["reproduce"])
print(json.dumps({"small": small, "reproduce": scipy_modules()}))
"""


def test_cli_subcommands_run_without_scipy(tmp_path):
    # only the non-even Korobov series needs scipy
    loaded = json.loads(_run_python(_SCIPY_FREE_CALLS, str(tmp_path / "density")))
    assert loaded["small"] == []
    assert loaded["reproduce"] == []
