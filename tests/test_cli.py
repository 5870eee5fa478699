"""CLI surface: flags, formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bernsym
from bernsym.cli import _GRID_KEYS, FORMATS, main, parse_grid_file
from bernsym.dirichlet import enumerate_characters
from bernsym.exactnum import CyclotomicNumber as Cyc, euler_phi
from bernsym.errors import ParameterError
from bernsym.identities import GridConfig


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_verify_pass_exit_zero():
    code, out, _ = run_cli(["verify", "--theorem", "1", "--d", "1", "--r", "3",
                            "--j", "1", "--w", "1,2", "--n-max", "4", "--mode", "as-stated"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["sides"][0]["weight"] == "w1*w2"


def test_verify_counterexample_exit_one_with_witness():
    code, out, _ = run_cli(["verify", "--theorem", "3", "--d", "1", "--r", "3",
                            "--j", "1", "--w", "1,2", "--n-max", "1", "--mode", "as-stated"])
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    wit = doc["witness"]
    assert wit["n"] == 1 and wit["y"] == ["0"]
    assert wit["value_a"] == {"m": 3, "coeffs": ["-2/3", "-1/3"]}
    assert wit["value_b"] == {"m": 3, "coeffs": ["-4/3", "-2/3"]}


def test_verify_normalized_mode_passes():
    code, out, _ = run_cli(["verify", "--theorem", "3", "--d", "1", "--r", "3",
                            "--w", "1,2", "--n-max", "1", "--mode", "normalized"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_defaults_to_trivial_character():
    code, out, err = run_cli(["verify", "--theorem", "1", "--d", "5", "--r", "3", "--w", "1,2"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["instance"]["char"] == {"d": 5, "exponents": [0]}


def test_verify_csv_expands_each_side_once(monkeypatch):
    import bernsym.identities as identities

    calls = []
    build = identities._stored_side

    def counting(form, w, *args, **kwargs):
        calls.append(tuple(w))
        return build(form, w, *args, **kwargs)

    monkeypatch.setattr(identities, "_stored_side", counting)
    code, out, _ = run_cli(["verify", "--theorem", "8", "--d", "1", "--r", "5", "--w", "1,2,3",
                            "--n-max", "2", "--mode", "normalized", "--format", "csv"])
    assert code == 0
    assert out.count("side-") == 6 * 3
    assert len(calls) == len(set(calls)) == 6


def test_out_of_range_theorem_is_usage_error():
    code, _, err = run_cli(["verify", "--theorem", "12", "--d", "1", "--r", "3", "--w", "1,2"])
    assert code == 2
    assert "error:" in err and err.count("\n") == 1


def test_unknown_flag_rejected():
    code, _, _ = run_cli(["verify", "--theorem", "1", "--frobnicate", "1"])
    assert code == 2


def test_help_exits_zero():
    code, _, _ = run_cli(["--help"])
    assert code == 0


def test_precondition_violation_is_usage_error():
    code, _, err = run_cli(["verify", "--theorem", "1", "--d", "1", "--r", "3", "--w", "1,3"])
    assert code == 2 and "r=3" in err


def test_bernoulli_output_and_csv():
    code, out, _ = run_cli(["bernoulli", "--d", "1", "--r", "3", "--n-max", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["numbers"][0] == {"m": 3, "coeffs": ["0", "0"]}
    assert doc["numbers"][2] == {"m": 3, "coeffs": ["2/3", "0"]}
    code, out, _ = run_cli(["bernoulli", "--d", "1", "--r", "3", "--n-max", "2",
                            "--format", "csv", "--x", "0"])
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,B_n(0)"
    assert len(lines) == 4


def test_chars_listing():
    code, out, _ = run_cli(["chars", "--d", "5"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["characters"]) == 4
    orders = sorted(c["order"] for c in doc["characters"])
    assert orders == [1, 2, 4, 4]
    code, out, _ = run_cli(["chars", "--d", "5", "--primitive-only"])
    assert len(json.loads(out)["characters"]) == 3


def _naive_chars(d):
    """The chars listing with every value rendered afresh, as json and csv."""
    entries, rows = [], [["label", "order", "conductor", "primitive", "values"]]
    for chi in enumerate_characters(d):
        cond, primitive = chi.conductor()
        values = [str(chi(a)) for a in range(d)]
        entries.append({"d": d, "exponents": list(chi.exponents), "order": chi.order,
                        "conductor": cond, "primitive": primitive, "values": values})
        rows.append([",".join(map(str, chi.exponents)) or "-", chi.order, cond, primitive,
                     " ".join(values)])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return json.dumps({"d": d, "characters": entries}, separators=(",", ":")) + "\n", buf.getvalue()


@pytest.mark.parametrize("d", range(1, 41))
def test_chars_bytes_match_rendering_every_value(d):
    assert tuple(run_cli(["chars", "--d", str(d), "--format", fmt])[1] for fmt in ("json", "csv")) \
        == _naive_chars(d)


@pytest.mark.parametrize("d", (12, 40, 199))
def test_chars_renders_each_distinct_value_once(d, monkeypatch):
    # a character of order k takes at most k + 1 values (the k-th roots of
    # unity and 0), so at most that many are rendered for it
    rendered = []
    to_text = Cyc.__str__

    def counting(self):
        rendered.append(self)
        return to_text(self)

    monkeypatch.setattr(Cyc, "__str__", counting)
    code, out, _ = run_cli(["chars", "--d", str(d)])
    assert code == 0
    orders = [c["order"] for c in json.loads(out)["characters"]]
    assert len(orders) == euler_phi(d)
    assert len(rendered) <= sum(k + 1 for k in orders)


def test_power_sum_value():
    code, out, _ = run_cli(["power-sum", "--d", "1", "--r", "3", "--k", "1", "--upper", "2"])
    assert code == 0
    # zeta3 + 2 zeta3^2 = -2 - zeta3 on the power basis
    assert json.loads(out)["value"] == {"m": 3, "coeffs": ["-2", "-1"]}


def test_power_sum_degree_over_ceiling_usage_error(monkeypatch):
    # S_k is a coefficient of the character-sum series, so --k has the
    # series' ceiling; k = 1000 took 55 s at upper 10^6
    from bernsym import bernoulli

    def summed(*args, **kwargs):
        raise AssertionError("a class was summed")

    monkeypatch.setattr(bernoulli, "_class_sums", summed)
    top = bernoulli.MAX_SERIES_ORDER
    code, out, err = run_cli(["power-sum", "--d", "5", "--r", "7", "--k", str(top + 1), "--upper", "1000000"])
    assert (code, out) == (2, "")
    assert err == f"error: k={top + 1} is above the ceiling of {top}\n"


def test_quotient_series_coefficients():
    code, out, _ = run_cli(["quotient", "--type", "G1", "--d", "1", "--r", "3",
                            "--w", "1,2", "--order", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["egf_coefficients"][0] == {"m": 3, "coeffs": ["0", "0"]}
    assert doc["egf_coefficients"][1] == {"m": 3, "coeffs": ["-2/3", "-1/3"]}


def test_quotient_condition_violation():
    code, _, err = run_cli(["quotient", "--type", "G0", "--d", "1", "--r", "3",
                            "--w", "3,1", "--order", "2"])
    assert code == 2 and "w1" in err


def test_quotient_non_unit_denominator_is_named():
    # r | d*w1 makes xi^(d*w1) e^(d*w1*t) - 1 a non-unit; the refusal names
    # that factor, not the series division it would break
    code, out, err = run_cli(["quotient", "--type", "G0", "--d", "3", "--r", "3",
                              "--w", "1,2", "--y", "0,0"])
    assert code == 2 and out == ""
    assert "xi^(d*w1) = 1" in err


def test_quotient_refuses_extra_y_values():
    code, out, err = run_cli(["quotient", "--type", "G0", "--w", "1,2", "--r", "3",
                              "--y", "1,2,3,4"])
    assert (code, out, err) == (2, "", "error: G0 takes 2 y value(s), got 4\n")


def test_consistency_refuses_missing_y_values():
    code, out, err = run_cli(["consistency", "--type", "G0", "--w", "1,2", "--r", "5",
                              "--y", "1"])
    assert (code, out, err) == (2, "", "error: G0 takes 2 y value(s), got 1\n")
    code, _, _ = run_cli(["consistency", "--type", "G0", "--w", "1,2", "--r", "5",
                          "--y", "1,0", "--n-max", "2"])
    assert code == 0


def test_consistency_command():
    code, out, _ = run_cli(["consistency", "--type", "L23:2", "--d", "1", "--r", "5",
                            "--w", "1,2,3", "--n-max", "4"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_padic_command():
    code, out, _ = run_cli(["padic", "--p", "5", "--r", "3", "--d", "1", "--n", "1",
                            "--levels", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [row["valuation"] for row in doc["table"]] == [1, 2, 3]


def test_padic_bad_prime_usage_error():
    code, _, _ = run_cli(["padic", "--p", "6", "--r", "5", "--n", "1"])
    assert code == 2


def test_padic_large_prime_exits_fast():
    # the primality test costs a few modular powers, not trial division up
    # to sqrt(p); a p past the test's exact range is refused outright
    from bernsym import padic

    start = time.perf_counter()
    code, out, err = run_cli(["padic", "--p", "1000000000000000003", "--r", "3", "--n", "1"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "ceiling" in err
    code, out, err = run_cli(["padic", "--p", str(2 ** 89 - 1), "--r", "3", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: p={2 ** 89 - 1} is not below {padic.MAX_PRIME}, the bound of the primality test\n"


def test_padic_level_over_ceiling_usage_error(no_padic_work):
    from bernsym import padic

    code, out, err = run_cli(["padic", "--p", "7", "--r", "3", "--n", "1", "--levels", "30"])
    assert code == 2
    assert err == ("error: level 30 spans d*p^N = 1*7^30 residues of deg f + 1 = 2 terms each, "
                   f"more than the ceiling of {padic.MAX_HORNER_STEPS}\n")
    assert out == ""


def test_padic_high_degree_over_ceiling_usage_error(no_padic_work):
    # 101^3 residues are under the ceiling, but not at 91 terms each
    from bernsym import padic

    code, out, err = run_cli(["padic", "--p", "101", "--r", "3", "--n", "90", "--levels", "3"])
    assert code == 2
    assert err == ("error: level 3 spans d*p^N = 1*101^3 residues of deg f + 1 = 91 terms each, "
                   f"more than the ceiling of {padic.MAX_HORNER_STEPS}\n")
    assert out == ""


def test_padic_precision_over_ceiling_usage_error(no_padic_work):
    # an unbounded --M made p^M-sized ring elements; one over the ceiling is
    # refused before any sum starts
    from bernsym import padic

    M = padic.MAX_PRECISION_BITS // 3 + 1
    start = time.perf_counter()
    code, out, err = run_cli(["padic", "--p", "5", "--r", "3", "--n", "1", "--M", str(M)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: precision M={M} at p=5 spans M*bit_length(p) = {3 * M} bits, "
                   f"more than the ceiling of {padic.MAX_PRECISION_BITS}\n")


def test_padic_single_level_usage_error():
    code, out, err = run_cli(["padic", "--p", "5", "--r", "3", "--n", "1", "--levels", "1"])
    assert code == 2
    assert err == "error: need at least two distinct levels\n"
    assert out == ""


def test_padic_levels_refused_before_they_are_listed(no_padic_work):
    # levels 1..K are a range read from its ends: listing K = 2*10^6 of them
    # first took about 0.3 s and 200 MB before the ceiling refused them
    import tracemalloc

    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(["padic", "--p", "5", "--r", "3", "--n", "1", "--levels", "2000000"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: level 2000000 spans d*p^N = 1*5^2000000 residues")
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_padic_moment_over_series_ceiling_names_the_moment(no_padic_work):
    from bernsym.bernoulli import MAX_SERIES_ORDER

    n = MAX_SERIES_ORDER
    code, out, err = run_cli(["padic", "--p", "67", "--r", "3", "--n", str(n), "--levels", "2"])
    assert (code, out) == (2, "")
    assert err == (f"error: moment n={n} needs B_(n+1) at series order {n + 1}, "
                   f"above the ceiling of {MAX_SERIES_ORDER}\n")


def test_padic_precision_defaults_to_the_library_default():
    from bernsym import padic

    code, out, _ = run_cli(["padic", "--p", "5", "--r", "3", "--n", "1", "--levels", "2"])
    assert code == 0
    assert json.loads(out)["M"] == padic.DEFAULT_PRECISION


def test_audit_roundtrip(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "theorems = 1,3\nd = 1\nchars = all\nr = 3\nj = 1\n"
        "w_components = 1,2\nn_max = 2\nmodes = as-stated,normalized\n"
    )
    code, out, _ = run_cli(["audit", "--grid-file", str(cfg)])
    assert code == 1  # theorem 3 fails as stated at w1 != w2
    doc = json.loads(out)
    by_key = {(row["theorem"], row["mode"]): row for row in doc["summary"]}
    assert by_key[(1, "as-stated")]["fail"] == 0
    assert by_key[(3, "as-stated")]["fail"] == 2
    assert by_key[(3, "normalized")]["fail"] == 0
    assert by_key[(3, "as-stated")]["first_witness"]["n"] == 1


def test_audit_deterministic_bytes(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("theorems = 11\nd = 1\nr = 3\nw_components = 1,2\nn_max = 2\n")
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(["audit", "--grid-file", str(cfg)])
        outputs.add(out)
    assert len(outputs) == 1


def test_second_audit_of_a_cell_builds_no_series(tmp_path, cold_store, monkeypatch):
    # each audit makes its own contexts, but their series come from the
    # process-wide store: a second audit of one cell builds none, and
    # prints the bytes of the first
    from bernsym import quotients

    def build(*args, **kwargs):
        raise AssertionError("the second audit built a series")

    cfg = tmp_path / "cell.grid"
    cfg.write_text("theorems = 5\nd = 3\nchars = explicit\nchar_labels = 3:1\nr = 4\nj = 1\n"
                   "w_components = 1,2,3,4\nn_max = 6\nmodes = as-stated,normalized\n")
    first = run_cli(["audit", "--grid-file", str(cfg)])
    built = cold_store.cache_info()
    assert built.misses > 0
    for name in ("bernoulli_egf", "character_sum_series", "twisted_exp_minus_one"):
        monkeypatch.setattr(quotients, name, build)
    second = run_cli(["audit", "--grid-file", str(cfg)])
    assert cold_store.cache_info().misses == built.misses
    assert first[0] == 1  # theorem 5 holds only after normalizing
    assert second == first


def test_second_audit_builds_no_record_and_multiplies_nothing(tmp_path, monkeypatch, cold_store):
    # the side records live in the process-wide store with the products
    # below them: a second audit of the same cell builds no side and
    # multiplies no chain, and prints the bytes of the first
    from bernsym import quotients

    cfg = tmp_path / "cell.grid"
    cfg.write_text("theorems = 8\nd = 4\nchars = explicit\nchar_labels = 4:1\nr = 5\nj = 1\n"
                   "w_components = 1,2,3,4\nn_max = 6\nmodes = as-stated,normalized\n")
    counts = {"side": 0, "product": 0}
    build, multiply = quotients._side_chain, quotients.product

    def counting_build(*args, **kwargs):
        counts["side"] += 1
        return build(*args, **kwargs)

    def counting_product(factors):
        counts["product"] += 1
        return multiply(factors)

    monkeypatch.setattr(quotients, "_side_chain", counting_build)
    monkeypatch.setattr(quotients, "product", counting_product)
    outputs, seen = [], []
    for _ in range(2):
        counts.update(side=0, product=0)
        outputs.append(run_cli(["audit", "--grid-file", str(cfg)]))
        seen.append(dict(counts))
    assert outputs[0][0] == 1 and outputs[0][1]
    assert outputs[1] == outputs[0]
    assert seen[0]["side"] > 0 and seen[0]["product"] > 0
    assert seen[1] == {"side": 0, "product": 0}


def test_second_audit_packs_no_stored_factor(tmp_path, monkeypatch, cold_store):
    # every side product comes from the process-wide store, as do the
    # factors below it with their packed rows: a second audit of the same
    # cell, on new contexts, multiplies no chain and packs nothing
    from bernsym import quotients, series

    cfg = tmp_path / "cell.grid"
    cfg.write_text("theorems = 7\nd = 5\nchars = explicit\nchar_labels = 5:1\nr = 7\nj = 1\n"
                   "w_components = 1,2,3,4\nn_max = 6\nmodes = as-stated,normalized\n")
    counts = {"pack": 0, "product": 0}
    pack, multiply = series._pack, quotients.product

    def counting_pack(row, width):
        counts["pack"] += 1
        return pack(row, width)

    def counting_product(factors):
        counts["product"] += 1
        return multiply(factors)

    monkeypatch.setattr(series, "_pack", counting_pack)
    monkeypatch.setattr(quotients, "product", counting_product)
    outputs, seen = [], []
    for _ in range(2):
        counts.update(pack=0, product=0)
        outputs.append(run_cli(["audit", "--grid-file", str(cfg)]))
        seen.append(dict(counts))
    assert outputs[0] == outputs[1] and outputs[0][0] == 1
    assert seen[0]["product"] > 0 and seen[1]["product"] == 0
    assert seen[0]["pack"] > 0 and seen[1]["pack"] == 0


def test_audit_bytes_independent_of_hash_seed(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("theorems = 3,5\nd = 1,4\nr = 3\nw_components = 1,2\nn_max = 2\n")
    src = str(Path(bernsym.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "bernsym.cli", "audit", "--grid-file", str(cfg)],
                              capture_output=True, env=env, timeout=300)
        runs.append((proc.returncode, proc.stdout))
    assert runs[0][0] == 1 and runs[0][1]  # theorem 3 fails as stated, with witnesses
    assert runs[0] == runs[1]


def test_repeated_main_calls_match_fresh_processes(monkeypatch, capsys):
    # main reuses one parser across calls; a usage error or --help in one
    # call must leave the next call's output and exit code as a fresh
    # process would give them
    import bernsym.cli as cli
    calls = [
        (["chars", "--d", "5"], 0),
        (["--help"], 0),
        (["verify", "--theorem", "3", "--r", "3", "--w", "1,2", "--n-max", "1"], 1),
        (["verify", "--r", "3"], 2),
        (["quotient", "--help"], 0),
        (["bernoulli", "--r", "1"], 2),
        (["bernoulli", "--r", "3", "--n-max", "3"], 0),
        (["chars", "--d", "5"], 0),
    ]
    monkeypatch.setenv("COLUMNS", "80")
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    in_process = []
    try:
        for argv, _ in calls:
            code = main(argv)
            out, err = capsys.readouterr()
            in_process.append((code, out, err))
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    src = str(Path(bernsym.__file__).resolve().parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for (argv, expected_code), got in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "bernsym.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert got[0] == expected_code, argv


@pytest.mark.parametrize("content, prefix", [
    (b"nonsense_key = 1\n", "error: unknown grid keys: ['nonsense_key']"),
    (None, "error: cannot read grid file"),   # the user named a file that is not there
    (b"theorems = 1\xff\n", "error: cannot read grid file"),   # not UTF-8
    (b"n_max = -1\n", "error: n_max must be nonnegative"),
    (b"w_components = 0,1\n", "error: w components must be positive"),
    (b"w_components = 1,%d\n" % 2 ** 64,
     "error: w component 18446744073709551616 has 65 bits, above the ceiling of 64\n"),
    (b"r = 1\n", "error: twist root must differ from 1 (r >= 2)"),
    (b"chars = primitive\n", "error: unknown character filter 'primitive'"),
    (b"format = xml\n", "error: unknown grid format 'xml'"),
    # a j that is primitive for no r skips every instance; explicit chars
    # without a label for a listed d run none
    (b"j = 0\n", "error: j=0 does not give a primitive r-th root for any r in [3, 4, 5, 7]\n"),
    (b"r = 3\nj = 3\n", "error: j=3 does not give a primitive r-th root for any r in [3]\n"),
    (b"chars = explicit\n", "error: explicit characters need char_labels\n"),
    (b"chars = explicit\nchar_labels = 7:1\n", "error: char_labels modulus 7 is not in d [1, 3, 4, 5]\n"),
    (b"d = 5\nchars = explicit\nchar_labels = 5:2; 3:1\n", "error: char_labels modulus 3 is not in d [5]\n"),
    # the last value used to win silently
    (b"theorems = 1\ntheorems = 2\n", "error: grid key 'theorems' is given more than once\n"),
    # sizes over a ceiling are the user's error, not skips: an r, a d before
    # it is factored, and a field refused although the r = 3 context is fine
    (b"r = 1009\n", "error: twist order r=1009 is above the ceiling of 200\n"),
    (b"d = %d\nchars = explicit\nchar_labels = %d:1\n" % (10 ** 30 + 57, 10 ** 30 + 57),
     f"error: character modulus d={10 ** 30 + 57} is above the ceiling of 200\n"),
    (b"d = 139\nchars = explicit\nchar_labels = 139:1\nr = 3,199\n",
     "error: the field Q(zeta_27462) of r=199 and a character of order 138 has degree 8712"),
], ids=["unknown-key", "missing", "not-utf8", "n-max", "w-component", "w-bits", "r", "chars", "format",
        "j-zero", "j-not-coprime", "explicit-no-labels", "explicit-label-outside-d",
        "explicit-one-label-outside-d", "repeated-key", "r-over-ceiling", "d-over-ceiling",
        "field-over-ceiling"])
def test_grid_file_parsing_errors(monkeypatch, tmp_path, content, prefix):
    # each of these leaves nothing to verify: exit 2 before any work
    from bernsym import identities

    def verify(*args, **kwargs):
        raise AssertionError("an instance was verified")

    monkeypatch.setattr(identities, "_verify", verify)
    cfg = tmp_path / "grid.cfg"
    if content is not None:
        cfg.write_bytes(content)
    code, out, err = run_cli(["audit", "--grid-file", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith(prefix)
    if prefix == "error: cannot read grid file":
        assert str(cfg) in err   # the message names the file the user gave


def test_grid_file_repeated_mode_counts_once(tmp_path):
    docs = []
    for modes in ("as-stated,normalized,as-stated", "as-stated,normalized"):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"theorems = 1\nd = 1\nr = 3\nw_components = 1,2\nn_max = 1\nmodes = {modes}\n")
        code, out, _ = run_cli(["audit", "--grid-file", str(cfg)])
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["summary"] == docs[1]["summary"]
    assert docs[0]["summary"][0]["pass"] == 4


def test_grid_file_repeated_char_label_counts_once(tmp_path):
    docs = []
    for labels in ("5:1;5:1", "5:1"):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("theorems = 1\nd = 5\nchars = explicit\n"
                       f"char_labels = {labels}\nr = 3\nw_components = 1,2\nn_max = 1\n")
        code, out, _ = run_cli(["audit", "--grid-file", str(cfg)])
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["summary"] == docs[1]["summary"]
    assert docs[0]["instances"] == docs[1]["instances"]
    assert docs[0]["summary"][0]["pass"] == 4


def test_grid_file_explicit_chars(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "theorems = 11\nd = 5\nchars = explicit\nchar_labels = 5:2\n"
        "r = 3\nw_components = 1,2\nn_max = 1\n"
    )
    config, fmt = parse_grid_file(str(cfg))
    assert config.char_labels == ((5, (2,)),)
    assert config.characters(5)[0].exponents == (2,)


def test_verify_values_flag():
    code, out, _ = run_cli(["verify", "--theorem", "11", "--d", "1", "--r", "3",
                            "--w", "1,1,2", "--n-max", "1", "--values"])
    assert code == 0
    doc = json.loads(out)
    # no y variables: one grid point per n; n=0 gives S_0(0)S_0(0)S_0(1) = 1 + zeta3
    assert doc["sides"][0]["values"] == [[{"m": 3, "coeffs": ["1", "1"]}],
                                         [{"m": 3, "coeffs": ["0", "1"]}]]


@pytest.mark.parametrize("argv, message", [
    (["consistency", "--type", "G0", "--w", "1,2", "--r", "3", "--n-max", "-2"], "n_max must be nonnegative"),
    (["quotient", "--type", "G0", "--w", "1,2", "--r", "3", "--order", "-1"], "order must be nonnegative"),
    (["bernoulli", "--r", "3", "--n-max", "-1"], "order must be nonnegative"),
])
def test_negative_order_is_usage_error(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_bad_character_label_is_usage_error():
    code, out, err = run_cli(["bernoulli", "--d", "5", "--char", "x", "--r", "3"])
    assert (code, out, err) == (2, "", "error: 'x' is not an integer\n")
    code, out, err = run_cli(["bernoulli", "--d", "5", "--char", "4", "--r", "3"])
    assert (code, out, err) == (2, "", "error: label entry 4 out of range for factor of order 4\n")


def test_grid_file_non_integer_is_usage_error(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("theorems = 1\nd = 1\nr = 3\nw_components = 1,2\nn_max = x\n")
    code, out, err = run_cli(["audit", "--grid-file", str(cfg)])
    assert (code, out, err) == (2, "", "error: 'x' is not an integer\n")


def test_internal_value_error_exits_three(monkeypatch):
    # only ParameterError means the user erred; a stray ValueError is a bug
    from bernsym import cli

    def broken(args, out):
        raise ValueError("not a usage error")

    monkeypatch.setitem(cli._HANDLERS, "chars", broken)
    code, out, err = run_cli(["chars", "--d", "5"])
    assert (code, out, err) == (3, "", "internal error: ValueError: not a usage error\n")


@pytest.mark.parametrize("exc,message", [
    (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
    (OSError("disk gone"), "i/o error: disk gone\n"),
], ids=["runtime", "os"])
def test_debug_prints_the_traceback_of_an_internal_error(monkeypatch, exc, message):
    # without --debug stderr is the one line; with it the traceback follows
    from bernsym import cli

    def broken(args, out):
        out.write("partial")
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "chars", broken)
    assert run_cli(["chars", "--d", "5"]) == (3, "partial", message)
    code, out, err = run_cli(["--debug", "chars", "--d", "5"])
    assert (code, out) == (3, "partial")
    first, _, trace = err.partition("\n")
    assert first + "\n" == message
    assert trace.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in trace
    assert trace.endswith(f"{type(exc).__name__}: {exc}\n")


def test_debug_leaves_usage_errors_and_output_alone():
    assert run_cli(["--debug", "padic", "--p", "6", "--r", "5", "--n", "1"]) == \
        run_cli(["padic", "--p", "6", "--r", "5", "--n", "1"])
    assert run_cli(["--debug", "power-sum", "--r", "3", "--k", "1", "--upper", "2"]) == \
        run_cli(["power-sum", "--r", "3", "--k", "1", "--upper", "2"])


@pytest.mark.parametrize("argv, message", [
    (["bernoulli", "--r", "1009", "--n-max", "2"], "error: twist order r=1009 is above the ceiling of 200\n"),
    (["verify", "--theorem", "1", "--r", str(10 ** 38 + 7), "--w", "1,1", "--n-max", "0"],
     f"error: twist order r={10 ** 38 + 7} is above the ceiling of 200\n"),
    (["padic", "--p", "5", "--r", "1009", "--n", "1"], "error: twist order r=1009 is above the ceiling of 200\n"),
    (["chars", "--d", str(10 ** 30 + 57)], f"error: character modulus d={10 ** 30 + 57} is above the ceiling of 200\n"),
    (["bernoulli", "--d", str(10 ** 30 + 57), "--r", "3"],
     f"error: character modulus d={10 ** 30 + 57} is above the ceiling of 200\n"),
], ids=["bernoulli-r", "verify-r", "padic-r", "chars-d", "bernoulli-d"])
def test_size_over_ceiling_usage_error(monkeypatch, argv, message):
    # refused on the value itself: nothing is factored
    from bernsym import dirichlet, exactnum

    def factor(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(exactnum, "_factorize", factor)
    monkeypatch.setattr(dirichlet, "_factorize", factor)
    start = time.perf_counter()
    assert run_cli(argv) == (2, "", message)
    assert time.perf_counter() - start < 1


def test_field_degree_over_ceiling_usage_error(monkeypatch):
    from bernsym import quotients, series

    def build(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(series.TruncatedSeries, "__mul__", build)
    monkeypatch.setattr(series.TruncatedSeries, "__truediv__", build)
    monkeypatch.setattr(quotients, "product", build)
    code, out, err = run_cli(["verify", "--theorem", "1", "--d", "139", "--char", "1", "--r", "199",
                              "--w", "1,1", "--n-max", "0"])
    assert (code, out) == (2, "")
    assert err == ("error: the field Q(zeta_27462) of r=199 and a character of order 138 "
                   "has degree 8712, above the ceiling of 200\n")


def _refuse_series(monkeypatch):
    """Make building any series, from coefficients or from rows, fail the test."""
    from bernsym.series import TruncatedSeries

    def build(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(TruncatedSeries, "__init__", build)
    monkeypatch.setattr(TruncatedSeries, "_from_rows", staticmethod(build))


@pytest.mark.parametrize("argv, name", [
    (["quotient", "--type", "G0", "--r", "3", "--w", "1,2", "--order", "65"], "order"),
    (["consistency", "--type", "G0", "--r", "3", "--w", "1,2", "--n-max", "65"], "n_max"),
    (["verify", "--theorem", "1", "--r", "3", "--w", "1,2", "--n-max", "65"], "n_max"),
    (["bernoulli", "--r", "3", "--n-max", "65"], "order"),
    (["bernoulli", "--r", "3", "--n-max", str(10 ** 40), "--x", "1/2"], "order"),
], ids=["quotient", "consistency", "verify", "bernoulli", "bernoulli-huge"])
def test_series_order_over_ceiling_usage_error(monkeypatch, argv, name):
    from bernsym.bernoulli import MAX_SERIES_ORDER
    _refuse_series(monkeypatch)
    value = argv[argv.index("--order" if "--order" in argv else "--n-max") + 1]
    start = time.perf_counter()
    assert run_cli(argv) == (2, "", f"error: {name}={value} is above the ceiling of {MAX_SERIES_ORDER}\n")
    assert time.perf_counter() - start < 1


def test_grid_n_max_over_ceiling_usage_error(monkeypatch, tmp_path):
    from bernsym.bernoulli import MAX_SERIES_ORDER
    _refuse_series(monkeypatch)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"n_max = {MAX_SERIES_ORDER + 1}\n")
    assert run_cli(["audit", "--grid-file", str(cfg)]) == \
        (2, "", f"error: n_max={MAX_SERIES_ORDER + 1} is above the ceiling of {MAX_SERIES_ORDER}\n")
    assert GridConfig(n_max=MAX_SERIES_ORDER).n_max == MAX_SERIES_ORDER


_GRID_INTS = st.one_of(st.integers(-3, 12), st.integers(-10 ** 40, 10 ** 40),
                       st.sampled_from([10 ** 30 + 57, 10 ** 38 + 7, 1009, 199, 200, 201]))


def _grid_value(key):
    ints = st.lists(_GRID_INTS, min_size=0, max_size=4).map(lambda xs: ",".join(map(str, xs)))
    label = st.one_of(
        st.builds(lambda d, lab: f"{d}:{lab}", _GRID_INTS, ints),
        st.sampled_from(["5:", ":1", "x:1", "5:1,2,3", "5:-1", "5:4", "4:1;5:2", ";", "5:1:2", "-", "trivial"]),
    )
    junk = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r#"), max_size=12)
    if key == "char_labels":
        return st.one_of(label, st.lists(label, max_size=3).map("; ".join), junk)
    if key in ("modes", "chars", "format"):
        return st.one_of(st.sampled_from(["as-stated", "normalized", "as-stated,normalized", "all",
                                          "primitive-only", "explicit", "json", "csv", "pretty"]), junk)
    return st.one_of(ints, _GRID_INTS.map(str), junk)


_GRID_LINE = st.sampled_from(sorted(_GRID_KEYS) + ["format", "junk", "", "r r"]).flatmap(
    lambda key: _grid_value(key).map(lambda value: f"{key} = {value}"))


# distinct keys, then at most one more line: a comment, a malformed line or
# a key that may repeat one of them
_GRID_TEXT = st.tuples(
    st.lists(_GRID_LINE, max_size=8, unique_by=lambda line: line.partition("=")[0]),
    st.sampled_from([[], [], ["# comment"], ["no equals sign"]]) | _GRID_LINE.map(lambda line: [line]),
).map(lambda parts: parts[0] + parts[1])


@settings(max_examples=150, deadline=500)
@given(_GRID_TEXT)
def test_grid_parser_returns_config_or_usage_error(tmp_path_factory, lines):
    # any text: a config, or ParameterError (exit 2), within the deadline
    cfg = tmp_path_factory.mktemp("grid") / "grid.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        config, fmt = parse_grid_file(str(cfg))
    except ParameterError:
        return
    assert isinstance(config, GridConfig) and fmt in FORMATS



_WIDE = 2 ** 64   # one bit over quotients.MAX_W_BITS


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "8", "--d", "5", "--r", "7", "--w", f"{_WIDE},1,2"],
    ["verify", "--theorem", "1", "--r", "7", "--w", f"1,{_WIDE}", "--method", "points"],
    ["quotient", "--type", "L23:2", "--r", "7", "--w", f"1,{_WIDE},2"],
    ["consistency", "--type", "L13:1", "--r", "7", "--w", f"1,2,{_WIDE}", "--y", "0,0"],
    ["audit", "--grid-file", "GRID"],
], ids=["verify", "verify-points", "quotient", "consistency", "audit"])
def test_w_over_the_bit_ceiling_exits_2_before_any_work(argv, tmp_path, monkeypatch, cold_store):
    # a w component of more than quotients.MAX_W_BITS bits is the user's
    # error, refused before any series is built: every builder raises
    from bernsym import quotients

    def build(*args, **kwargs):
        raise AssertionError("a series was built")

    for name in ("bernoulli_egf", "character_sum_series", "twisted_exp_minus_one", "product"):
        monkeypatch.setattr(quotients, name, build)
    grid = tmp_path / "wide.grid"
    grid.write_text(f"theorems = 7\nd = 5\nr = 7\nw_components = 1,2,{_WIDE}\nn_max = 2\n")
    argv = [str(grid) if arg == "GRID" else arg for arg in argv]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: w component {_WIDE} has 65 bits, above the ceiling of 64\n"


def test_w_at_the_bit_ceiling_is_verified(tmp_path):
    # 64-bit components are accepted, by one instance and by a grid cell
    # (r = 7 divides none of them, nor any product of two or three)
    wide = (2 ** 64 - 1, 2 ** 64 - 3, 2 ** 64 - 5)
    code, out, _ = run_cli(["verify", "--theorem", "8", "--d", "5", "--r", "7", "--w",
                            ",".join(map(str, wide)), "--n-max", "2", "--mode", "normalized"])
    assert code == 0 and json.loads(out)["pass"] is True
    grid = tmp_path / "wide.grid"
    grid.write_text(f"theorems = 11\nd = 1\nr = 7\nw_components = {wide[0]},{wide[2]}\nn_max = 2\n")
    code, out, _ = run_cli(["audit", "--grid-file", str(grid)])
    assert code == 0 and json.loads(out)["summary"][0]["pass"] == 8
