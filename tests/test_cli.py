"""Command-line surface: output formats, determinism, exit codes."""

import json
import math
import pathlib

import pytest

import eccspec as es
import eccspec.cli as cli
import eccspec.closed_form as closed_form
import eccspec.exact as exact
import eccspec.verification as verification
from eccspec.cli import format_number, main
from eccspec.graphs import MAX_ORDER

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_matches_the_closed_form(capsys):
    code, out, _ = run(capsys, "spectrum", "--parts", "2,2", "--format", "csv")
    assert code == 0
    assert out == "2,2\n-2,2\n"


def test_spectrum_numeric_agrees_with_closed(capsys):
    _, closed_out, _ = run(capsys, "spectrum", "--parts", "3,1")
    code, numeric_out, _ = run(capsys, "spectrum", "--parts", "3,1", "--numeric")
    assert code == 0
    assert numeric_out == closed_out  # 12 significant digits hide solver noise


def test_closed_route_builds_no_graph(capsys, monkeypatch):
    golden = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}

    def refuse(parts):
        raise AssertionError("graph built")

    monkeypatch.setattr(cli, "build_multipartite", refuse)
    for argv in (["spectrum", "--parts", "3,1"], ["energy", "--parts", "4,3,3,1,1", "--format", "json"]):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (golden[tuple(argv)]["code"], golden[tuple(argv)]["stdout"])
    with pytest.raises(AssertionError, match="graph built"):
        main(["spectrum", "--parts", "3,1", "--numeric"])
    with pytest.raises(AssertionError, match="graph built"):
        main(["energy", "--parts", "3,1", "--numeric"])


def test_spectrum_json_payload(capsys):
    code, out, _ = run(capsys, "spectrum", "--parts", "3,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parts"] == [3, 1]
    assert payload["source"] == "closed"
    assert payload["groups"][0] == [pytest.approx(2 + math.sqrt(7)), 1]


def test_energy_prints_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "energy", "--parts", "3,1")
    assert code == 0
    assert out.strip() == f"{4 + 2 * math.sqrt(7):.12g}"


def test_spectrum_prints_a_cancelling_root_to_twelve_digits(capsys):
    # K_{2,1,...,1} with 1000 singletons: (1001 - sqrt(1002009)) / 2 = -0.00199799800999394...
    code, out, _ = run(capsys, "spectrum", "--parts", ",".join(["2"] + ["1"] * 1000))
    assert code == 0
    assert out.splitlines()[1] == "-0.00199799800999 1"


def test_bounds_text_output(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "radius_upper 4.64575131106",
        "energy_lower 6",
        "energy_upper 9.29150262213",
    ]


def test_bounds_small_order_is_an_input_error(capsys):
    code, _, err = run(capsys, "bounds", "--n", "3")
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "bounds", "--n", "3", "--allow-small")
    assert code == 0 and "warning" in err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_bounds_below_two_vertices_is_an_input_error_even_when_allowed_small(capsys, n):
    code, out, err = run(capsys, "bounds", "--n", n, "--allow-small")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "1" + "0" * 400],
    ["energy", "--parts", "1000000000000,1,1"],
    ["spectrum", "--parts", "1048576,1"],  # one past closed_form.MAX_CLOSED_ORDER
])
def test_orders_past_the_float_or_closed_form_limit_are_input_errors(capsys, monkeypatch, argv):
    def refuse(r):
        raise AssertionError("a radicand was reduced")

    monkeypatch.setattr(exact, "_split_square", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_gen_round_trips_through_both_formats(capsys):
    code, out, _ = run(capsys, "gen", "--parts", "3,2,1")
    assert code == 0
    assert es.parse_edge_list(out) == es.build_multipartite([3, 2, 1])
    code, out, _ = run(capsys, "gen", "--parts", "3,2,1", "--out", "graph6")
    assert code == 0
    assert es.parse_graph6(out.strip()) == es.build_multipartite([3, 2, 1])


def test_eccmx_prints_integer_rows(capsys):
    code, out, _ = run(capsys, "eccmx", "--parts", "2,1,1")
    assert code == 0
    assert out == "0 2 1 1\n2 0 1 1\n1 1 0 1\n1 1 1 0\n"


def test_eccmx_handles_a_class_pair_with_256_common_neighbours(capsys):
    code, out, _ = run(capsys, "eccmx", "--parts", "256,2")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 258
    # ecc 2 everywhere, so only the distance-2 pairs survive
    assert rows[-1] == " ".join(["0"] * 256 + ["2", "0"])


def test_eccmx_accepts_graph6_input(capsys):
    g6 = es.emit_graph6(es.build_multipartite([2, 2]))
    code, out, _ = run(capsys, "eccmx", "--g6", g6)
    assert code == 0
    assert out.splitlines()[0] == "0 2 0 0"


def test_eccmx_reads_edge_files(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(es.emit_edge_list(es.complete(3)), encoding="ascii")
    code, out, _ = run(capsys, "eccmx", "--edges", str(path))
    assert code == 0
    assert out == "0 1 1\n1 0 1\n1 1 0\n"


def test_verify_emits_schema_conformant_json(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"theorem", "n", "cases", "max_dev", "violations", "witnesses", "pass"}
    assert payload["pass"] is True and payload["cases"] == 10


@pytest.mark.parametrize("command", ["spectrum", "energy"])
def test_k1_takes_the_closed_route_like_the_numeric_one(capsys, command):
    # K_1 is one singleton, not an edgeless class: both routes print {0}
    code, closed_out, err = run(capsys, command, "--parts", "1")
    assert (code, err) == (0, "")
    assert run(capsys, command, "--parts", "1", "--numeric") == (0, closed_out, "")
    assert closed_out == {"spectrum": "0 1\n", "energy": "0\n"}[command]


@pytest.mark.parametrize("parts", ["4,2,2,1,1", "4,3,3,1,1", "6,2,2,2,1"])
def test_closed_route_groups_match_the_numeric_route(capsys, parts):
    # integer quotient roots used to print as a second, split group
    _, closed_out, _ = run(capsys, "spectrum", "--parts", parts)
    code, numeric_out, _ = run(capsys, "spectrum", "--parts", parts, "--numeric")
    assert code == 0
    assert closed_out == numeric_out


def test_verify_sweep_emits_an_array(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--nmax", "6")
    assert code == 0
    payload = json.loads(out)
    assert [entry["n"] for entry in payload] == [4, 5, 6]
    assert all(entry["pass"] for entry in payload)


@pytest.mark.parametrize("theorem", ["1", "2", "3", "lemma2"])
@pytest.mark.parametrize("nmax", ["3", "0"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_sweep_below_four_is_an_input_error(capsys, theorem, nmax, fmt):
    # an empty sweep used to print "[]" (or nothing) and pass
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--nmax", nmax, "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"error: verification sweep is defined for n >= 4, got {nmax}\n"
    assert run(capsys, "verify", "--theorem", theorem, "--n", nmax)[2] == err


def test_spectrum_zero_tolerance_is_accepted(capsys):
    code, out, _ = run(capsys, "spectrum", "--g6", "D?{", "--tol", "0", "--format", "csv")
    assert code == 0
    assert sum(int(line.split(",")[1]) for line in out.splitlines()) == 5


def test_verify_equienergetic_suite(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "6", "--nmax", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("theorem", ["5", "6"])
def test_verify_pair_sweep_rejects_a_single_order(capsys, theorem):
    # --n N used to sweep the pair orders 2..N exactly like --nmax N
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--n", "4")
    assert code == 2 and out == ""
    assert err == f"error: theorem {theorem} sweeps the pair orders 2..N: use --nmax N, not --n\n"


@pytest.mark.parametrize("argv", [
    ["--theorem", "1", "--n", "200"],
    ["--theorem", "2", "--n", "4000"],
    ["--theorem", "lemma2", "--n", "4000"],
    ["--theorem", "1", "--nmax", "100"],
    ["--theorem", "3", "--nmax", "1000000000"],
    ["--theorem", "6", "--nmax", "30"],
])
def test_oversized_sweeps_are_input_errors_before_any_partition(capsys, monkeypatch, argv):
    # a sweep checks its largest order before order 4 is swept
    def refuse(n, smallest=1):
        raise AssertionError("a partition was enumerated")

    monkeypatch.setattr(verification, "_connected_partitions", refuse)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lemma2_sweep_cap_counts_parts_of_at_least_two(capsys, monkeypatch):
    # 12 has 20 partitions into at least two parts >= 2, and 76 into two or more
    monkeypatch.setattr(verification, "_SWEEP_CAP", 20)
    code, out, _ = run(capsys, "verify", "--theorem", "lemma2", "--nmax", "12", "--format", "text")
    assert code == 0 and out.count("\n") == 9
    code, out, err = run(capsys, "verify", "--theorem", "1", "--nmax", "12", "--format", "text")
    assert code == 2 and out == ""
    assert err == "error: order 12 has over 20 partitions to sweep\n"


def test_verify_fails_with_exit_one_under_fault_injection(capsys, monkeypatch):
    original = closed_form._arrow_char_poly

    def perturbed(distinct_sizes, singles):
        poly = original(distinct_sizes, singles)
        return poly[:-1] + [poly[-1] + 1]

    monkeypatch.setattr(closed_form, "_arrow_char_poly", perturbed)
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--n", "6")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_equienergetic_command(capsys):
    code, out, _ = run(capsys, "equienergetic", "--n", "4", "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_energy"] == 48
    assert payload["product_energy"] == pytest.approx(48)
    assert payload["partner_parts"] == [5, 4, 4, 3]
    assert payload["zero_in_product_spectrum"] is True
    assert payload["pass"] is True


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "spectrum", "--parts", "5,3,1", "--numeric", "--format", "csv")
    _, second, _ = run(capsys, "spectrum", "--parts", "5,3,1", "--numeric", "--format", "csv")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["nonsense"],
        ["spectrum"],
        ["spectrum", "--parts", "2,x"],
        ["spectrum", "--g6", "A_", "--closed"],
        ["energy", "--parts", "3,1", "--closed"],
        ["spectrum", "--parts", "0"],
        ["energy", "--g6", "not graph6"],
        ["eccmx", "--edges", "/nonexistent/file"],
        ["eccmx", "--parts", "4"],
        ["verify", "--theorem", "9", "--n", "5"],
        ["verify", "--theorem", "1"],
        ["equienergetic", "--n", "4", "--i", "3"],
        ["verify", "--theorem", "1", "--n", "5", "--nmax", "6"],
        ["spectrum", "--g6", "D?{", "--tol", "nan"],
        ["spectrum", "--g6", "D?{", "--tol", "inf"],
        ["spectrum", "--g6", "D?{", "--tol", "-1"],
        ["spectrum", "--parts", "2"],
    ],
)
def test_input_errors_exit_with_code_two(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["closed", "numeric"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "x"])
def test_a_bad_tolerance_is_an_input_error_on_both_routes(capsys, tol, route):
    code, out, err = run(capsys, "spectrum", "--parts", "3,1", "--tol", tol, *route)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error" in line] == [
        f"eccspec spectrum: error: argument --tol: tolerance must be finite and >= 0, got {tol!r}"
    ]


def test_a_valid_tolerance_leaves_the_closed_route_unchanged(capsys):
    expected = run(capsys, "spectrum", "--parts", "3,1")
    assert run(capsys, "spectrum", "--parts", "3,1", "--tol", "0.5") == expected


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_number_formatting_normalises_negative_zero():
    assert format_number(-0.0) == "0"
    assert format_number(2.0) == "2"
    assert format_number(2 + math.sqrt(7)) == "4.64575131106"


@pytest.mark.parametrize("top", [22, 25])
def test_energy_of_high_degree_quotients_exits_zero(capsys, top):
    parts = ",".join(str(size) for size in range(top, 0, -1))
    code, out, _ = run(capsys, "energy", "--parts", parts)
    assert code == 0
    assert float(out) > 0


def test_oversized_orders_are_input_errors(capsys, tmp_path):
    edges = tmp_path / "too_big.txt"
    edges.write_text(f"{MAX_ORDER + 1} 0\n", encoding="ascii")
    for argv in (["eccmx", "--edges", str(edges)],
                 ["spectrum", "--parts", f"{MAX_ORDER},1", "--numeric"],
                 ["gen", "--parts", f"{MAX_ORDER},1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and str(MAX_ORDER) in err
