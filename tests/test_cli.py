import argparse
import hashlib
import json
import sys

import pytest

from seprkit.cli import MAX_GENERATED_ORDER, build_parser, main
from seprkit.exact import GaussianRational, ScalarParseError, parse_pool_token
from seprkit.matrix import HermitianMatrix, matrix_to_json


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag_1_m1_m1_0.json"
    path.write_text(matrix_to_json(HermitianMatrix.diagonal([1, -1, -1, 0])))
    return str(path)


def test_pool_token_parsing():
    from fractions import Fraction

    assert parse_pool_token("2") == GaussianRational(2)
    assert parse_pool_token("-1/2") == GaussianRational(Fraction(-1, 2))
    assert parse_pool_token("i") == GaussianRational(0, 1)
    assert parse_pool_token("-i") == GaussianRational(0, -1)
    assert parse_pool_token("2i") == GaussianRational(0, 2)
    assert parse_pool_token("1+i") == GaussianRational(1, 1)
    assert parse_pool_token("1-2i") == GaussianRational(1, -2)
    assert parse_pool_token("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    # each part follows the scalar grammar: no leading '+', no zero denominator
    for bad in ("x", "+1", "+i", "1+-2i", "1/0", "1+1/0i"):
        with pytest.raises(ScalarParseError):
            parse_pool_token(bad)


def test_compute(diag_file, capsys):
    assert main(["compute", diag_file]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "epr: SSSN / sepr: S*S*S+N / forbidden windows: none"


def test_compute_field_mismatch(tmp_path, capsys):
    path = tmp_path / "c.json"
    m = HermitianMatrix([[0, GaussianRational(0, 1)], [GaussianRational(0, -1), 0]])
    path.write_text(matrix_to_json(m))
    assert main(["compute", str(path)]) == 0
    assert main(["compute", str(path), "--field", "real"]) == 2


def test_compute_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "entries": [[["1", "1"]]]}')  # non-real diagonal
    assert main(["compute", str(path)]) == 2


def test_compute_list_valued_part_is_a_located_usage_error(tmp_path, capsys):
    # only string parts are memo keys: a list part after repeated valid
    # texts still reaches the scalar grammar's error, never a TypeError
    path = tmp_path / "list.json"
    row = [["1", "0"], ["1", "0"], ["1", "0"]]
    path.write_text(json.dumps({"n": 3, "entries": [row, row, [["1", "0"], [["1"], "0"], ["1", "0"]]]}))
    assert main(["compute", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entry (3,2): expected a rational string, got list (offset 0)\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() reads any number of digits")
def test_compute_over_long_digit_string_is_a_located_usage_error(tmp_path, capsys):
    # more digits than int() converts is a scalar error at its own cell,
    # and a JSON number literal of that size is invalid JSON, not a crash
    big = "1" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 2, "entries": [[["1", "0"], [big, "0"]], [[big, "0"], ["2", "0"]]]}))
    assert main(["compute", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: entry (1,2): Exceeds the limit")
    assert captured.err.endswith(" (offset 0)\n")
    path.write_text(f'{{"n": 1, "entries": [[[{big}, "0"]]]}}')
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: Exceeds the limit")


def test_compute_unreadable_path(tmp_path, capsys):
    # a directory or a missing file is a located usage error, not a traceback
    missing = tmp_path / "missing.json"
    for path, reason in ((tmp_path, "Is a directory"), (missing, "No such file or directory")):
        assert main(["compute", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {reason}\n"


def test_compute_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"n": 1}')
    assert main(["compute", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_classify(capsys):
    assert main(["classify", "NA+A*", "--field", "real"]) == 0
    assert "FORBIDDEN (real symmetric): real-NA+A*" in capsys.readouterr().out
    assert main(["classify", "NA+A*", "--field", "hermitian"]) == 0
    assert "NOT FORBIDDEN (hermitian)" in capsys.readouterr().out
    assert main(["classify", "A?A", "--field", "real"]) == 2
    capsys.readouterr()
    assert main(["classify", "A+A+A+A+", "--field", "real"]) == 2
    assert capsys.readouterr().err == "error: classification supports orders 2 and 3, got 4\n"


def test_enumerate(capsys):
    assert main(["enumerate-forbidden", "--order", "3", "--field", "hermitian"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 92
    assert lines == sorted(lines)
    assert main(["enumerate-forbidden", "--order", "2", "--field", "real"]) == 0
    assert capsys.readouterr().out.split() == ["A*N", "NA*", "NS*", "S*N"]
    assert main(["enumerate-forbidden", "--order", "3", "--field", "real", "--epr"]) == 0
    assert capsys.readouterr().out.split() == ["NAN", "NAS", "NNA", "NNS", "NSA"]


def test_catalog_verify(capsys):
    assert main(["catalog", "verify", "--id", "VierTwo.3"]) == 0
    out = capsys.readouterr().out
    assert "VierTwo.3\tA-S+A+N\tA-S+A+N\tpass" in out
    assert main(["catalog", "verify", "--family", "VierSix"]) == 0
    out = capsys.readouterr().out
    assert out.count("\tpass") == 2
    assert main(["catalog", "verify", "--id", "Nope.1"]) == 2


def test_catalog_verify_refuses_family_with_id(capsys):
    # NSFcom.1 is not in VierOne: the pair is refused, not narrowed to the id
    assert main(["catalog", "verify", "--family", "VierOne", "--id", "NSFcom.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --family and --id are alternatives: give one or neither\n"


def test_search_cli(capsys):
    rc = main(
        [
            "search",
            "--target", "NN",
            "--order-n", "2",
            "--field", "hermitian",
            "--pool", "0",
            "--mode", "exhaustive",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "found\tNN\t1"
    doc = json.loads(out[1])
    assert doc["n"] == 2
    # a forbidden window target exhausts its budget
    rc = main(
        [
            "search",
            "--target", "A*N",
            "--order-n", "2",
            "--field", "real",
            "--pool=-1,0,1",
            "--mode", "exhaustive",
            "--subsequence",
            "--budget", "1000",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out.startswith("not-found")


def test_search_census_cli(capsys):
    rc = main(
        ["search", "--census", "--order", "2", "--field", "real"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 45
    assert all(len(l.split("\t")) == 3 for l in lines)


# sha256 of the default census stdout; any change to a witness or its
# source changes it
CENSUS_STDOUT_SHA256 = {
    ("2", "real"): "d3711f46e134c7bb549337711ded8f22c7abefaca8331acdea347aa39f10a78b",
    ("2", "hermitian"): "5ee613fd30a43c5371c772adc604cc454086cc556ff739c1854f76e265723a12",
    ("3", "real"): "b019630c93e5644c8d6599de706ad8ec26c756671dc7c4228ab93b52a9fb6528",
    ("3", "hermitian"): "a1e96c565c2521008bf7fb91ccbde2aefe20c3e0cae594d15a4b43128181ca1b",
}

# the stderr summary of each default census: how far down the witness
# ladder it went, rung by rung
CENSUS_STDERR = {
    ("2", "real"): "census order 2 over real symmetric: 45/45 patterns witnessed (0 open; budgets: "
    "completions-tried=0, direct-sums-tried=0)\n",
    ("2", "hermitian"): "census order 2 over hermitian: 45/45 patterns witnessed (0 open; budgets: "
    "completions-tried=0, direct-sums-tried=0)\n",
    ("3", "real"): "census order 3 over real symmetric: 242/242 patterns witnessed (0 open; budgets: "
    "completions-tried=510, direct-sums-tried=1, sweep-real=62)\n",
    ("3", "hermitian"): "census order 3 over hermitian: 251/251 patterns witnessed (0 open; budgets: "
    "completions-tried=510, direct-sums-tried=1, sweep-complex=42, sweep-real=62)\n",
}


@pytest.mark.parametrize("order, field", CENSUS_STDOUT_SHA256)
def test_census_stdout_pinned(order, field, capsys):
    assert main(["search", "--census", "--order", order, "--field", field]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == CENSUS_STDOUT_SHA256[order, field]
    assert captured.err == CENSUS_STDERR[order, field]


# sha256 of the clean hunt stdout, `properties --samples 200 --order-n
# 1:6`, per field and seed: the per-check counts, the inverse-relation
# count among them, and the zero violations
HUNT_STDOUT_SHA256 = {
    ("hermitian", "1729"): "a1482fba0de3387e41e8759e8add04ee430a1c1093e9fa78572c7665325a13b5",
    ("hermitian", "7"): "d825356367735dcb607de4cd0d1f4bbd227922e6983778c92d47603113df5f58",
    ("real", "1729"): "281bcf67f015ca03b062df897a9227840f66e8eae7e331071cbf4656fe709fdf",
    ("real", "7"): "a2a9428b7e23ee5d13c4f497de85b651cbb0bc459e0d63b3bf356f7a5eaf80a3",
}


@pytest.mark.parametrize("field, seed", HUNT_STDOUT_SHA256)
def test_hunt_stdout_pinned(field, seed, capsys):
    hunt = ["properties", "--field", field, "--samples", "200", "--order-n", "1:6", "--seed", seed]
    assert main(hunt) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_STDOUT_SHA256[field, seed]


def test_census_ignores_seed(capsys):
    # the census draws no random matrix; --seed is accepted and changes nothing
    census = ["search", "--census", "--order", "3", "--field", "real"]
    assert main(census) == 0
    default = capsys.readouterr()
    assert main(census + ["--seed", "5"]) == 0
    assert capsys.readouterr() == default


def test_properties_cli(capsys):
    rc = main(
        ["properties", "--samples", "40", "--field", "hermitian", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "violations\t0" in out


def test_usage_errors(capsys):
    assert main(["search", "--field", "real"]) == 2
    # unknown subcommands surface argparse's usage status
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    pool_1_0 = ["search", "--target", "NN", "--order-n", "2", "--field", "real", "--pool", "1/0"]
    assert main(pool_1_0) == 2
    assert "zero denominator in '1/0' (offset 2)" in capsys.readouterr().err
    for budget in ("0", "-1"):
        target = ["search", "--target", "NN", "--order-n", "2", "--field", "real", "--budget", budget]
        assert main(target) == 2
        assert f"error: --budget: expected an integer ≥ 1, got {budget}" in capsys.readouterr().err
    for spec in ("abc", "1:x"):
        assert main(["properties", "--field", "real", "--order-n", spec]) == 2
        assert f"error: --order-n: expected N or LO:HI, got '{spec}'" in capsys.readouterr().err
    assert main(["properties", "--field", "real", "--samples", "0"]) == 2
    assert "error: --samples: expected an integer ≥ 1, got 0" in capsys.readouterr().err
    # a sign walk writes 2**n - 1 signs, so generated orders stop at
    # MAX_GENERATED_ORDER, before any matrix is drawn
    top = MAX_GENERATED_ORDER + 1
    for spec, expected in (
        ("0", "orders ≥ 1"),
        ("0:2", "orders ≥ 1"),
        ("3:1", "LO ≤ HI"),
        (f"{top}", f"orders ≤ {MAX_GENERATED_ORDER}"),
        (f"1:{top}", f"orders ≤ {MAX_GENERATED_ORDER}"),
    ):
        search = ["search", "--target", "A+A+", "--order-n", spec, "--field", "real"]
        for argv in (search, ["properties", "--field", "real", "--order-n", spec]):
            assert main(argv) == 2
            assert f"error: --order-n: expected {expected}, got '{spec}'" in capsys.readouterr().err
    # --order-n 1:K is the only way to bound the random orders
    assert main(["properties", "--field", "real", "--samples", "1", "--max-n", "3"]) == 2
    assert "error: unrecognized arguments: --max-n 3" in capsys.readouterr().err
    for flag, message in (("--id", "unknown witness id 'nope'"), ("--family", "unknown family 'nope'")):
        assert main(["catalog", "verify", flag, "nope"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # the census runs its own ladder, with no random search: search-only
    # flags are refused, not ignored
    census = ["search", "--census", "--order", "3", "--field", "real"]
    for extra in (["--mode", "exhaustive"], ["--mode", "random"], ["--target", "NN"],
                  ["--order-n", "3"], ["--subsequence"], ["--pool", "default"], ["--budget", "10"]):
        assert main(census + extra) == 2
        assert capsys.readouterr() == ("", f"error: {extra[0]} does not apply to --census\n")
    # and the census's --order is refused too
    search = ["search", "--target", "NN", "--order-n", "2", "--field", "real", "--pool", "0", "--mode", "exhaustive"]
    assert main(search + ["--order", "3"]) == 2
    assert capsys.readouterr() == ("", "error: --order applies only to --census\n")


def test_census_rejects_non_real_pool_for_real_field(capsys):
    # a census takes no pool at all; a target search checks its entries
    pool = "--pool=i,-i,1,-1,0,2,-2,1+i"
    census = ["search", "--census", "--order", "3", "--field", "real", pool]
    assert main(census) == 2
    assert capsys.readouterr() == ("", "error: --pool does not apply to --census\n")
    target = ["search", "--target", "NN", "--order-n", "2", "--field", "real", pool]
    assert main(target) == 2
    assert capsys.readouterr() == ("", "error: --pool: real-symmetric search cannot use non-real pool entry 1i\n")


def test_pool_errors_name_the_flag(capsys):
    search = ["search", "--target", "NN", "--order-n", "2", "--field", "real"]
    properties = ["properties", "--field", "real", "--samples", "2"]
    for pool, message in (
        ("x", "malformed rational 'x' (offset 0)"),
        ("1/0", "zero denominator in '1/0' (offset 2)"),
        (",", "entry pool is empty"),
        ("1,i", "real-symmetric search cannot use non-real pool entry 1i"),
        ("complex-default", "real-symmetric search cannot use non-real pool entry 1i"),
    ):
        for argv in (search, properties):
            assert main(argv + ["--pool", pool]) == 2
            assert capsys.readouterr() == ("", f"error: --pool: {message}\n")


def test_subsequence_target_longer_than_every_order_is_a_usage_error(capsys):
    argv = ["search", "--target", "A+A+A+", "--order-n", "1:2", "--field", "real", "--subsequence"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "error: target of length 3 cannot be a window of the sequence of a matrix of order ≤ 2\n",
    )


@pytest.mark.parametrize(
    "orders, text", (("2", "an order-2 matrix"), ("1:2", "a matrix of order 1 to 2")), ids=("fixed", "range")
)
def test_full_target_of_no_order_is_a_usage_error(orders, text, capsys):
    assert main(["search", "--target", "A+A+A+", "--order-n", orders, "--field", "real"]) == 2
    assert capsys.readouterr() == ("", f"error: target of length 3 cannot be the full sequence of {text}\n")


def test_target_errors_name_the_flag(capsys):
    assert main(["search", "--target", "XY", "--order-n", "2", "--field", "real"]) == 2
    assert capsys.readouterr() == ("", "error: --target: unexpected character 'X' (offset 0)\n")
    # the positional sequence of classify has no flag to name
    assert main(["classify", "XY", "--field", "real"]) == 2
    assert capsys.readouterr() == ("", "error: unexpected character 'X' (offset 0)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "FILE"],
        ["classify", "NA+A*"],
        ["enumerate-forbidden", "--order", "3"],
        ["search", "--census", "--order", "3"],
        ["properties", "--samples", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_field_errors_name_the_flag(argv, diag_file, capsys):
    argv = [diag_file if a == "FILE" else a for a in argv]
    assert main(argv + ["--field", "bogus"]) == 2
    assert capsys.readouterr() == ("", "error: --field: unknown field 'bogus' (try 'hermitian' or 'real')\n")


_SEARCH = ["search", "--target", "NN", "--order-n", "2", "--field", "real"]
_PROPERTIES = ["properties", "--field", "real", "--samples", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        _PROPERTIES + ["--pool=--"],
        ["properties", "--field", "real", "--samples=--"],
        _PROPERTIES + ["--order-n=--"],
        ["properties", "--samples", "1", "--field=--"],
        _PROPERTIES + ["--seed=--"],
        ["catalog", "verify", "--id=--"],
        _SEARCH + ["--budget=--"],
        _SEARCH + ["--pool=--"],
        ["search", "--census", "--order", "2", "--field", "real", "--seed=--"],
    ],
    ids=lambda argv: argv[0] + argv[-1][:-3],
)
def test_flag_equals_double_dash_is_a_usage_error(argv, capsys):
    # argparse before Python 3.13 parses "--flag=--" to an empty list, which
    # a command would read as a value; 3.13 passes "--" to the flag's checks
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_order_n_range_of_one_order_is_that_order(capsys):
    # N:N is the fixed order N, so exhaustive mode takes it and random
    # mode draws the same samples
    for command in (
        ["search", "--target", "A+A+", "--field", "real", "--pool", "0,1", "--mode", "exhaustive"],
        ["properties", "--field", "real", "--pool", "0,1", "--mode", "exhaustive", "--samples", "5"],
        ["properties", "--field", "hermitian", "--samples", "5", "--seed", "3"],
    ):
        assert main(command + ["--order-n", "2"]) in (0, 1)
        fixed = capsys.readouterr()
        assert main(command + ["--order-n", "2:2"]) in (0, 1)
        assert capsys.readouterr() == fixed
    # a real range names the flag
    for command in (
        ["search", "--target", "A+A+", "--field", "real", "--mode", "exhaustive"],
        ["properties", "--field", "real", "--mode", "exhaustive"],
    ):
        assert main(command + ["--order-n", "2:3"]) == 2
        assert capsys.readouterr() == ("", "error: --order-n: exhaustive mode needs a fixed order, got '2:3'\n")
    # and the hunt's default orders 1:6 are random-mode only
    assert main(["properties", "--field", "real", "--mode", "exhaustive"]) == 2
    assert capsys.readouterr() == ("", "error: exhaustive mode needs --order-n\n")


def test_each_witness_is_built_once_per_process(monkeypatch, capsys):
    # catalog verify and both censuses share one build per witness
    from seprkit import catalog

    built = []
    base_matrix = catalog._base_matrix
    monkeypatch.setattr(catalog, "_base_matrix", lambda rec: built.append(rec.id) or base_matrix(rec))
    catalog.build_witness.cache_clear()
    for argv in (
        ["catalog", "verify"],
        ["search", "--census", "--order", "2", "--field", "hermitian"],
        ["search", "--census", "--order", "3", "--field", "hermitian"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == len(set(built)) == 75


def test_matrix_roundtrip_through_cli(tmp_path, capsys):
    # search output is valid input for compute
    rc = main(
        [
            "search",
            "--target", "A+A+",
            "--order-n", "2",
            "--field", "real",
            "--pool", "0,1",
            "--mode", "exhaustive",
        ]
    )
    assert rc == 0
    matrix_line = capsys.readouterr().out.splitlines()[1]
    path = tmp_path / "found.json"
    path.write_text(matrix_line)
    assert main(["compute", str(path)]) == 0
    assert "sepr: A+A+" in capsys.readouterr().out


def test_parser_built_once_per_process(diag_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["compute", diag_file]) == 0
    first = len(built)
    assert built.count("seprkit") == 1
    assert main(["classify", "NA+A*", "--field", "real"]) == 0
    assert len(built) == first
    assert build_parser() is build_parser()


def test_repeated_calls_match_fresh_parsers(diag_file, capsys):
    # Every call through the shared parser prints and returns what the same
    # argv does with a parser built just for it, usage errors and --help
    # included, whatever ran before it.
    script = [
        (["compute", diag_file], 0),
        (["properties", "--field", "real", "--samples", "x"], 2),
        (["--help"], 0),
        (["properties", "--field", "real", "--samples", "0"], 2),
        (["catalog", "verify", "--id", "Nope.1"], 2),
        (["compute", diag_file], 0),
    ]

    def run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    capsys.readouterr()
    build_parser.cache_clear()
    shared = [run(argv) for argv, _ in script]
    fresh = []
    for argv, _ in script:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert [rc for rc, _, _ in shared] == [rc for _, rc in script]
    assert shared == fresh
