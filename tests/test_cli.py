import json
import subprocess
import sys
from pathlib import Path

import pytest

from balanced_spectra import cli, limits
from balanced_spectra.cli import main
from balanced_spectra.inputs import derive_seed
from balanced_spectra.matgen import MatrixKind
from balanced_spectra.words import Word, linear_forms


def run_cli(*args):
    return main(list(args))


def forbid_work(monkeypatch, why):
    """Make any realization, lattice construction or estimate of the weight kernel fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError(why)

    for module, name in (
        (cli, "simulate_spectra"), (limits, "simulate_spectra"), (limits, "_mc_truncated"), (limits, "_lattice"),
    ):
        monkeypatch.setattr(module, name, no_work)


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "simulate", "--kind", "bt", "--n", "40", "--reps", "3", "--dist", "normal",
        "--seed", "42", "--bins", "21", "--out", str(out), "--threads", "1",
    )
    assert code == 0
    for name in ("eigenvalues.csv", "histogram.csv", "histogram.svg", "manifest.json"):
        assert (out / name).exists()
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "realization,index,eigenvalue"
    assert len(lines) == 1 + 3 * 40
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kind"] == "bt"
    assert manifest["config"]["seed"] == 42
    assert len(manifest["derived_seeds"]) == 3
    assert manifest["realized_dimension"] == 40
    svg = (out / "histogram.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_simulate_rerun_byte_identical(tmp_path):
    args = [
        "simulate", "--kind", "bh", "--n", "30", "--reps", "2", "--dist", "rademacher",
        "--seed", "7", "--bins", "11", "--range", "auto", "--threads", "1",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("eigenvalues.csv", "histogram.csv", "histogram.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config"] == m2["config"]
    assert m1["derived_seeds"] == m2["derived_seeds"]


def test_simulate_threads_do_not_change_results(tmp_path):
    base = [
        "simulate", "--kind", "bt", "--n", "30", "--reps", "4", "--dist", "normal",
        "--seed", "3", "--bins", "11",
    ]
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert run_cli(*base, "--threads", "1", "--out", str(out1)) == 0
    assert run_cli(*base, "--threads", "2", "--out", str(out2)) == 0
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()
    # the manifest reads each seed off its spectrum, in realization order however the work ran
    for out in (out1, out2):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_seeds"] == [derive_seed(3, r) for r in range(4)]


@pytest.mark.parametrize("kind, n, eps, routes", [
    ("bt", 31, "0", {"halves": 3}), ("bt", 40, "0.1", {"halves": 3}), ("bh", 31, "0", {"full": 3}),
])
def test_simulate_manifest_records_solve_routes(tmp_path, kind, n, eps, routes):
    out = tmp_path / kind
    args = ["simulate", "--kind", kind, "--n", str(n), "--eps", eps, "--reps", "3", "--threads", "2"]
    assert run_cli(*args, "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["solve_routes"] == routes


@pytest.mark.parametrize(
    "args, results",
    [
        (
            ["simulate", "--kind", "bt", "--n", "25", "--reps", "3", "--dist", "uniform", "--seed", "99", "--bins", "9",
             "--threads", "1"],
            ("eigenvalues.csv", "histogram.csv", "histogram.svg"),
        ),
        (
            ["moments", "--kind", "bh", "--n", "30", "--reps", "3", "--k-max", "1", "--method", "quadrature",
             "--threads", "1"],
            ("moments.json", "moments.csv"),
        ),
        (
            ["limit", "--k", "1", "--samples", "20000", "--seed", "3", "--threads", "1"],
            ("limit.json",),
        ),
        (["words", "--k", "3"], ("words.json",)),
    ],
    ids=["simulate", "moments", "limit", "words"],
)
def test_manifest_replay_reproduces_run(tmp_path, capsys, args, results):
    out1 = tmp_path / "orig"
    assert run_cli(*args, "--out", str(out1)) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "replay"
    assert run_cli(args[0], "--config", str(replay_cfg), "--out", str(out2)) == 0
    for name in results:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["config"] == manifest["config"]


def test_simulate_eps_trim_and_dump(tmp_path):
    out = tmp_path / "trim"
    code = run_cli(
        "simulate", "--kind", "bt", "--n", "20", "--reps", "2", "--dist", "normal",
        "--seed", "1", "--bins", "5", "--eps", "0.1", "--dump-matrices",
        "--threads", "1", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["realized_dimension"] == 18
    dump = (out / "matrix_000.csv").read_text().strip().splitlines()
    assert dump[0] == "i,j,value"
    assert len(dump) == 1 + 18 * 18


def test_simulate_rejects_bad_eps(tmp_path, capsys):
    code = run_cli(
        "simulate", "--kind", "bt", "--n", "10", "--reps", "2", "--eps", "1.5",
        "--out", str(tmp_path / "x"), "--threads", "1",
    )
    assert code == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["simulate", "--n", "10", "--reps", "2", "--threads", "0"], None, "--threads"),
        (["simulate", "--n", "10", "--reps", "2", "--range", "1,inf"], None, "finite"),
        (["simulate", "--config", "{cfg}"], {"n": "abc"}, "'n'"),
        (["limit", "--k", "1", "--samples", "0"], None, "--samples"),
        (["simulate", "--config", "{cfg}"], {"dump_matrices": "false"}, "'dump_matrices'"),
        (["simulate", "--config", "{cfg}"], 5, "JSON object"),
        # the eps-ladder is gone: its flag and its config key, as old manifests
        # carry it (null when the default ladder ran), are refused
        (["limit", "--config", "{cfg}"], {"eps_ladder": ["x", 0.1, 0.2]},
         "unknown config keys for limit: ['eps_ladder']"),
        (["simulate", "--config", "{cfg}"], {"command": "limit"}, "'limit'"),
        # each range rule once through its flag and once through a --config value
        (["simulate", "--n", "0"], None, "--n"),
        (["simulate", "--config", "{cfg}"], {"n": 0}, "'n'"),
        (["simulate", "--config", "{cfg}"], {"threads": "2"}, "'threads'"),
        (["simulate", "--config", "{cfg}"], {"hist_range": "1,inf"}, "finite"),
        (["limit", "--config", "{cfg}"], {"samples": 0}, "'samples'"),
        (["simulate", "--eps", "1.5"], None, "--eps"),
        (["simulate", "--config", "{cfg}"], {"eps": 1.5}, "'eps'"),
        (["simulate", "--kind", "bx"], None, "--kind"),
        (["simulate", "--config", "{cfg}"], {"kind": "bx"}, "'kind'"),
        (["moments", "--method", "simpson"], None, "--method"),
        (["moments", "--config", "{cfg}"], {"method": "simpson"}, "'method'"),
        (["limit", "--k", "1", "--eps-ladder", "0.1,0.1,0.1,0.1"], None, "unrecognized arguments: --eps-ladder"),
        (["limit", "--config", "{cfg}"], {"k": 2, "eps_ladder": [0.3, 0.2, 0.1, 0.1, 0.1, 0.1]}, "'eps_ladder'"),
        (["limit", "--eps-ladder", "0,0.1,0.2"], None, "unrecognized arguments: --eps-ladder"),
        (["limit", "--config", "{cfg}"], {"eps_ladder": [0.5, 1.0, 0.2]}, "'eps_ladder'"),
        (["verify", "--suite", "words,nope"], None, "'nope'"),
        (["verify", "--config", "{cfg}"], {"suite": "nope"}, "'nope'"),
        (["limit", "--config", "{cfg}"], {"out": 5}, "'out'"),
        (["limit", "--k", "2", "--eps-ladder", "0.3,0.2,0.1"], None, "unrecognized arguments: --eps-ladder"),
        (["verify", "--config", "{cfg}"], {"out": "x"}, "unknown config keys"),
        # --grid and a grid key are refused like any unknown flag or key
        (["limit", "--method", "quadrature", "--grid", "2"], None, "unrecognized arguments: --grid 2"),
        # an output directory that could not be made is refused before any work
        (["limit", "--k", "1", "--out", "{cfg}"], None, "--out"),
        (["words", "--out", "{cfg}/x"], None, "--out"),
        (["moments", "--config", "{cfg}"], {"out": __file__}, "--out (config key 'out')"),
        # the word integrals give the balanced limits only: limit used to print them under t and h
        (["limit", "--kind", "t", "--k", "1", "--method", "quadrature"], None, "--kind"),
        (["limit", "--config", "{cfg}"], {"kind": "h"}, "'kind'"),
        # a grid whose graded cells went subnormal used to print "value": NaN with exit 0; the mesh is gone
        (["limit", "--kind", "bh", "--k", "1", "--method", "quadrature", "--grid", "5000"], None,
         "unrecognized arguments: --grid 5000"),
        (["limit", "--config", "{cfg}"], {"k": 2, "method": "quadrature", "grid": 64},
         "unknown config keys for limit: ['grid']"),
        (["limit", "--config", "{cfg}"], {"k": 2, "eps_ladder": None}, "'eps_ladder'"),
    ],
    ids=[
        "threads-0", "range-inf", "config-n-abc", "samples-0",
        "config-bool-string", "config-not-object", "config-ladder-string", "config-other-command",
        "n-0", "config-n-0", "config-threads-string", "config-range-inf", "config-samples-0",
        "eps-1.5", "config-eps-1.5", "kind-unknown", "config-kind-unknown",
        "method-simpson", "config-method-simpson", "ladder-repeated", "config-ladder-repeated",
        "ladder-zero-rung", "config-ladder-rung-1", "suite-unknown", "config-suite-unknown",
        "config-out-number", "ladder-short-for-k", "config-verify-out", "quadrature-grid-2",
        "out-existing-file", "out-under-file", "config-out-file", "limit-kind-t", "config-limit-kind-h",
        "quadrature-grid-subnormal", "config-grid", "config-ladder-null",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, args, config, message):
    forbid_work(monkeypatch, "bad input must be rejected before any sampling")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [arg.replace("{cfg}", str(cfg)) for arg in args]
    if argv[0] == "simulate":
        argv += ["--out", str(out)]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses a flag the command does not have
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()


def test_out_is_made_before_any_work(tmp_path, capsys, monkeypatch):
    # a name too long to create passes the config check, and used to end in an
    # OSError traceback from the writer after the whole ladder had run
    def no_work(cfg):
        raise AssertionError("an --out that cannot be made must be refused before the command runs")

    monkeypatch.setitem(cli._COMMANDS, "limit", (cli.Limit, no_work))
    out = tmp_path / "made" / ("a" * 300)
    assert run_cli("limit", "--k", "1", "--samples", "1000", "--threads", "1", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # nor is its parent, made on the way, left behind


def test_simulate_rejects_trim_of_unbalanced(tmp_path, capsys):
    # the library refuses the trim now, before any draw or worker
    code = run_cli(
        "simulate", "--kind", "t", "--n", "10", "--reps", "2", "--eps", "0.1",
        "--out", str(tmp_path / "x"), "--threads", "2",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: eps trims are defined for balanced kinds (bt, bh)\n"
    assert not (tmp_path / "x").exists()


def test_words_json_matches_library(tmp_path, capsys):
    out = tmp_path / "words"
    assert run_cli("words", "--k", "2", "--out", str(out)) == 0
    capsys.readouterr()
    entries = json.loads((out / "words.json").read_text())
    assert [e["word"] for e in entries] == ["aabb", "abab", "abba"]
    for entry in entries:
        forms_t, closure_t = linear_forms(Word(entry["word"]), MatrixKind.T)
        assert entry["forms"]["t"] == [list(f.coeffs) for f in forms_t]
        assert entry["closure"]["t"] is closure_t
    abab = entries[1]
    assert abab["closure"]["h"] is False
    assert abab["S"] == [0, 1, 2]


def test_simulate_over_matrix_budget_exits_1_before_work(tmp_path, capsys):
    out = tmp_path / "big"
    code = run_cli("simulate", "--n", "100000", "--reps", "2", "--out", str(out), "--threads", "1")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "GiB" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["moments", "--k-max", "8"], "enumeration cap"),
        (["moments", "--method", "quadrature", "--k-max", "8"], "enumeration cap"),
        (["limit", "--k", "2", "--method", "quadrature", "--samples", "1000000000000000", "--threads", "1"],
         "GiB per batch"),
        (["simulate", "--n", "10", "--reps", "2", "--bins", "1000001", "--threads", "1"], "histogram bins"),
        (["limit", "--k", "1", "--samples", "1000000000000000", "--threads", "1"], "rows per batch"),
        (["moments", "--samples", "1000000000000000"], "rows per batch"),
    ],
    ids=[
        "moments-words-cap", "moments-quadrature-cap", "limit-quadrature-budget", "simulate-bins-cap",
        "limit-mc-budget", "moments-mc-budget",
    ],
)
def test_estimate_over_cap_exits_1_before_work(tmp_path, capsys, monkeypatch, args, message):
    # moments used to simulate and fit every lower order before refusing the
    # top one, and the quadrature grid, the Monte Carlo sample count and
    # simulate's bins used to end in numpy's _ArrayMemoryError
    forbid_work(monkeypatch, "a capped request must be refused before any work")
    out = tmp_path / "out"
    assert run_cli(*args, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()


def test_limit_json_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "l1"
    code = run_cli(
        "limit", "--kind", "bt", "--k", "1", "--method", "mc-ladder",
        "--samples", "50000", "--seed", "7", "--out", str(out1),
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    payload = json.loads((out1 / "limit.json").read_text())
    assert printed == payload
    assert payload["kind"] == "t" and payload["k"] == 1 and payload["order"] == 2
    assert payload["method"] == "mc-ladder"
    assert abs(payload["value"] - 2.0) < 0.2
    assert sorted(payload) == ["k", "kind", "method", "order", "per_word", "std_error", "value"]
    assert len(payload["per_word"]) == 1

    out2 = tmp_path / "l2"
    assert run_cli(
        "limit", "--kind", "bt", "--k", "1", "--method", "mc-ladder",
        "--samples", "50000", "--seed", "7", "--out", str(out2),
    ) == 0
    capsys.readouterr()
    assert (out1 / "limit.json").read_bytes() == (out2 / "limit.json").read_bytes()


def test_limit_quadrature_value(capsys):
    assert run_cli("limit", "--kind", "bh", "--k", "1", "--method", "quadrature") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 2.0) < 1e-3
    assert "ladder" not in payload


def test_limit_quadrature_reruns_byte_identical_across_threads(tmp_path, capsys):
    # the lattice vector is cached per process, the shifts come from each
    # word's derived seed: a rerun and a two-worker run write the same bytes
    args = ["limit", "--kind", "bh", "--k", "2", "--method", "quadrature", "--samples", "40000"]
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        assert run_cli(*args, "--threads", threads, "--out", str(tmp_path / name)) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "limit.json").read_bytes()
    assert first == (tmp_path / "b" / "limit.json").read_bytes() == (tmp_path / "c" / "limit.json").read_bytes()
    assert json.loads(first)["method"] == "quadrature"


def test_limit_rejects_oversized_k(capsys):
    assert run_cli("limit", "--kind", "bt", "--k", "9", "--method", "quadrature") == 1


def test_limit_rejects_unknown_method(capsys):
    assert run_cli("limit", "--kind", "bt", "--k", "1", "--method", "simpson") == 2


def test_moments_report_and_files(tmp_path, capsys):
    out = tmp_path / "m"
    code = run_cli(
        "moments", "--kind", "bt", "--n", "60", "--reps", "4", "--dist", "normal",
        "--k-max", "1", "--method", "quadrature", "--seed", "5",
        "--threads", "1", "--out", str(out),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "order" in stdout and "empirical" in stdout
    report = json.loads((out / "moments.json").read_text())
    assert [row["order"] for row in report["rows"]] == [1, 2]
    csv_lines = (out / "moments.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "method": "quadrature", "kind": "bh"}))
    assert run_cli("limit", "--config", str(cfg), "--k", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 1  # explicit flag wins
    assert payload["kind"] == "h"  # config supplies the rest
    assert payload["method"] == "quadrature"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run_cli("limit", "--config", str(cfg)) == 2


def test_verify_quick_suites(capsys):
    assert run_cli("verify", "--suite", "words,inputs") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_monte_carlo_check_prints_its_bar():
    # aa's bar at 200,000 points is near 2e-10, which a fixed five decimals
    # would print as 0.00000: the check gives the value to 12 digits, the bar
    # to 2 and z
    from balanced_spectra import verify

    (check,) = [c for c in verify.suite_limits() if c.name == "Monte Carlo limit within 4 bars of 2"]
    assert check.passed and check.detail == "1.99999999965 +- 1.9e-10, z = -1.81"


def test_verify_unknown_suite(capsys):
    assert run_cli("verify", "--suite", "nope") == 2


def test_verify_has_no_out_flag(tmp_path, capsys):
    # verify writes no result files, so it takes no output directory
    with pytest.raises(SystemExit) as info:
        main(["verify", "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_public_api_lists_no_module():
    import types

    import balanced_spectra

    assert balanced_spectra.__all__
    for name in balanced_spectra.__all__:
        assert not isinstance(getattr(balanced_spectra, name), types.ModuleType), name


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "balanced_spectra", "words", "--k", "1"],
        capture_output=True, text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)[0]["word"] == "aa"


def test_closed_stdout_exits_1_quietly():
    # like `words --k 4 | head -1`: the reader leaves after one line of ~180 kB
    root = Path(__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-m", "balanced_spectra", "words", "--k", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(root),
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    ) as proc:
        assert proc.stdout.readline().strip() == b"["
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert stderr == b""
    assert code == 1


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
