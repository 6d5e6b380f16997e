import json

import numpy as np
import pytest

from depmeasures import from_matrix, random_joint, save_json
from depmeasures.cli import _build_parser, run

from test_measures import isolated_atom_matrices


def read_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_matrix(path, m):
    save_json(m, str(path))


class TestBasicCommands:
    def test_yy_then_measures_roundtrip(self, tmp_path):
        yy_file = tmp_path / "yy.json"
        assert run(["yy", "--t", "0.5", "--out", str(yy_file)]) == 0
        rep_file = tmp_path / "rep.json"
        assert run(["measures", "--in", str(yy_file), "--out", str(rep_file)]) == 0
        result = read_doc(rep_file)["result"]
        assert result["psi"] == pytest.approx(0.5, abs=1e-12)
        assert result["lambda"] == pytest.approx(0.25, abs=1e-12)
        assert result["rho"] == pytest.approx(0.5, abs=1e-9)

    def test_manifest_embedded(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["orthant", "--r", "0.5", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["manifest"]["command"] == "orthant"
        assert doc["manifest"]["tool_version"]
        assert doc["result"]["value"] == pytest.approx(1 / 3, abs=0)

    def test_kron_output_feeds_back(self, tmp_path):
        a = tmp_path / "a.json"
        write_matrix(a, random_joint(2, 2, seed=1))
        k = tmp_path / "k.json"
        assert run(["kron", "--in1", str(a), "--in2", str(a), "--out", str(k)]) == 0
        rep = tmp_path / "rep.json"
        assert run(["measures", "--in", str(k), "--out", str(rep)]) == 0

    def test_factors_within_tolerance_join_and_check(self, tmp_path):
        # each factor sums to 1 + 6e-10, within tolerance; their product
        # sums to 1 + 1.2e-9, which the join must not reject
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"matrix": [[0.3, 0.2], [0.1, 0.4 + 6e-10]]}))
        k = tmp_path / "k.json"
        assert run(["kron", "--in1", str(f), "--in2", str(f), "--out", str(k)]) == 0
        assert run(["measures", "--in", str(k), "--out", str(tmp_path / "r.json")]) == 0
        for name in ("cousin", "csaki-fischer"):
            out = tmp_path / f"{name}.json"
            assert run(["check", name, "--in1", str(f), "--in2", str(f), "--out", str(out)]) == 0

    def test_isolated_atom_heuristic_report(self, tmp_path):
        # 21x21 with a 1e-9 atom: exited 2 on a false witness violation
        m = isolated_atom_matrices(2)[1]
        assert m.shape == (21, 21)
        f = tmp_path / "m.json"
        write_matrix(f, m)
        out = tmp_path / "r.json"
        assert run(["measures", "--in", str(f), "--out", str(out)]) == 0
        assert read_doc(out)["result"]["mode_flags"]["psi"] == "heuristic"

    def test_normalize_flag(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"matrix": [[2.0, 2.0], [2.0, 2.0]]}))
        assert run(["measures", "--in", str(f)]) == 2  # not normalized
        assert run(["measures", "--in", str(f), "--normalize", "--out",
                    str(tmp_path / "r.json")]) == 0

    def test_overflowing_measure_exits_2(self, tmp_path):
        # psi of the 2e-310 atom overflows a float: exit 2, not Infinity
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"matrix": [[2e-310, 0, 0, 0], [0, 0, 0, 1]]}))
        out = tmp_path / "r.json"
        assert run(["measures", "--in", str(f), "--normalize", "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["measures", "--in", str(tmp_path / "nope.json")]) == 2

    def test_without_out_writes_the_document_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "yy.json"
        assert run(["yy", "--t", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert run(["yy", "--t", "0.5"]) == 0
        text = capsys.readouterr().out
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text)["result"] == read_doc(out)["result"]

    def test_embellish(self, tmp_path):
        base = tmp_path / "b.json"
        write_matrix(base, random_joint(2, 2, seed=2, style="near_independent", noise=0.0))
        out = tmp_path / "e.json"
        assert run(["embellish", "--base", str(base), "--t", "0.4",
                    "--out", str(out)]) == 0
        doc = read_doc(out)
        assert all(c["pass"] for c in doc["result"]["checks"])
        rep = tmp_path / "rep.json"
        assert run(["measures", "--in", str(out), "--out", str(rep)]) == 0
        assert read_doc(rep)["result"]["tau"] == pytest.approx(0.4, abs=1e-9)


class TestChecksAndFuzz:
    def test_check_chain_passes(self, tmp_path):
        f = tmp_path / "m.json"
        write_matrix(f, random_joint(3, 3, seed=3))
        out = tmp_path / "c.json"
        assert run(["check", "chain", "--in", str(f), "--out", str(out)]) == 0
        assert all(c["pass"] for c in read_doc(out)["result"]["checks"])

    def test_check_two_atom_shape_error(self, tmp_path):
        f = tmp_path / "m.json"
        write_matrix(f, random_joint(3, 3, seed=4))
        assert run(["check", "two-atom", "--in", str(f)]) == 2

    def test_check_cousin_multi(self, tmp_path):
        files = []
        for k in range(3):
            f = tmp_path / f"m{k}.json"
            write_matrix(f, random_joint(2, 2, seed=5 + k))
            files.append(str(f))
        out = tmp_path / "c.json"
        assert run(["check", "cousin-multi", "--in", *files, "--out", str(out)]) == 0

    def test_fuzz_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fuzz", "--count", "5", "--shape", "3x3"])
        assert exc.value.code == 2

    def test_fuzz_reports_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "f1.json"
        out2 = tmp_path / "f2.json"
        argv = ["fuzz", "--count", "30", "--shape", "3x3", "2x4",
                "--style", "dense", "sparse", "--seed", "11"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        r1 = read_doc(out1)["result"]
        r2 = read_doc(out2)["result"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["failures"] == []

    def test_fuzz_negative_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run(["fuzz", "--count", "-5", "--shape", "2x2", "--seed", "1",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: count must be >= 0")

    def test_fuzz_count_beyond_the_state_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run(["fuzz", "--count", "1000000000000", "--shape", "2x2", "--seed", "1",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: count must be at most 10000000")


class TestSearchCli:
    def test_search_rho_json(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["search", "rho", "--shape", "2x4", "--tau-cap", "0.2",
                    "--two-atom", "--budget", "40", "--restarts", "1",
                    "--seed", "7", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["result"]["objective"] <= doc["result"]["bound"] + 1e-9

    def test_search_requires_seed(self):
        with pytest.raises(SystemExit) as exc:
            run(["search", "rho", "--shape", "2x2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--shape", "15x2"], "shape 15x2 exceeds exact caps 14x14"),
        (["--shape", "3x3", "--two-atom"], "two-atom bound needs exactly 2 rows, got 3"),
    ], ids=["beyond-exact-cap", "two-atom-three-rows"])
    def test_config_errors_exit_2(self, capsys, argv, message):
        assert run(["search", "rho", *argv, "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_csv_trace(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["search", "rho", "--shape", "2x2", "--budget", "10",
                    "--restarts", "1", "--seed", "8",
                    "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective"
        assert len(lines) >= 2


class TestTheorem6Cli:
    def test_exact_run(self, tmp_path):
        f = tmp_path / "yy.json"
        assert run(["yy", "--t", "0.5", "--out", str(f)]) == 0
        out = tmp_path / "t6.json"
        assert run(["theorem6", "--base", str(f), "--g=-1,1", "--h=-1,1",
                    "--n", "1", "--method", "exact", "--out", str(out)]) == 0
        assert read_doc(out)["result"]["value"] == 0.5

    def test_mc_requires_seed(self, tmp_path):
        f = tmp_path / "yy.json"
        assert run(["yy", "--t", "0.5", "--out", str(f)]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["theorem6", "--base", str(f), "--g=-1,1", "--h=-1,1",
                 "--n", "4", "--method", "mc"])
        assert exc.value.code == 2

    def test_mc_on_leading_masses_above_one(self, tmp_path):
        # total within 1e-9 of 1, but numpy's sampler rejects the leading sum
        f = tmp_path / "base.json"
        f.write_text(json.dumps({"matrix": [[0.3, 0.2], [0.5000000004, 0.0]],
                                 "g": [-1, 1], "h": [-1, 1]}))
        out = tmp_path / "t6.json"
        assert run(["theorem6", "--base", str(f), "--n", "4", "--method", "mc",
                    "--samples", "2000", "--seed", "1", "--out", str(out)]) == 0
        assert -1.0 <= read_doc(out)["result"]["value"] <= 1.0

    def test_scores_given_but_matrix_missing_exits_2(self, tmp_path):
        f = tmp_path / "scores_only.json"
        f.write_text(json.dumps({"g": [-1.0, 1.0], "h": [-1.0, 1.0]}))
        assert run(["theorem6", "--base", str(f), "--g=-1,1", "--h=-1,1", "--n", "2"]) == 2

    def test_witness_search_scored_base_file(self, tmp_path):
        sb = tmp_path / "sb.json"
        sb.write_text(json.dumps({
            "matrix": [[0.375, 0.125], [0.125, 0.375]],
            "g": [-1.0, 1.0], "h": [-1.0, 1.0],
        }))
        out = tmp_path / "w.json"
        assert run(["witness-search", "--t", "0.5", "--base", str(sb),
                    "--nmax", "3", "--method", "exact", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["result"]["found"] is False

    def test_witness_search_hit_payload(self, tmp_path):
        # the corner base of test_no_hit_from_float_noise_at_n_one; t is its tau
        marg = np.array([1 / 8, 3 / 4, 1 / 8])
        corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        doc = from_matrix(np.outer(marg, marg) + 0.32203486496116707 / 64 * corner).to_jsonable()
        doc.update(g=[-1.0, 0.0, 1.0], h=[-1.0, 0.0, 1.0])
        sb = tmp_path / "corner.json"
        sb.write_text(json.dumps(doc))
        out = tmp_path / "w.json"
        assert run(["witness-search", "--t", "0.046004980708738145", "--base", str(sb),
                    "--nmax", "3", "--method", "exact", "--out", str(out)]) == 0
        result = read_doc(out)["result"]
        assert result["found"] is True
        assert result["hit"] == {
            "n": 2,
            "estimate": {"n": 2, "value": 0.04775735025708148, "stderr": 0.0,
                         "method": "exact", "samples": 0},
            "check": {
                "check_name": "sum_indicator_corr>t",
                "lhs": 0.046004980708738145,
                "rhs": 0.04775735025708148,
                "slack": 0.0017523695483433327,
                "pass": True,
                "tolerance": 1e-09,
                "instance_digest": {"n": 2, "t": 0.046004980708738145,
                                    "r": 0.08050871624029177, "method": "exact",
                                    "samples": 0},
                "witness": None,
            },
        }

    def test_exact_sign_pair_beyond_state_cap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "yy.json"
        assert run(["yy", "--t", "0.5", "--out", str(f)]) == 0
        assert run(["theorem6", "--base", str(f), "--g=-1,1", "--h=-1,1",
                    "--n", "3162", "--method", "exact"]) == 2
        assert "lattice grid 3163x3163 exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("g, message", [
        ("nan,1", "row scores must be finite"),
        ("inf,1", "row scores must be finite"),
        ("1e308,-1e308", "g variance overflows"),
        ("-1,0,1", "row scores have shape (3,), M has 2 row atoms"),
    ])
    def test_non_finite_or_overflowing_scores_exit_2(self, tmp_path, capsys, g, message):
        f = tmp_path / "yy.json"
        assert run(["yy", "--t", "0.5", "--out", str(f)]) == 0
        assert run(["theorem6", "--base", str(f), f"--g={g}", "--h=-1,1", "--n", "4"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_lemma7(self, tmp_path):
        out = tmp_path / "l.json"
        assert run(["lemma7", "--grid", "2000", "--out", str(out)]) == 0
        assert read_doc(out)["result"]["grid_min"] > 0

    def test_lemma7_grid_above_state_cap_exits_2(self):
        from depmeasures.constructions import STATE_CAP

        assert run(["lemma7", "--grid", str(STATE_CAP + 1)]) == 2


class TestParser:
    def test_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    def test_runs_in_one_process_keep_their_own_parameters(self, tmp_path):
        base = ["fuzz", "--count", "4", "--shape", "2x2", "--seed", "5", "--no-pair-checks"]
        sparse, dense = tmp_path / "sparse.json", tmp_path / "dense.json"
        assert run(base + ["--style", "sparse", "--out", str(sparse)]) == 0
        assert run(base + ["--out", str(dense)]) == 0
        sparse_doc, dense_doc = read_doc(sparse), read_doc(dense)
        assert sparse_doc["manifest"]["parameters"]["style"] == ["sparse"]
        assert dense_doc["manifest"]["parameters"]["style"] == ["dense"]
        assert {d["style"] for d in near_sharp_digests(sparse_doc)} == {"sparse"}
        assert {d["style"] for d in near_sharp_digests(dense_doc)} == {"dense"}


def near_sharp_digests(doc):
    return [c["instance_digest"] for c in doc["result"]["near_sharp"]]


@pytest.mark.parametrize(
    "text, command",
    [
        ('{"matrix": [[0.5, "x"]]}', ["measures", "--in"]),
        ('{"matrix": 5}', ["measures", "--in"]),
        ('{"matrix": [0.5, 0.5]}', ["measures", "--in"]),
        ('{"matrix": [[0.5, [0.5]]]}', ["measures", "--in"]),
        ("[1, 2]", ["measures", "--in"]),
        ('{"matrix": [[0.5, 0], [0, 0.5]], "g": ["x", 1], "h": [-1, 1]}',
         ["theorem6", "--n", "1", "--base"]),
        ('{"matrix": [["0.5", "0.5"]]}', ["measures", "--in"]),
        ('{"matrix": [[true, false]]}', ["measures", "--in"]),
        ('{"matrix": [[0.5, 0], [0, 0.5]], "g": ["-1", "1"], "h": [-1, 1]}',
         ["theorem6", "--n", "1", "--base"]),
        ('{"matrix": [[0.5, 0], [0, 0.5]], "g": [1e308, -1e308], "h": [-1, 1]}',
         ["theorem6", "--n", "4", "--base"]),
        ('{"matrix": [[0.5, 0], [0, 0.5]], "g": [NaN, 1], "h": [-1, 1]}',
         ["theorem6", "--n", "4", "--base"]),
    ],
    ids=["text-entry", "scalar-matrix", "flat-list", "nested-entry", "top-level-array",
         "text-score", "quoted-entry", "boolean-entry", "quoted-score",
         "overflowing-score", "nan-score"],
)
def test_malformed_input_exits_2(tmp_path, capsys, text, command):
    f = tmp_path / "in.json"
    f.write_text(text)
    out = tmp_path / "out.json"
    assert run(command + [str(f), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["fuzz", "--count", "1", "--shape", "2x2"],
        ["search", "rho", "--shape", "2x2", "--budget", "2", "--restarts", "1"],
        ["theorem6", "--g=-1,1", "--h=-1,1", "--n", "4", "--method", "mc",
         "--samples", "1000", "--base", "BASE"],
    ],
    ids=["fuzz", "search", "theorem6-mc"],
)
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # numpy's generators reject negative seeds with a ValueError, once a traceback
    base = tmp_path / "yy.json"
    assert run(["yy", "--t", "0.5", "--out", str(base)]) == 0
    command = [str(base) if arg == "BASE" else arg for arg in command]
    out = tmp_path / "out.json"
    assert run(command + ["--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -1")


@pytest.mark.parametrize(
    "command",
    [
        ["search", "rho", "--shape", "4by4", "--seed", "1"],
        ["search", "tensor-gap", "--shape", "2x3", "--two-atom", "--budget", "3",
         "--restarts", "1", "--seed", "1"],
        ["theorem6", "--base", "BASE", "--g=a,b", "--h=-1,1", "--n", "1"],
        ["theorem6", "--base", "BASE", "--g=-1,1", "--n", "1"],
        ["witness-search", "--base", "BASE", "--t", "0.5", "--nmax", "2", "--method", "mc"],
        ["measures", "--in", "BASE", "--format", "csv"],
        ["fuzz", "--count", "3000", "--shape", "3x3", "--seed", "1", "--format", "csv"],
        ["theorem6", "--base", "BASE", "--g=-1,1", "--h=-1,1", "--n", "4", "--samples", "7"],
        ["theorem6", "--base", "BASE", "--g=-1,1", "--h=-1,1", "--n", "4", "--method", "exact",
         "--seed", "3"],
        ["witness-search", "--base", "BASE", "--t", "0.5", "--nmax", "2", "--method", "exact",
         "--samples", "5000"],
        ["witness-search", "--base", "BASE", "--t", "0.5", "--nmax", "2", "--method", "exact",
         "--seed", "1"],
    ],
    ids=["shape-text", "tensor-gap-two-atom", "text-scores", "g-without-h",
         "witness-search-mc-without-seed", "csv-elsewhere", "fuzz-csv",
         "theorem6-exact-samples", "theorem6-exact-seed", "witness-search-exact-samples",
         "witness-search-exact-seed"],
)
def test_usage_error_exits_2(tmp_path, capsys, command):
    # an option is offered only where it acts: --two-atom on search rho,
    # --format on search, --samples and --seed where Monte Carlo can run
    base = tmp_path / "yy.json"
    assert run(["yy", "--t", "0.5", "--out", str(base)]) == 0
    command = [str(base) if arg == "BASE" else arg for arg in command]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "error: " in capsys.readouterr().err


def test_theorem6_manifest_records_only_the_settings_that_act(tmp_path):
    base = tmp_path / "yy.json"
    assert run(["yy", "--t", "0.5", "--out", str(base)]) == 0
    exact, mc = tmp_path / "exact.json", tmp_path / "mc.json"
    argv = ["theorem6", "--base", str(base), "--g=-1,1", "--h=-1,1", "--n", "4"]
    assert run(argv + ["--out", str(exact)]) == 0
    assert run(argv + ["--method", "mc", "--seed", "3", "--out", str(mc)]) == 0
    exact_doc, mc_doc = read_doc(exact), read_doc(mc)
    assert {"samples", "seed"}.isdisjoint(exact_doc["manifest"]["parameters"])
    assert exact_doc["manifest"]["seed"] is None and exact_doc["result"]["samples"] == 0
    assert mc_doc["manifest"]["parameters"]["samples"] == mc_doc["result"]["samples"] == 100_000
    assert mc_doc["manifest"]["parameters"]["seed"] == mc_doc["manifest"]["seed"] == 3


def test_tensor_gap_records_no_two_atom_parameter(tmp_path):
    out = tmp_path / "g.json"
    assert run(["search", "tensor-gap", "--shape", "2x2", "--budget", "3", "--restarts", "1",
                "--seed", "1", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert "two_atom" not in doc["manifest"]["parameters"]
    assert doc["result"]["config"]["two_atom"] is False


class TestExitCodes:
    def test_non_convergence_maps_to_exit_4(self, tmp_path, monkeypatch):
        import depmeasures.cli as cli
        from depmeasures.errors import ConvergenceFailure

        def unstable(*args, **kwargs):
            raise ConvergenceFailure("residual above tolerance")

        monkeypatch.setattr(cli, "full_report", unstable)
        f = tmp_path / "m.json"
        write_matrix(f, random_joint(2, 2, seed=11))
        assert run(["measures", "--in", str(f)]) == 4

    def test_failing_check_maps_to_exit_3(self, tmp_path, monkeypatch):
        import depmeasures.cli as cli
        from depmeasures.theorem_suite import CheckResult

        def broken_check(M, digest=None):
            return CheckResult(
                check_name="rho<=tau*(1-log tau)", lhs=1.0, rhs=0.0, slack=-1.0,
                passed=False, tolerance=1e-9, instance_digest={},
            )

        monkeypatch.setattr(cli, "check_peyre_bound", broken_check)
        f = tmp_path / "m.json"
        write_matrix(f, random_joint(2, 2, seed=10))
        out = tmp_path / "c.json"
        assert run(["check", "peyre", "--in", str(f), "--out", str(out)]) == 3
        assert read_doc(out)["result"]["checks"][0]["pass"] is False

