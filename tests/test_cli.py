"""Exit codes, output determinism, and file plumbing of the console tool."""

import contextlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singerlab
from singerlab.cli import main
from singerlab.ffield import field_ctx
from singerlab.instgen import gen_instance, save_instance, tamper
from singerlab.schur import model_spectrum, parse_module_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- exit code layer ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["check-injectivity", "--help"]) == 0


def test_usage_errors_exit_one(capsys):
    assert main(["check-injectivity", "--nope"]) == 1
    assert main([]) == 1
    assert main(["check-injectivity", "--q", "7", "--d", "3"]) == 1


def test_injective_exits_zero(capsys):
    code, out = run(capsys, "check-injectivity", "--q", "7", "--d", "3", "--C", "3")
    assert code == 0
    assert "checked 64 vectors" in out


def test_collision_exits_two(capsys):
    code, out = run(capsys, "check-injectivity", "--q", "3", "--d", "2", "--C", "2")
    assert code == 2
    assert "(0, 0)" in out and "(2, 2)" in out


def test_budget_exhaustion_exits_three(capsys):
    code = main(["check-injectivity", "--q", "7", "--d", "5", "--C", "6", "--budget", "10"])
    assert code == 3


def test_sum_k_honours_the_budget():
    """--sum-K used to ignore --budget and stream binom(209, 200) patterns until killed."""
    argv = ["check-injectivity", "--q", "65536", "--d", "10", "--C", "200", "--sum-K", "--budget", "1000"]
    proc = _run_python(["-m", "singerlab.cli", *argv], timeout=5)
    assert proc.returncode == 3 and proc.stderr.startswith("budget exceeded: ")


def test_sum_k_refuses_q_below_two(capsys):
    """q = 1 made phi reduce modulo q^d - 1 = 0: a ZeroDivisionError traceback."""
    assert main(["check-injectivity", "--q", "1", "--d", "2", "--C", "2", "--sum-K"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_non_prime_power_q_rejected(capsys):
    assert main(["model-spectrum", "--q", "6", "--d", "2", "--K", "2"]) == 1


# -- determinism ---------------------------------------------------------------------


def test_json_output_is_byte_identical(capsys):
    args = ("model-spectrum", "--q", "7", "--d", "3", "--K", "3", "--format", "json")
    _, a = run(capsys, *args)
    _, b = run(capsys, *args)
    assert a == b
    data = json.loads(a)
    assert data["count"] == 10 and data["distinct_exponents"] is True


def test_seed_env_fallback(capsys, monkeypatch, tmp_path):
    argv = [
        "gen-instance",
        "--spec",
        "d=3 q=7 factors=[sym(2)@0]",
        "--gens",
        "2",
        "--out",
        str(tmp_path / "a.json"),
    ]
    monkeypatch.setenv("SINGER_SEED", "9")
    assert main(argv) == 0
    monkeypatch.delenv("SINGER_SEED")
    argv2 = argv[:-1] + [str(tmp_path / "b.json"), "--seed", "9"]
    assert main(argv2) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_bad_seed_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("SINGER_SEED", "ten")
    assert main(["singer-demo", "--q", "7", "--d", "3"]) == 1


# -- spectrum table -------------------------------------------------------------------


def test_large_field_spectrum_stays_integer(capsys):
    code, out = run(
        capsys, "model-spectrum", "--q", "65536", "--d", "10", "--K", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 715
    assert data["modulus"] == 65536**10 - 1
    assert "omega" not in data


def test_omega_auto_appends_eigenvalues(capsys):
    code, out = run(
        capsys, "model-spectrum", "--q", "7", "--d", "3", "--K", "2", "--omega", "auto",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all("eigenvalue" in row for row in data["rows"])


def test_omega_rejects_oversize_field(capsys):
    assert main(["model-spectrum", "--q", "65536", "--d", "10", "--K", "4", "--omega", "auto"]) == 1


@pytest.mark.parametrize("omega", ["abc", "-5", "999999", "0"])
def test_omega_outside_the_field_exits_one(capsys, omega):
    """--omega takes the code of a nonzero element of F_{q^d}; these used to
    end in a ValueError or KeyError traceback."""
    assert main(["model-spectrum", "--q", "7", "--d", "3", "--K", "2", f"--omega={omega}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# -- demo ------------------------------------------------------------------------------


def test_demo_transcript(capsys):
    code, out = run(capsys, "singer-demo", "--q", "7", "--d", "3", "--spec", "sym(3)@0")
    assert code == 0
    assert "model match: yes" in out
    assert "simple spectrum: yes" in out
    assert "exponent 147 has base-7 digits (0, 0, 3)" in out


def test_demo_computes_each_spectrum_once(capsys, monkeypatch):
    """One root finding for the natural module and one for the requested
    module, which both verdicts read; they used to compute it twice more."""
    real, calls = singerlab.singer.roots_in_extension, []

    def counted(ctx, g):
        calls.append(g)
        return real(ctx, g)

    monkeypatch.setattr(singerlab.singer, "roots_in_extension", counted)
    assert main(["singer-demo", "--q", "7", "--d", "3", "--spec", "sym(2)"]) == 0
    assert len(calls) == 2


def test_demo_of_a_zero_dimensional_module_exits_one(capsys):
    """ext(5) vanishes at d = 3; the demo used to stop in min() of no patterns."""
    assert main(["singer-demo", "--q", "7", "--d", "3", "--spec", "ext(5)"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# -- instance pipeline ------------------------------------------------------------------


@pytest.fixture
def instance_path(tmp_path):
    path = str(tmp_path / "inst.json")
    code = main(
        ["gen-instance", "--spec", "d=3 q=7 factors=[sym(2)@0]", "--gens", "2", "--seed", "5",
         "--out", path]
    )
    assert code == 0
    return path


def test_full_round_trip(instance_path, tmp_path, capsys):
    result = str(tmp_path / "res.json")
    assert main(["rewrite", "--in", instance_path, "--seed", "1", "--out", result]) == 0
    assert main(["verify", "--in", instance_path, "--result", result]) == 0
    data = json.loads(open(result).read())
    assert set(data) == {"spec", "p", "f", "d", "omega", "phi", "C", "labels", "scalars", "stats"}
    assert "wall_time" not in data["stats"]


def test_rewrite_with_a_subnormal_eps_exits_without_a_traceback(instance_path):
    """--eps 5e-324 ended in an OverflowError traceback: the trial budget
    took log2(1 / eps), and 1 / eps is inf."""
    proc = _run_python(["-m", "singerlab.cli", "rewrite", "--in", instance_path, "--eps", "5e-324"], timeout=30)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr


def test_rewrite_default_result_path(instance_path, tmp_path, capsys):
    assert main(["rewrite", "--in", instance_path, "--seed", "1"]) == 0
    assert (tmp_path / "inst.result.json").exists()


def test_verify_rejects_tampered_result(instance_path, tmp_path, capsys):
    result = str(tmp_path / "res.json")
    assert main(["rewrite", "--in", instance_path, "--seed", "1", "--out", result]) == 0
    data = json.loads(open(result).read())
    data["C"][0][0] = (data["C"][0][0] + 1) % 343
    with open(result, "w") as fh:
        json.dump(data, fh)
    assert main(["verify", "--in", instance_path, "--result", result]) == 2


def test_verify_rejects_mismatched_files(instance_path, tmp_path, capsys):
    other = str(tmp_path / "other.json")
    main(["gen-instance", "--spec", "d=4 q=7 factors=[ext(2)@0]", "--gens", "2", "--seed", "0",
          "--out", other])
    result = str(tmp_path / "res.json")
    main(["rewrite", "--in", instance_path, "--seed", "1", "--out", result])
    assert main(["verify", "--in", other, "--result", result]) == 1


def test_rewrite_of_a_singular_generator_exits_one(instance_path, capsys):
    data = json.loads(open(instance_path).read())
    data["generators"][1][0] = [0] * len(data["generators"][1][0])
    with open(instance_path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert main(["rewrite", "--in", instance_path]) == 1
    assert capsys.readouterr().err.startswith("error: generator images must be invertible")


def test_rewrite_reports_failure_where_an_observation_ratio_is_zero(tmp_path, capsys):
    """This tampered instance drives extraction to a zero observation ratio;
    rewrite used to exit 1 with "error: inverse of zero in F_5^3"."""
    path = str(tmp_path / "tampered.json")
    ctx = field_ctx(5, 1, 3)
    spec = parse_module_spec("sym(2)@0", q=5, d=3)
    save_instance(tamper(gen_instance(ctx, spec, 2, seed=20), seed=20), path)
    code, out = run(capsys, "rewrite", "--in", path, "--seed", "20")
    assert code == 3
    assert out.startswith("failure: ")


def test_malformed_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["rewrite", "--in", str(bad)]) == 1
    bad.write_text(json.dumps({"p": 7}))
    assert main(["rewrite", "--in", str(bad)]) == 1


def test_rewrite_json_report(instance_path, tmp_path, capsys):
    code, out = run(
        capsys, "rewrite", "--in", instance_path, "--seed", "1",
        "--out", str(tmp_path / "r.json"), "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "ok"
    assert data["stats"]["elements_sampled"] >= 1


@pytest.mark.parametrize("entry", [2.5, 2**63], ids=["float", "overflow"])
def test_non_integer_entry_exits_one_without_traceback(instance_path, entry):
    data = json.loads(open(instance_path).read())
    data["generators"][0][0][0] = entry
    with open(instance_path, "w") as fh:
        json.dump(data, fh)
    env = dict(os.environ)
    src = str(Path(singerlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "singerlab.cli", "rewrite", "--in", instance_path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


# -- strict integer fields in instance and result files -------------------------------


def _rewrite_result(instance_path, tmp_path):
    result = str(tmp_path / "res.json")
    assert main(["rewrite", "--in", instance_path, "--seed", "1", "--out", result]) == 0
    return result


def _edit_d(inst, res):
    inst["d"] = 3.9


def _edit_oracle_seed(inst, res):
    inst["oracle"]["seed"] = 2.5


def _edit_scalars(inst, res):
    res["scalars"] = [x + 0.5 for x in res["scalars"]]


@pytest.mark.parametrize("edit", [_edit_d, _edit_oracle_seed, _edit_scalars], ids=["d", "seed", "scalars"])
def test_verify_refuses_float_fields(instance_path, tmp_path, capsys, edit):
    """int() used to truncate these, and verify then printed verified / consistent."""
    result = _rewrite_result(instance_path, tmp_path)
    inst, res = json.loads(open(instance_path).read()), json.loads(open(result).read())
    edit(inst, res)
    for path, data in ((instance_path, inst), (result, res)):
        with open(path, "w") as fh:
            json.dump(data, fh)
    capsys.readouterr()
    assert main(["verify", "--in", instance_path, "--result", result]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not an integer" in captured.err
    assert "verified" not in captured.out


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaf_paths(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaf_paths(val, path + (i,))
    else:
        yield path


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    inst, result = str(root / "inst.json"), str(root / "res.json")
    assert main(["gen-instance", "--spec", "d=3 q=7 factors=[sym(2)@0]", "--gens", "2", "--seed", "5",
                 "--out", inst]) == 0
    assert main(["rewrite", "--in", inst, "--seed", "1", "--out", result]) == 0
    return root, json.loads(open(inst).read()), json.loads(open(result).read())


NON_INTEGERS = st.one_of(st.floats(), st.text(max_size=10), st.booleans(), st.none())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), value=NON_INTEGERS, in_result=st.booleans())
def test_fuzz_non_integer_leaf_exits_one(valid_files, data, value, in_result):
    """Any leaf of a valid instance or result file replaced by a float,
    string, bool or null gets exit 1 and an error line, never a traceback."""
    root, inst, res = valid_files
    target = res if in_result else inst
    path = data.draw(st.sampled_from(sorted(_leaf_paths(target), key=repr)))
    inst_path, res_path = str(root / "case.json"), str(root / "case.result.json")
    with open(inst_path, "w") as fh:
        json.dump(inst if in_result else _replaced(inst, path, value), fh)
    with open(res_path, "w") as fh:
        json.dump(_replaced(res, path, value) if in_result else res, fh)
    commands = [["verify", "--in", inst_path, "--result", res_path]]
    if not in_result:
        commands.append(["rewrite", "--in", inst_path, "--out", str(root / "out.json")])
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 1, (argv[0], path, value)
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("stats", ["7", -1, 1.5, []], ids=["string", "negative", "float", "list"])
def test_verify_refuses_stats_that_are_not_an_object(valid_files, capsys, stats):
    """A stats value without .get used to end in an AttributeError traceback."""
    root, inst, res = valid_files
    inst_path, res_path = str(root / "stats.json"), str(root / "stats.result.json")
    for path, data in ((inst_path, inst), (res_path, _replaced(res, ("stats",), stats))):
        with open(path, "w") as fh:
            json.dump(data, fh)
    capsys.readouterr()
    assert main(["verify", "--in", inst_path, "--result", res_path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key,count", [("elements_sampled", -1), ("dlog_calls", -5), ("retries", -1)])
def test_verify_refuses_a_negative_stats_count(valid_files, capsys, key, count):
    """A negative counter used to load, and verify exited 0."""
    root, inst, res = valid_files
    inst_path, res_path = str(root / "count.json"), str(root / "count.result.json")
    for path, data in ((inst_path, inst), (res_path, _replaced(res, ("stats", key), count))):
        with open(path, "w") as fh:
            json.dump(data, fh)
    capsys.readouterr()
    assert main(["verify", "--in", inst_path, "--result", res_path]) == 1
    assert "negative count" in capsys.readouterr().err


@pytest.mark.parametrize("f", [40, 2**64], ids=["40", "2^64"])
@pytest.mark.parametrize("in_result", [False, True], ids=["instance", "result"])
def test_a_header_off_the_spec_is_refused_before_any_field_is_built(valid_files, f, in_result):
    """With f = 40, verify used to build F_{7^120} before it compared the header
    with the spec, and ran past 20 s."""
    root, inst, res = valid_files
    inst_path, res_path = str(root / "header.json"), str(root / "header.result.json")
    for path, data, edited in ((inst_path, inst, not in_result), (res_path, res, in_result)):
        with open(path, "w") as fh:
            json.dump(_replaced(data, ("f",), f) if edited else data, fh)
    proc = _run_python(["-m", "singerlab.cli", "verify", "--in", inst_path, "--result", res_path], timeout=5)
    assert proc.returncode == 1 and proc.stderr.startswith("error: ")


def test_model_spectrum_refuses_a_product_of_large_primes_at_once():
    """factorint spent more than 20 s on this q before cli refused it."""
    q = str((2**61 - 1) * (2**89 - 1))
    proc = _run_python(["-m", "singerlab.cli", "model-spectrum", "--q", q, "--d", "2", "--K", "1"], timeout=5)
    assert proc.returncode == 1 and proc.stderr.startswith("error: ") and "not a prime power" in proc.stderr


def test_model_spectrum_refuses_more_patterns_than_the_module_budget():
    """Its rows are the C(109, 100), about 4e12, patterns of Sym^100 V at
    d = 10; they were enumerated with no bound."""
    proc = _run_python(["-m", "singerlab.cli", "model-spectrum", "--q", "7", "--d", "10", "--K", "100"], timeout=5)
    assert proc.returncode == 3 and proc.stderr.startswith("budget exceeded: ")


@pytest.mark.parametrize("command", ["gen-instance", "singer-demo"])
def test_a_base_prime_past_two_to_the_63_is_refused(command, tmp_path):
    """F_{q^2} with q = 2^127 - 1 died with an OverflowError traceback while
    Field built its int64 digit arrays."""
    q = str(2**127 - 1)
    argv = {
        "gen-instance": ["--spec", f"d=2 q={q} factors=[sym(2)@0]", "--q", q, "--d", "2", "--out", str(tmp_path / "i.json")],
        "singer-demo": ["--q", q, "--d", "2", "--spec", "nat"],
    }[command]
    proc = _run_python(["-m", "singerlab.cli", command, *argv], timeout=20)
    assert proc.returncode == 1 and proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_singer_demo_refuses_a_quotient_ring_past_its_budget():
    """The natural module at q = 7, d = 60 splits a degree-60 polynomial over
    F_{7^60}, a quotient ring with a 101-million-entry fold matrix: it ran past
    8 s, or ended in a MemoryError traceback under a memory limit."""
    argv = ["singer-demo", "--q", "7", "--d", "60", "--spec", "nat"]
    proc = _run_python(["-m", "singerlab.cli", *argv], timeout=5)
    assert proc.returncode == 3 and proc.stderr.startswith("budget exceeded: ")


EDGE_VALUES = (-1, 0, 2**64, 10**400, [], {})


def _key_paths(node):
    """The path of every dict key in node, whether its value is a leaf or not."""
    return {path[: i + 1] for path in _leaf_paths(node) for i, key in enumerate(path) if isinstance(key, str)}


def _deleted(data, path):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


@settings(max_examples=100, deadline=None)
@given(data=st.data(), in_result=st.booleans(), delete=st.booleans())
def test_fuzz_edge_value_or_missing_key_never_raises(valid_files, data, in_result, delete):
    """One leaf of the instance or the result set to an edge value, or one key
    deleted: verify (and, for the instance, rewrite) returns an exit code and
    raises nothing, and verify exits 0 only for data it does not check."""
    root, inst, res = valid_files
    target = res if in_result else inst
    if delete:
        path = data.draw(st.sampled_from(sorted(_key_paths(target), key=repr)))
        mutated = _deleted(target, path)
    else:
        path = data.draw(st.sampled_from(sorted(_leaf_paths(target), key=repr)))
        mutated = _replaced(target, path, data.draw(st.sampled_from(EDGE_VALUES)))
    inst_path, res_path = str(root / "edge.json"), str(root / "edge.result.json")
    for path_out, original, edited in ((inst_path, inst, not in_result), (res_path, res, in_result)):
        with open(path_out, "w") as fh:
            json.dump(mutated if edited else original, fh)
    commands = [["verify", "--in", inst_path, "--result", res_path]]
    if not in_result:
        commands.append(["rewrite", "--in", inst_path, "--out", str(root / "edge.out.json")])
    codes = []
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    assert all(code in (0, 1, 2, 3) for code in codes), (path, codes)
    unchecked = path[0] == "stats" or path[:2] == ("oracle", "seed") or (delete and path == ("oracle",))
    assert codes[0] != 0 or unchecked or mutated == target, (path, delete)


def test_instance_without_generators_exits_one(instance_path, tmp_path, capsys):
    """With no generators and no preimages, verify used to reach the word
    draw and end in a ValueError traceback (a word over no letters)."""
    result = _rewrite_result(instance_path, tmp_path)
    inst, res = json.loads(open(instance_path).read()), json.loads(open(result).read())
    inst["generators"], res["phi"], res["scalars"] = [], [], []
    for path, data in ((instance_path, inst), (result, res)):
        with open(path, "w") as fh:
            json.dump(data, fh)
    capsys.readouterr()
    assert main(["verify", "--in", instance_path, "--result", result]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_refuses_a_spec_off_the_tower(instance_path, tmp_path, capsys):
    """Both files claim q=11 on the q=7 tower: verify used to print verified /
    consistent and exit 0, while rewrite refused the same instance."""
    result = _rewrite_result(instance_path, tmp_path)
    inst, res = json.loads(open(instance_path).read()), json.loads(open(result).read())
    for path, data in ((instance_path, inst), (result, res)):
        data["spec"] = data["spec"].replace("q=7", "q=11")
        with open(path, "w") as fh:
            json.dump(data, fh)
    capsys.readouterr()
    for argv in (["verify", "--in", instance_path, "--result", result], ["rewrite", "--in", instance_path]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "field tower" in captured.err
        assert "verified" not in captured.out


def _short_generator(inst, res):
    inst["generators"][1] = [row[:-1] for row in inst["generators"][1][:-1]]


def _short_preimage(inst, res):
    res["phi"][1] = res["phi"][1][:-1]


def _one_by_one_oracle_T(inst, res):
    inst["oracle"]["T"] = [[1]]


def _short_oracle_secret(inst, res):
    inst["oracle"]["A"][0] = [row[:-1] for row in inst["oracle"]["A"][0][:-1]]


@pytest.mark.parametrize(
    "edit",
    [_short_generator, _short_preimage, _one_by_one_oracle_T, _short_oracle_secret],
    ids=["generator", "preimage", "oracle-T", "oracle-A"],
)
def test_verify_wrong_shapes_exit_one(instance_path, tmp_path, capsys, edit):
    """A generator, preimage or oracle matrix of the wrong shape gets exit 1
    and an error line, not a traceback from the batched word products or a
    verdict on oracle data that cannot conjugate the publics."""
    result = _rewrite_result(instance_path, tmp_path)
    inst, res = json.loads(open(instance_path).read()), json.loads(open(result).read())
    edit(inst, res)
    for path, data in ((instance_path, inst), (result, res)):
        with open(path, "w") as fh:
            json.dump(data, fh)
    capsys.readouterr()
    assert main(["verify", "--in", instance_path, "--result", result]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("T", ["identity", "zeros"])
def test_verify_refuses_an_edited_oracle_T(instance_path, tmp_path, capsys, T):
    """The oracle certifies with the T it stores: an edited T used to print
    consistent and exit 0, because only some intertwiner had to exist."""
    result = _rewrite_result(instance_path, tmp_path)
    inst = json.loads(open(instance_path).read())
    n = len(inst["oracle"]["T"])
    inst["oracle"]["T"] = [[int(T == "identity" and i == j) for j in range(n)] for i in range(n)]
    with open(instance_path, "w") as fh:
        json.dump(inst, fh)
    capsys.readouterr()
    assert main(["verify", "--in", instance_path, "--result", result]) == 2
    out = capsys.readouterr().out
    assert "projective: verified" in out and "oracle: inconsistent" in out


def _other_omega(res):
    """A nonzero code of F_343 whose digit model differs from the stored labels."""
    ctx = field_ctx(res["p"], res["f"], res["d"])
    spec = parse_module_spec(res["spec"])
    for omega in range(1, ctx.ext.order):
        if [[list(c), lam] for c, lam in model_spectrum(spec, ctx, omega)] != res["labels"]:
            return omega
    raise AssertionError("every omega gives the stored labels")


def _edit_omega(res):
    res["omega"] = _other_omega(res)


def _edit_label_pattern(res):
    res["labels"][0][0] = [9, 9, 9]


def _edit_label_eigenvalue(res):
    res["labels"][0][1] = res["labels"][1][1]


@pytest.mark.parametrize(
    "edit", [_edit_omega, _edit_label_pattern, _edit_label_eigenvalue], ids=["omega", "pattern", "eigenvalue"]
)
def test_verify_refutes_labels_off_the_digit_model(instance_path, tmp_path, capsys, edit):
    """verify checks the stored labels against model_spectrum(spec, ctx, omega);
    it used to read neither, so these edits printed verified and exited 0."""
    result = _rewrite_result(instance_path, tmp_path)
    res = json.loads(open(result).read())
    edit(res)
    with open(result, "w") as fh:
        json.dump(res, fh)
    capsys.readouterr()
    assert main(["verify", "--in", instance_path, "--result", result]) == 2
    assert "projective: refuted: labels differ" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["omega", "eigenvalue"])
@pytest.mark.parametrize("code", [0, 343, -1])
def test_verify_refuses_an_out_of_range_code(instance_path, tmp_path, capsys, where, code):
    result = _rewrite_result(instance_path, tmp_path)
    res = json.loads(open(result).read())
    if where == "omega":
        res["omega"] = code
    else:
        res["labels"][2][1] = code
    with open(result, "w") as fh:
        json.dump(res, fh)
    capsys.readouterr()
    assert main(["verify", "--in", instance_path, "--result", result]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "outside the codes" in captured.err
    assert "verified" not in captured.out


# -- cold start and the example scripts -----------------------------------------------


def _run_python(args, timeout=120):
    env = dict(os.environ)
    src = str(Path(singerlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def test_cli_import_loads_no_sympy():
    proc = _run_python(["-c", "import sys, singerlab.cli; print(sorted(m for m in sys.modules if 'sympy' in m))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args",
    [
        ("roundtrip_demo.py", ["--q", "7", "--d", "3"]),
        ("spectrum_demo.py", ["--q", "7", "--d", "3"]),
        ("injectivity_grid.py", ["--q-max", "5", "--d-max", "3"]),
        ("spectrum_demo.py", ["--q", "9", "--d", "3"]),
    ],
)
def test_script_runs(script, args):
    proc = _run_python([str(SCRIPTS / script), *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_parity_sweep_prints_a_case_line():
    loader = importlib.util.spec_from_file_location("parity_sweep", SCRIPTS / "parity_sweep.py")
    sweep = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(sweep)
    line = sweep.case_line(7, 1, "d=3 q=7 factors=[sym(2)@0]", 0, True)
    assert line.startswith("d=3 q=7 factors=[sym(2)@0] seed=0 planted=1 ok ")
    assert "tampered=Refuted(" in line and "oracle=Consistent(" in line


def test_scaling_sweep_prints_a_row():
    loader = importlib.util.spec_from_file_location("scaling_sweep", SCRIPTS / "scaling_sweep.py")
    sweep = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(sweep)
    cells = sweep.row(5, "sym(2)", 3).split()
    assert cells[:4] == ["sym(2)", "5", "3", "6"]
    assert len(cells) == 7 and all(float(c) >= 0 for c in cells[4:])


def test_gen_instance_on_a_31_bit_prime_field_needs_no_embedding_table(tmp_path):
    """A prime base field embeds as the identity, so gen-instance at
    q = 2^31 - 1 builds no q-entry table: under a 2 GB address-space limit,
    set in the child alone, it exits 0 or 1 with a typed message, never a
    traceback."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    env = dict(os.environ)
    src = str(Path(singerlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    q = str(2**31 - 1)
    args = ["gen-instance", "--spec", f"d=2 q={q} factors=[sym(2)@0]", "--q", q, "--d", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "singerlab.cli", *args, "--out", str(tmp_path / "x.json")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit_address_space,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1), proc.stderr
    if proc.returncode == 1:
        assert proc.stderr.startswith(("error: ", "budget exceeded: "))
    else:
        assert (tmp_path / "x.json").exists()
