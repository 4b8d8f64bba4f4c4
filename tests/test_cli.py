import argparse
import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robustcounter import cli
from robustcounter.cli import _counterpart, _solver_options, main, parse_grid_spec
from robustcounter.fixtures import demo_instance, demo_lp, one_row_uncertain
from robustcounter.model import Model, export_text, import_text
from robustcounter.sitesel import write_instance
from robustcounter.solver import solve
from robustcounter.uncertainty import format_annotations


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "demo_lp.txt").write_text(export_text(demo_lp()))
    model, uset = one_row_uncertain()
    (tmp_path / "one_row.txt").write_text(export_text(model))
    (tmp_path / "one_row.unc").write_text(format_annotations(uset, model))
    write_instance(demo_instance(), tmp_path / "hk_demo")
    return tmp_path


def test_solve_optimal_exit_zero(workdir, capsys):
    rc = main(["solve", str(workdir / "demo_lp.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: optimal" in out
    assert "objective: 12.000000" in out


def test_solve_infeasible_exit_two(workdir, capsys):
    (workdir / "bad.txt").write_text(
        "#vars\nx continuous 0 inf\n#obj\nmax 1*x\n#cons\nc: 1*x <= -1\n")
    assert main(["solve", str(workdir / "bad.txt")]) == 2


def test_solve_unbounded_exit_three(workdir):
    (workdir / "unb.txt").write_text(
        "#vars\nx continuous 0 inf\n#obj\nmax 1*x\n#cons\n")
    assert main(["solve", str(workdir / "unb.txt")]) == 3


@pytest.mark.parametrize("objective", ["max 1*x", "min -1*x"], ids=["max", "min"])
def test_solve_json_of_an_unbounded_model_is_strict_json(workdir, capsys, objective):
    """An unbounded objective prints as null, as a stopped solve's NaN does:
    JSON has no spelling for +-Infinity."""
    (workdir / "unb.txt").write_text(
        f"#vars\nx continuous 0 inf\n#obj\n{objective}\n#cons\n")
    assert main(["solve", str(workdir / "unb.txt"), "--json"]) == 3

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert (payload["status"], payload["objective"]) == ("unbounded", None)


def test_solve_garbage_exit_one(workdir, capsys):
    (workdir / "garbage.txt").write_text("this is not a model\n")
    rc = main(["solve", str(workdir / "garbage.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 1" in err


def test_solve_json_mirror(workdir, capsys):
    rc = main(["solve", str(workdir / "demo_lp.txt"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["status"] == "optimal"
    assert payload["objective"] == pytest.approx(12.0)
    assert payload["values"]["x"] == pytest.approx(4.0)


def test_robustify_writes_reparseable_counterpart(workdir, capsys):
    out = workdir / "one_row_irc.txt"
    rc = main(["robustify", str(workdir / "one_row.txt"),
               str(workdir / "one_row.unc"), "--mode", "irc",
               "--eps", "0.1", "--delta", "0", "-o", str(out)])
    assert rc == 0
    reparsed = import_text(out.read_text())
    sol = solve(reparsed)
    assert sol.objective == pytest.approx(9.0 / 1.1, abs=1e-9)


def test_robustify_idempotent(workdir):
    out1, out2 = workdir / "a.txt", workdir / "b.txt"
    args = ["robustify", str(workdir / "one_row.txt"), str(workdir / "one_row.unc"),
            "--mode", "rc", "--eps", "0.1", "--kappa", "0.14"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_robustify_rc_cone_scale(workdir):
    out = workdir / "rc.txt"
    kappa = math.exp(-2.0)
    assert main(["robustify", str(workdir / "one_row.txt"),
                 str(workdir / "one_row.unc"), "--mode", "rc",
                 "--eps", "0.1", "--kappa", repr(kappa), "-o", str(out)]) == 0
    model = import_text(out.read_text())
    cone = model.constraint_by_label("cap__rc").cone
    assert cone.scale == pytest.approx(0.1 * 2.0, rel=1e-9)


@pytest.mark.parametrize("mode, constraints, aux", [("irc", 4, 1), ("rc", 6, 4)])
def test_robustify_json_counts(workdir, capsys, mode, constraints, aux):
    """A mixed-sign x gets an absolute-value auxiliary and two links in
    either counterpart; a nonnegative y gets them only in the rc one, which
    also splits each tagged variable with a free auxiliary."""
    (workdir / "two.txt").write_text(
        "#vars\nx continuous -inf inf\ny continuous 0 inf\n#obj\nmax 1*x + 1*y\n"
        "#cons\ncap: 1*x + 2*y <= 10\n")
    (workdir / "two.unc").write_text(
        "cap x(bounded 0.1)\ncap y(bounded)\ncap RHS(bounded)\n")
    assert main(["robustify", str(workdir / "two.txt"), str(workdir / "two.unc"),
                 "--mode", mode, "--json", "-o", str(workdir / "out.txt")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["constraints"], payload["aux_variables"]) == (constraints, aux)


def test_robustify_unknown_label_exit_one(workdir, capsys):
    (workdir / "bad.unc").write_text("nosuch x(bounded)\n")
    rc = main(["robustify", str(workdir / "one_row.txt"),
               str(workdir / "bad.unc"), "-o", str(workdir / "o.txt")])
    assert rc == 1
    assert "nosuch" in capsys.readouterr().err


def test_pipeline_consistency_matches_in_process(workdir):
    """robustify-to-file, reparse, solve == in-process robustify + solve."""
    from robustcounter.robustify import symmetric_robust_counterpart

    out = workdir / "rc.txt"
    assert main(["robustify", str(workdir / "one_row.txt"),
                 str(workdir / "one_row.unc"), "--mode", "rc",
                 "--eps", "0.1", "--delta", "0.05", "--kappa", "0.14",
                 "-o", str(out)]) == 0
    file_obj = solve(import_text(out.read_text())).objective
    model, uset = one_row_uncertain()
    memory_obj = solve(
        symmetric_robust_counterpart(model, uset, 0.1, 0.05, 0.14).model
    ).objective
    assert file_obj == pytest.approx(memory_obj, abs=1e-9)


def test_sitesel_nominal(workdir, capsys):
    rc = main(["sitesel", str(workdir / "hk_demo"), "--mode", "nominal"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "open sites" in out
    assert "budget used" in out


def test_sitesel_irc_infeasible_exit_two(workdir):
    rc = main(["sitesel", str(workdir / "hk_demo"), "--mode", "irc",
               "--eps", "0.6"])
    assert rc == 2


def test_sitesel_missing_file_exit_one(workdir, capsys):
    (workdir / "hk_demo" / "prob.csv").unlink()
    assert main(["sitesel", str(workdir / "hk_demo")]) == 1
    assert "prob.csv" in capsys.readouterr().err


@pytest.mark.parametrize("path, old, new, name", [
    ("config.txt", "budget=150.0", "budget=inf", "budget"),
    ("units.csv", "Harbour,120.0", "Harbour,nan", "'u1'"),
])
def test_sitesel_nonfinite_instance_data_exit_one(workdir, capsys, path, old, new, name):
    """budget=inf used to solve to 378 with every site open (the optimum is 261)."""
    target = workdir / "hk_demo" / path
    target.write_text(target.read_text().replace(old, new, 1))
    assert main(["sitesel", str(workdir / "hk_demo"), "--mode", "nominal"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def _run_under_ascii_locale(*args, cwd):
    """``python *args`` where the locale's encoding is ASCII."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale ``write_instance`` failed on a unit named
    Zürich, ``sitesel`` failed to decode its units.csv, and ``robustify``
    failed on non-ASCII comments in model and annotation text."""
    write = ("import dataclasses\n"
             "from robustcounter.fixtures import demo_instance\n"
             "from robustcounter.sitesel import write_instance\n"
             "inst = demo_instance()\n"
             "units = (dataclasses.replace(inst.units[0], name='Z\\u00fcrich'), *inst.units[1:])\n"
             "write_instance(dataclasses.replace(inst, units=units), 'zurich')\n")
    out = _run_under_ascii_locale("-c", write, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "u1,Zürich,120" in (tmp_path / "zurich" / "units.csv").read_text(encoding="utf-8")
    out = _run_under_ascii_locale("-m", "robustcounter.cli", "sitesel", "zurich", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "open sites" in out.stdout

    model, uset = one_row_uncertain()
    (tmp_path / "row.txt").write_text("// Zürich Spital\n" + export_text(model),
                                      encoding="utf-8")
    (tmp_path / "row.unc").write_text("# Maß für Zürich\n" + format_annotations(uset, model),
                                      encoding="utf-8")
    out = _run_under_ascii_locale("-m", "robustcounter.cli", "robustify", "row.txt",
                                  "row.unc", "-o", "irc.txt", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert import_text((tmp_path / "irc.txt").read_text(encoding="utf-8")).constraint_by_label(
        "cap__irc")


@pytest.mark.parametrize("path, old, new, message", [
    ("config.txt", "uncertain_fixed=all", "uncertain_fixd=s1",
     "config.txt:4: unknown setting 'uncertain_fixd'"),
    ("config.txt", "max_sites=3\n", "max_sites=3\nbudget=999\n",
     "config.txt:4: repeated setting 'budget'"),
    ("units.csv", "u2,Midtown", "u1,Midtown", "unit id 'u1' is repeated"),
    ("sites.csv", "s2,Central annex", "s1,Central annex", "site id 's1' is repeated"),
], ids=["misspelt-key", "repeated-key", "repeated-unit-id", "repeated-site-id"])
def test_sitesel_instance_data_that_would_change_meaning_exit_one(
        workdir, capsys, path, old, new, message):
    """A misspelt key was ignored and a repeated one kept its last value
    (both exited 0), a repeated unit id failed as a repeated prob.csv row
    and a repeated site id as a prob.csv header mismatch."""
    target = workdir / "hk_demo" / path
    target.write_text(target.read_text().replace(old, new, 1))
    assert main(["sitesel", str(workdir / "hk_demo"), "--mode", "nominal"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sitesel_json(workdir, capsys):
    rc = main(["sitesel", str(workdir / "hk_demo"), "--mode", "irc",
               "--eps", "0.05", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(payload) >= {"status", "objective", "open_sites", "budget_used"}


def test_sitesel_rc_json(workdir, capsys):
    rc = main(["sitesel", str(workdir / "hk_demo"), "--mode", "rc", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["objective"] == pytest.approx(159.0, rel=1e-9)
    assert payload["open_sites"] == ["s1", "s3"]


def test_grid_spec_parsing():
    grid = parse_grid_spec(["eps=0:0.05:0.1", "delta=0,0.1", "kappa=1"])
    eps_values = sorted({p[0] for p in grid})
    assert eps_values == [0.0, 0.05, 0.1]
    assert len(grid) == 6
    with pytest.raises(ValueError):
        parse_grid_spec([])
    with pytest.raises(ValueError):
        parse_grid_spec(["nonsense"])
    with pytest.raises(ValueError):
        parse_grid_spec(["gamma=1"])



@pytest.mark.parametrize("spec", ["eps=nan", "delta=0,inf", "eps=0:nan:1", "eps=nan:0.1:1"])
def test_grid_spec_rejects_nonfinite(spec):
    """``inf`` reads and fails the finiteness check; ``nan`` is no number of
    the grammar every file reader shares."""
    message = "eps: malformed number 'nan'" if "nan" in spec else "values must be finite"
    with pytest.raises(ValueError, match=message):
        parse_grid_spec([spec])


@pytest.mark.parametrize("spec", ["eps=0_1", "eps=\u0661", "eps=Infinity", "delta=0,1_0",
                                  "kappa=1:0_1:1", "eps=0:0.1:\u0661"])
def test_grid_spec_reads_ascii_numbers_only(spec):
    """Grid values are read like every number of model text; ``float`` read
    ``eps=0_1`` as 1.0 and ``eps=\u0661`` as 1.0."""
    with pytest.raises(ValueError, match=r"^(eps|delta|kappa): malformed number"):
        parse_grid_spec([spec])
    assert parse_grid_spec(["eps= 0.1 , 2e-1 "]) == [(0.1, 0.0, 1.0), (0.2, 0.0, 1.0)]


def test_sweep_model_file(workdir, capsys):
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "one_row.txt"), "eps=0,0.05,0.1",
               "--annotations", str(workdir / "one_row.unc"),
               "--mode", "irc", "-o", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    # the grid already contains the nominal point (eps=0, defaults 0/1)
    assert len(rows) == 3
    assert (float(rows[0]["epsilon"]), float(rows[0]["kappa"])) == (0.0, 1.0)
    objs = [float(r["objective"]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))


def test_sweep_infeasible_cell_flagged_not_fatal(workdir):
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "hk_demo"), "eps=0,0.6", "--mode", "irc",
               "-o", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    statuses = {float(r["epsilon"]): r["status"] for r in rows}
    assert statuses[0.6] == "infeasible"
    assert statuses[0.0] == "optimal"


def test_sweep_bad_grid_exit_one(workdir, capsys):
    out = workdir / "s.csv"
    for grid, message in [
        (["eps=oops"], "eps: malformed number 'oops'"),
        (["eps=-0.1,0.05", "kappa=0,0.14"], "eps: values must be nonnegative"),
        (["eps=-0.1:0.05:0.1"], "eps: values must be nonnegative"),
        (["delta=0,-0.01"], "delta: values must be nonnegative"),
        (["delta=nan"], "delta: malformed number 'nan'"),
        (["eps=inf"], "eps: values must be finite"),
        (["kappa=0,0.14"], "kappa: values must lie in (0, 1]"),
        (["kappa=0.5,1.5"], "kappa: values must lie in (0, 1]"),
        (["kappa=-0.5"], "kappa: values must lie in (0, 1]"),
        (["eps=0:1e-5:1"], "eps: range '0:1e-5:1' has more than 10000 values"),
        (["eps=0:1e-12:1"], "eps: range '0:1e-12:1' has more than 10000 values"),
        (["eps=0:0.01:1", "delta=0:0.01:1"], "grid has more than 10000 cells"),
        (["eps= "], "empty value list for eps"),
        (["eps=0:1"], "eps: range must be start:step:stop, got '0:1'"),
        (["eps=0:0:1"], "eps: range step must be positive"),
        (["eps=0:-0.1:1"], "eps: range step must be positive"),
    ]:
        assert main(["sweep", str(workdir / "hk_demo"), *grid, "-o", str(out)]) == 1, grid
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (grid, err)
        assert not out.exists(), grid


def test_sweep_json_reports_the_csv(workdir, capsys):
    out = workdir / "s.csv"
    assert main(["sweep", str(workdir / "hk_demo"), "eps=0,0.05", "--mode", "irc",
                 "-o", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"output": str(out), "rows": 2, "nominal_objective": 261.0}
    assert len(list(csv.DictReader(out.open()))) == 2


def test_model_file_sweep_without_annotations_exit_one(workdir, capsys):
    out = workdir / "s.csv"
    assert main(["sweep", str(workdir / "one_row.txt"), "eps=0.1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: model-file sweeps need --annotations\n"
    assert not out.exists()


def test_validate_of_a_model_without_an_optimum_exit_one(tmp_path, capsys):
    (tmp_path / "m.txt").write_text(
        "#vars\nx continuous 0 10\n#obj\nmax 1*x\n#cons\ncap: 1*x <= -1\n")
    (tmp_path / "m.unc").write_text("cap x(bounded)\n")
    assert main(["validate", str(tmp_path / "m.txt"), str(tmp_path / "m.unc")]) == 1
    assert capsys.readouterr().err == (
        "error: model solve ended infeasible; supply --solution\n")


def test_validate_corner_certified(workdir, tmp_path, capsys):
    sol_path = workdir / "sol.json"
    irc_path = workdir / "irc.txt"
    assert main(["robustify", str(workdir / "one_row.txt"),
                 str(workdir / "one_row.unc"), "--mode", "irc",
                 "--eps", "0.1", "-o", str(irc_path)]) == 0
    capsys.readouterr()  # discard the robustify report
    assert main(["solve", str(irc_path), "--json"]) == 0
    sol_path.write_text(capsys.readouterr().out)
    rc = main(["validate", str(workdir / "one_row.txt"),
               str(workdir / "one_row.unc"), "--solution", str(sol_path),
               "--eps", "0.1"])
    assert rc == 0


def test_validate_nominal_not_certified(workdir, capsys):
    # without --solution the model's own optimum is validated
    rc = main(["validate", str(workdir / "one_row.txt"),
               str(workdir / "one_row.unc"), "--eps", "0.1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "certified: no" in out


def test_validate_mc_reports_frequency(workdir, capsys):
    rc = main(["validate", str(workdir / "one_row.txt"),
               str(workdir / "one_row.unc"), "--eps", "0.1", "--mc", "5000",
               "--seed", "42", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["samples"] == 5000
    assert 0.0 <= payload["frequency"] <= 1.0


def test_validate_mc_json_reports_rows_by_label(workdir, capsys):
    rc = main(["validate", str(workdir / "one_row.txt"),
               str(workdir / "one_row.unc"), "--eps", "0.1", "--mc", "5000",
               "--seed", "42", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert list(payload["per_constraint"]) == ["cap"]
    assert payload["per_constraint"]["cap"] == payload["frequency"] > 0.0


@pytest.mark.parametrize("text, message", [
    pytest.param(f'{{"values": {{"x": {bad}}}}}', "solution value of x is", id=bad)
    for bad in ("NaN", "Infinity", "-Infinity")
] + [
    pytest.param("3", "solution file must hold a JSON object", id="number"),
    pytest.param("[]", "solution file must hold a JSON object", id="list"),
    pytest.param('{"values": 3}', "solution values must be a JSON object", id="values-number"),
    pytest.param('{"values": {"x": null}}', "solution value of x must be a number",
                 id="null"),
    pytest.param('{"values": {"x": true}}', "solution value of x must be a number",
                 id="bool"),
    pytest.param('{"values": {"x": "1.5"}}', "solution value of x must be a number",
                 id="string"),
    pytest.param('{"x": [1.5]}', "solution value of x must be a number", id="bare-list"),
    pytest.param('{"x": 1%s}' % ("0" * 400), "solution value of x is too large",
                 id="huge-int"),
    pytest.param('{"values": {"y": 1.5}}', "solution file lacks a value for 'x'",
                 id="missing"),
])
@pytest.mark.parametrize("mc", [[], ["--mc", "2000"]], ids=["corner", "mc"])
def test_validate_nonfinite_solution_exit_one(workdir, capsys, text, message, mc):
    sol_path = workdir / "sol.json"
    sol_path.write_text(text)
    assert _validate_mc(workdir, "--solution", str(sol_path), *mc) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_validate_mc_seed_defaults_to_zero(workdir, capsys):
    rc = main(["validate", str(workdir / "one_row.txt"),
               str(workdir / "one_row.unc"), "--eps", "0.1", "--mc", "2000",
               "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["seed"] == 0


def _validate_mc(workdir, *extra):
    return main(["validate", str(workdir / "one_row.txt"),
                 str(workdir / "one_row.unc"), "--eps", "0.1", *extra])


@pytest.mark.parametrize("annotation, message", [
    ("cap x(normal 1 2 3)", "annotation line 1: normal takes 2 arguments, got 3"),
    ("cap x(bounded 0.1 junk)", "annotation line 1: bounded takes 0 or 1 arguments"),
    ("cap RHS(binomial 100000000000000000000000 0.5)",
     "annotation line 1: malformed binomial arguments"),
    ("cap x(poisson 1e19)", "annotation line 1: malformed poisson arguments"),
    ("cap x(range -1e308 1e308)", "annotation line 1: malformed range arguments"),
    ("cap", "annotation line 1: expected 'label target(dist ...)'"),
    ("cap x bounded", "annotation line 1: expected 'target(dist args)'"),
    ("cap x( )", "annotation line 1: empty distribution"),
])
def test_validate_mc_bad_annotation_exit_one(workdir, capsys, annotation, message):
    (workdir / "one_row.unc").write_text(annotation + "\n")
    assert _validate_mc(workdir, "--mc", "2000") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_sitesel_non_ascii_unit_id_exit_one(workdir, capsys):
    for name in ("units.csv", "prob.csv"):
        path = workdir / "hk_demo" / name
        path.write_text(path.read_text().replace("u1,", "\u00fc1,"))
    assert main(["sitesel", str(workdir / "hk_demo")]) == 1
    err = capsys.readouterr().err
    assert err == "error: unit id '\u00fc1' is not an ASCII identifier\n", err


def test_validate_mc_too_few_samples_exit_one(workdir, capsys):
    assert _validate_mc(workdir, "--mc", "10") == 1
    assert "error: need at least 1000 samples" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 1)])
def test_validate_seed_outside_64_bits_exit_one(workdir, capsys, seed):
    assert _validate_mc(workdir, "--mc", "2000", "--seed", seed) == 1
    assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("extra, name", [
    (["--mc", "2000", "--eps", "-0.5"], "epsilon"),
    (["--mc", "2000", "--delta", "-0.1"], "delta"),
    (["--delta", "-0.1"], "delta"),
])
def test_validate_negative_levels_exit_one(workdir, capsys, extra, name):
    assert _validate_mc(workdir, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be") and "nonnegative" in err


def test_usage_error_exit_one():
    assert main(["frobnicate"]) == 1


def test_sweep_parallel_matches_serial(workdir):
    args = ["sweep", str(workdir / "hk_demo"), "eps=0,0.05", "kappa=1,0.5",
            "--mode", "rc"]
    assert main(args + ["-o", str(workdir / "s1.csv")]) == 0
    assert main(args + ["--jobs", "2", "-o", str(workdir / "s2.csv")]) == 0
    assert (workdir / "s1.csv").read_text() == (workdir / "s2.csv").read_text()


@pytest.mark.parametrize("jobs, cpus, workers", [
    ("100000", 8, [2]), ("100000", 2, [2]), ("2", 8, [2]), ("4", 1, []),
])
def test_sweep_starts_no_more_workers_than_cells_or_cpus(workdir, monkeypatch,
                                                         jobs, cpus, workers):
    """A pool forks all its workers on the first submit, so ``--jobs`` is
    capped by the cells after the nominal one, which the calling process
    solves, and by the CPUs; one worker runs serially."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    out = workdir / "sweep.csv"
    assert main(["sweep", str(workdir / "one_row.txt"), "eps=0,0.05,0.1",
                 "--annotations", str(workdir / "one_row.unc"), "--mode", "irc",
                 "--jobs", jobs, "-o", str(out)]) == 0
    assert started == workers
    assert len(list(csv.DictReader(out.open()))) == 3


def test_validate_reads_a_bare_object_with_a_variable_named_values(tmp_path, capsys):
    """Only a JSON object under ``values`` is a wrapped solution; a number
    there is the value of a variable named ``values``."""
    m = Model()
    a = m.add_variable("values")
    b = m.add_variable("y")
    m.set_objective("max", [(a, 1.0), (b, 1.0)])
    m.add_constraint([(a, 1.0), (b, 2.0)], "<=", 10.0, label="cap")
    m.finalize()
    (tmp_path / "m.txt").write_text(export_text(m))
    (tmp_path / "m.unc").write_text("cap values(bounded)\ncap RHS(bounded)\n")
    (tmp_path / "sol.json").write_text('{"values": 1.0, "y": 0.5}')
    rc = main(["validate", str(tmp_path / "m.txt"), str(tmp_path / "m.unc"),
               "--solution", str(tmp_path / "sol.json"), "--eps", "0.1", "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert json.loads(captured.out)["certified"] is True


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_validate_reports_entries_past_the_int_digit_limit(tmp_path, capsys, as_json):
    """2**14300 has more digits than ``str(int)`` converts, so the report
    carries the entry count k, not the 2**k corners it covers."""
    n = 14_300
    m = Model()
    xs = [m.add_variable(f"x{i}") for i in range(n)]
    m.set_objective("max", [(x, 1.0) for x in xs])
    m.add_constraint([(x, 1.0) for x in xs], "<=", float(n), label="cap")
    m.finalize()
    (tmp_path / "m.txt").write_text(export_text(m))
    (tmp_path / "m.unc").write_text("".join(f"cap x{i}(bounded)\n" for i in range(n)))
    (tmp_path / "sol.json").write_text(json.dumps({f"x{i}": 0.5 for i in range(n)}))
    rc = main(["validate", str(tmp_path / "m.txt"), str(tmp_path / "m.unc"),
               "--solution", str(tmp_path / "sol.json"), "--eps", "0.1",
               *(["--json"] if as_json else [])])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    if as_json:
        payload = json.loads(captured.out)
        assert payload["entries"] == n and payload["certified"] is True
    else:
        assert f"uncertain entries: {n}" in captured.out
        assert "certified: yes" in captured.out


def test_solve_node_limit_exit_four(workdir):
    write_instance(demo_instance(), workdir / "big")
    from robustcounter.model import export_text
    from robustcounter.sitesel import build_rc, load_instance

    model = build_rc(load_instance(workdir / "big"), 0.05, 0.0, 0.14)
    (workdir / "big_rc.txt").write_text(export_text(model))
    assert main(["solve", str(workdir / "big_rc.txt"), "--max-nodes", "1"]) == 4


def test_solve_lp_node_limit_exit_four(workdir):
    """An LP is the root node of the tree, so a node limit of 0 stops it."""
    assert main(["solve", str(workdir / "demo_lp.txt"), "--max-nodes", "0"]) == 4
    assert main(["solve", str(workdir / "demo_lp.txt"), "--max-nodes", "1"]) == 0


@pytest.mark.parametrize("mode", ["nominal", "irc", "rc"])
def test_sitesel_json_reports_solver_stats(workdir, capsys, mode):
    """``sitesel --json`` carries every field of the solve's ``SolverStats``
    as ``solve --json`` does, ``cone_violation`` null without cone rows."""
    rc = main(["sitesel", str(workdir / "hk_demo"), "--mode", mode, "--json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert rc == 0
    model = _counterpart(demo_instance(), mode, False, 0.05, 0.0, 0.14)
    (workdir / "model.txt").write_text(export_text(model))
    assert main(["solve", str(workdir / "model.txt"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"] == stats
    assert stats == dataclasses.asdict(solve(model).stats)
    assert stats["nodes"] > 1 and (stats["cone_cuts"] > 0) == (mode == "rc")
    assert (stats["cone_violation"] is None) == (mode != "rc")


def test_zero_limits_are_honoured():
    opts = _solver_options(argparse.Namespace(max_nodes=0, time_limit=0.0))
    assert (opts.max_nodes, opts.time_limit_seconds) == (0, 0.0)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_cells_get_solver_options(workdir, jobs):
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "hk_demo"), "eps=0,0.05,0.1", "--mode", "irc",
               "--max-nodes", "0", "--jobs", jobs, "-o", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["status"] for r in rows] == ["limit_reached"] * 3


# -- rejected input and unwritable output ----------------------------------------


def _robustify(workdir, *extra, out=None):
    return main(["robustify", str(workdir / "one_row.txt"), str(workdir / "one_row.unc"),
                 "-o", str(out or workdir / "out.txt"), *extra])


def _sweep(workdir, *extra, out=None):
    return main(["sweep", str(workdir / "hk_demo"), "eps=0,0.05", "--mode", "irc",
                 "-o", str(out or workdir / "sweep.csv"), *extra])


@pytest.mark.parametrize("run", [_robustify, _sweep], ids=["robustify", "sweep"])
def test_unwritable_output_exit_one(workdir, capsys, run):
    assert run(workdir, out=workdir / "no_such_dir" / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no_such_dir" in err


@pytest.mark.parametrize("argv", [
    ["sitesel", "{hk}", "--mode", "irc", "--eps", "nan"],
    ["sitesel", "{hk}", "--mode", "rc", "--eps", "nan"],
    ["sitesel", "{hk}", "--mode", "irc", "--delta", "nan"],
    ["sitesel", "{hk}", "--mode", "rc", "--delta", "inf"],
    ["validate", "{model}", "{unc}", "--eps", "nan"],
    ["validate", "{model}", "{unc}", "--eps", "inf"],
    ["robustify", "{model}", "{unc}", "--eps", "inf", "-o", "{out}"],
    ["robustify", "{model}", "{unc}", "--mode", "rc", "--delta", "nan", "-o", "{out}"],
    ["sweep", "{hk}", "eps=nan", "-o", "{out}"],
    ["sweep", "{hk}", "eps=0", "delta=inf", "-o", "{out}"],
    ["solve", "{lp}", "--time-limit", "nan"],
    ["solve", "{lp}", "--time-limit", "-1"],
    ["solve", "{lp}", "--max-nodes", "-1"],
    ["sitesel", "{hk}", "--max-nodes", "-3"],
    ["sweep", "{hk}", "eps=0", "--jobs", "0", "-o", "{out}"],
], ids=["sitesel-irc-eps", "sitesel-rc-eps", "sitesel-irc-delta", "sitesel-rc-delta",
        "validate-eps-nan", "validate-eps-inf", "robustify-eps", "robustify-delta",
        "sweep-eps", "sweep-delta", "time-limit-nan", "time-limit-negative",
        "max-nodes", "sitesel-max-nodes", "jobs"])
def test_unusable_numbers_exit_one(workdir, capsys, argv):
    paths = {"hk": workdir / "hk_demo", "model": workdir / "one_row.txt",
             "unc": workdir / "one_row.unc", "lp": workdir / "demo_lp.txt",
             "out": workdir / "out"}
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("option, argv", [
    ("--eps", ["sitesel", "{hk}", "--mode", "irc", "--eps", "0_05"]),
    ("--kappa", ["sitesel", "{hk}", "--mode", "rc", "--kappa", "0_14"]),
    ("--delta", ["robustify", "{model}", "{unc}", "--delta", "\u0660", "-o", "{out}"]),
    ("--time-limit", ["solve", "{lp}", "--time-limit", "1_0"]),
    ("--max-nodes", ["solve", "{lp}", "--max-nodes", "1.0"]),
    ("--jobs", ["sweep", "{hk}", "eps=0", "--jobs", "\u0662", "-o", "{out}"]),
    ("--mc", ["validate", "{model}", "{unc}", "--mc", "2_000"]),
    ("--seed", ["validate", "{model}", "{unc}", "--mc", "2000", "--seed", "1_0"]),
    ("--eps", ["validate", "{model}", "{unc}", "--eps", "\u0661"]),
], ids=["eps", "kappa", "delta", "time-limit", "max-nodes", "jobs", "mc", "seed",
        "validate-eps"])
def test_numbers_outside_the_file_grammar_exit_one(workdir, capsys, option, argv):
    """Every number on the command line is read like the numbers of model
    text, counts as integers, and a rejection is one ``error:`` line naming
    the option.  ``float`` and ``int`` read ``0_05`` as 5.0, ``1_0`` as 10
    and Arabic-Indic digits as their values."""
    paths = {"hk": workdir / "hk_demo", "model": workdir / "one_row.txt",
             "unc": workdir / "one_row.unc", "lp": workdir / "demo_lp.txt",
             "out": workdir / "out"}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: malformed number ") and err.count("\n") == 1
    assert not (workdir / "out").exists()


def _rejected_row(tmp_path):
    """A model whose one tagged row is ``>=``, which no counterpart takes."""
    (tmp_path / "m.txt").write_text(
        "#vars\nx continuous 0 10\n#obj\nmax 1*x\n#cons\ncap: 1*x >= 1\n")
    (tmp_path / "m.unc").write_text("cap x(bounded)\n")
    return str(tmp_path / "m.txt"), str(tmp_path / "m.unc")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_of_an_input_the_builder_rejects_exits_one(tmp_path, capsys, jobs):
    """The nominal cell is built and solved outside the per-cell guard, so a
    sweep fails as robustify does on the same files, where it wrote two
    ``error`` rows and exited 0."""
    model, unc = _rejected_row(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sweep", model, "eps=0,0.1", "--annotations", unc, "--mode", "irc",
                 "--jobs", jobs, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert main(["robustify", model, unc, "--mode", "irc", "-o", str(tmp_path / "r.txt")]) == 1
    assert err == capsys.readouterr().err == (
        "error: uncertain constraint 'cap' has sense '>='; normalize to <= before "
        "robustifying\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["{hk}", "eps=0.1", "--annotations", "{unc}"], "--annotations: {hk} is an instance"),
    (["{hk}", "eps=0.1", "--annotations", "/nonexistent"], "--annotations: {hk} is an"),
    (["{model}", "eps=0.1", "--annotations", "{unc}", "--exact-assignment"],
     "--exact-assignment: {model} is a model file"),
    (["{hk}", "eps=0.1", "eps=0.2"], "grid axis 'eps' is given twice, again in 'eps=0.2'"),
    (["{hk}", "epsilon=0.1", "eps=0.3"], "grid axis 'eps' is given twice, again in 'eps=0.3'"),
    (["{hk}", "eps=0.1", "kappa=1,0.5,0.14", "--mode", "irc"],
     "kappa: --mode irc never reads kappa, got [1.0, 0.5, 0.14]"),
    (["{hk}", "eps=0.1", "kappa=0.5", "--mode", "irc"],
     "kappa: --mode irc never reads kappa, got [0.5]"),
], ids=["annotations-with-instance", "missing-annotations-with-instance",
        "exact-assignment-with-model", "repeated-axis", "repeated-axis-alias", "irc-kappa",
        "irc-one-kappa"])
def test_sweep_rejects_inputs_it_never_reads(workdir, capsys, argv, message):
    """Each of these sweeps exited 0: an input an instance or a model file
    never reads was dropped, a repeated axis kept only its last values, and
    an irc sweep solved one identical cell per kappa."""
    paths = {"hk": workdir / "hk_demo", "model": workdir / "one_row.txt",
             "unc": workdir / "one_row.unc"}
    out = workdir / "s.csv"
    assert main(["sweep", *(a.format(**paths) for a in argv), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(**paths)) and err.count("\n") == 1, err
    assert not out.exists()
    assert main(["sweep", str(workdir / "hk_demo"), "eps=0.1", "kappa=1", "--mode", "irc",
                 "-o", str(out)]) == 0


@pytest.mark.parametrize("argv, option", [
    (["sitesel", "{hk}", "--mode", "irc", "--kappa", "0.5"], "--kappa"),
    (["sitesel", "{hk}", "--mode", "nominal", "--eps", "0.3", "--delta", "0.2"], "--eps"),
    (["robustify", "{model}", "{unc}", "--mode", "irc", "--kappa", "0.5", "-o", "{out}"],
     "--kappa"),
    (["validate", "{model}", "{unc}", "--solution", "{sol}", "--eps", "0.1", "--seed", "7"],
     "--seed"),
    (["validate", "{model}", "{unc}", "--solution", "{sol}", "--eps", "0.1",
      "--max-nodes", "3", "--time-limit", "1"], "--max-nodes"),
], ids=["sitesel-irc-kappa", "sitesel-nominal-levels", "robustify-irc-kappa",
        "validate-corner-seed", "validate-solution-limits"])
def test_options_a_command_never_reads_exit_one(workdir, capsys, argv, option):
    """Each of these exited 0 with the option dropped: irc reads no kappa,
    nominal no level, the corner check no seed and a given solution is not
    solved."""
    assert main(["solve", str(workdir / "one_row.txt"), "--json"]) == 0
    (workdir / "sol.json").write_text(capsys.readouterr().out)
    paths = {"hk": workdir / "hk_demo", "model": workdir / "one_row.txt",
             "unc": workdir / "one_row.unc", "sol": workdir / "sol.json",
             "out": workdir / "out"}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sitesel", "{hk}", "--mode", "rc", "--eps", "0.05", "--kappa", "0.14"],
    ["sitesel", "{hk}", "--mode", "irc", "--eps", "0.05", "--delta", "0"],
    ["validate", "{model}", "{unc}", "--solution", "{sol}", "--mc", "2000", "--seed", "7"],
    ["validate", "{model}", "{unc}", "--eps", "0.1", "--max-nodes", "3", "--mc", "2000"],
], ids=["sitesel-rc", "sitesel-irc", "validate-mc", "validate-solve"])
def test_options_a_command_reads_are_accepted(workdir, capsys, argv):
    assert main(["solve", str(workdir / "one_row.txt"), "--json"]) == 0
    (workdir / "sol.json").write_text(capsys.readouterr().out)
    paths = {"hk": workdir / "hk_demo", "model": workdir / "one_row.txt",
             "unc": workdir / "one_row.unc", "sol": workdir / "sol.json"}
    assert main([a.format(**paths) for a in argv]) == 0, capsys.readouterr().err
