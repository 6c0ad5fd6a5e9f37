"""Command-line front end.

Runs main() in process and checks stdout/stderr, exit codes and written
files; one subprocess smoke test covers the installed entry point.
"""

import math
import os
import subprocess
import sys

import pytest

from geostab import cli
from geostab.experiments import (DEFAULT_EPSILONS, EXAMPLES, SweepRow,
                                 _analytic_s2, get_example, theory_bound)
from geostab.manifolds import SPHERE2

from oracles import rows_from_csv


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_euclid(capsys):
    code, out, _ = run_cli(["bound", "--example", "euclid",
                            "--alpha", "0.75"], capsys)
    assert code == 0
    assert "rule      euclidean" in out
    assert "h_max     1.5" in out


def test_bound_family_prints_constants_and_step(capsys):
    code, out, _ = run_cli(["bound", "--example", "s2", "--epsilon", "1",
                            "--point", "0.9"], capsys)
    assert code == 0
    want = theory_bound("s2", 1.0, SPHERE2.point((0.9, 0.0)))
    assert f"h_max       {want.h_max:.17g}" in out
    assert "rule        positive" in out
    for label in ("alpha", "mu_plus", "sup_norm", "kappa_at_h", "binding"):
        assert label in out


def test_bound_prints_the_constants_its_rule_used(capsys):
    """The printed constants are the cross-checked closed forms the rule
    took, not the numeric ones, which differ in the last digits."""
    code, out, _ = run_cli(["bound", "--example", "s2"], capsys)
    assert code == 0
    family = get_example("s2")
    coords = family.to_coords(*family.default_base)
    alpha = _analytic_s2(1.0, coords)["alpha"]
    assert f"alpha       {alpha:.17g}\n" in out


def test_bound_singular_is_unconditional(capsys):
    code, out, _ = run_cli(["bound", "--example", "h2-singular"], capsys)
    assert code == 0
    assert "h_max       unconditional (inf)" in out
    assert "alpha       1\n" in out
    assert "sigma       1\n" in out


def test_bound_euclid_requires_alpha(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bound", "--example", "euclid"])
    assert info.value.code == 2


def test_bound_unknown_example_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bound", "--example", "torus"])
    assert info.value.code == 2


def test_bound_bad_point_is_runtime_error(capsys):
    code, _, err = run_cli(["bound", "--example", "h2", "--point", "-1"],
                           capsys)
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_prints_numeric_step(capsys):
    code, out, _ = run_cli(["search", "--example", "s2", "--point", "0.9",
                            "--tol-h", "1e-4"], capsys)
    assert code == 0
    value = float(out.split()[-1])
    assert 0.0 < value < 10.0


def test_search_singular_is_unconditional(capsys):
    code, out, _ = run_cli(["search", "--example", "h2-singular"], capsys)
    assert code == 0
    assert "h_numeric   unconditional (inf)" in out


def test_direction_count_flag_is_gone(capsys):
    """The worst direction is exact, so no direction count is taken."""
    for command in ("search", "figure"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--example", "s2", "--n-dirs", "64"])
        assert info.value.code == 2


def test_search_rejects_nonpositive_tolerance(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["search", "--example", "s2", "--tol-h", "0"])
    assert info.value.code == 2


def usage_error(argv, capsys):
    """The exit status and stderr of an invocation argparse rejects."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code, capsys.readouterr().err


@pytest.mark.parametrize("h_hi", ["0", "1e-6", "-1", "nan", "inf"])
def test_search_rejects_an_empty_or_unbounded_bracket(h_hi, capsys):
    """h_hi at or below h_lo = 1e-6 leaves nothing to show stable; it
    was reported as unconditional.  nan gave a number, inf no end."""
    code, err = usage_error(["search", "--example", "s2", "--h-hi", h_hi],
                            capsys)
    assert code == 2
    assert "--h-hi" in err


@pytest.mark.parametrize("command", ["search", "figure"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_nonfinite_tolerance_is_usage_error(command, tol, capsys):
    code, err = usage_error([command, "--example", "s2", "--tol-h", tol],
                            capsys)
    assert code == 2
    assert "tolerances" in err


@pytest.mark.parametrize("command", ["bound", "search", "figure"])
@pytest.mark.parametrize("eps", ["nan", "inf", "1,-inf"])
def test_nonfinite_epsilon_is_usage_error(command, eps, capsys):
    """These ended in a LinAlgError traceback."""
    code, err = usage_error([command, "--example", "s2", "--epsilon", eps],
                            capsys)
    assert code == 2
    assert "--epsilon" in err


@pytest.mark.parametrize("command", ["bound", "search"])
def test_one_point_commands_take_one_epsilon(command, capsys):
    """bound and search read only the first value of a list and dropped
    the rest, exiting 0."""
    code, err = usage_error([command, "--example", "s2", "--epsilon",
                             "0.5,2"], capsys)
    assert code == 2
    assert "--epsilon" in err and "one finite number" in err


@pytest.mark.parametrize("command", ["bound", "search"])
@pytest.mark.parametrize("name", sorted(
    name for name, family in EXAMPLES.items()
    if family.default_base[1] is None))
def test_base2_on_a_one_parameter_family_is_usage_error(command, name,
                                                        capsys):
    """base2 was dropped without a word on s2, h2 and h2-singular: h2 at
    --point 1,2 certified (0, 1) and exited 0."""
    code, err = usage_error([command, "--example", name, "--point", "1,2"],
                            capsys)
    assert code == 2
    assert "--point" in err and name in err


def test_base2_is_read_where_the_family_takes_one(capsys):
    code, out, _ = run_cli(["bound", "--example", "s3", "--point",
                            "0.5,1.2"], capsys)
    assert code == 0
    assert f"point       {0.5:.17g},{1.2:.17g},0\n" in out


@pytest.mark.parametrize("argv", [
    ["bound", "--example", "s2", "--point", "nan"],
    ["bound", "--example", "h2", "--point", "inf"],
    ["search", "--example", "s2", "--point", "0.9,nan"],
    ["search", "--example", "s3", "--point", "0.9,inf"],
    ["figure", "--example", "s2", "--grid", "nan:1:3"],
    ["figure", "--example", "h2", "--grid", "1:inf:3"],
])
def test_nonfinite_point_or_grid_is_usage_error(argv, capsys):
    """A non-finite --point or --grid bound exited 1 after the chart
    rejected it, or 0 when the family ignored that coordinate."""
    code, err = usage_error(argv, capsys)
    assert code == 2
    assert argv[-2] in err


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_bound_euclid_rejects_nonfinite_alpha(alpha, capsys):
    code, err = usage_error(["bound", "--example", "euclid",
                             "--alpha", alpha], capsys)
    assert code == 2
    assert "--alpha" in err


@pytest.mark.parametrize("flag, value", [("--point", "5,7"),
                                         ("--epsilon", "3")])
def test_bound_euclid_rejects_flags_the_flat_rule_ignores(flag, value,
                                                          capsys):
    """The flat rule reads only --alpha; --point 5,7 --epsilon 3 printed
    h_max 2 and exited 0."""
    code, err = usage_error(["bound", "--example", "euclid", "--alpha", "1",
                             flag, value], capsys)
    assert code == 2
    assert f"argument {flag}" in err and "euclid" in err


@pytest.mark.parametrize("name", ["s2", "h2", "s3", "h2-singular"])
def test_bound_rejects_alpha_outside_euclid(name, capsys):
    """Only the euclid flat rule reads --alpha; `bound --example s2
    --alpha 3` printed the s2 certificate and exited 0."""
    code, err = usage_error(["bound", "--example", name, "--alpha", "3"],
                            capsys)
    assert code == 2
    assert "argument --alpha" in err and "euclid" in err


@pytest.mark.parametrize("argv", [
    ["bound", "--example", "h2", "--point", "1,2"],
    ["search", "--example", "s2", "--point", "1,2"],
    ["bound", "--example", "euclid"],
    ["bound", "--example", "euclid", "--alpha", "1", "--point", "5"],
    ["bound", "--example", "s2", "--alpha", "3"],
    ["bound", "--example", "h2", "--alpha", "3"],
    ["bound", "--example", "s3", "--alpha", "3"],
    ["bound", "--example", "h2-singular", "--alpha", "3"],
    ["bound", "--example", "s2", "--alpha", "nan"],
])
def test_flag_clashes_print_the_command_usage(argv, capsys):
    """Clashes found after parsing printed the top-level usage line
    `usage: geostab [-h] {bound,search,figure,validate} ...`; --alpha on
    a family other than euclid was dropped, and the run exited 0."""
    code, err = usage_error(argv, capsys)
    assert code == 2
    assert err.splitlines()[0].startswith(f"usage: geostab {argv[0]} [-h]")


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def figure_args(out_path):
    return ["figure", "--example", "s2", "--epsilon", "1",
            "--grid", "0.8:1.2:3", "--tol-h", "1e-4",
            "--out", str(out_path)]


def test_figure_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "s2.csv"
    code, out, _ = run_cli(figure_args(out_path), capsys)
    assert code == 0
    assert f"wrote {out_path} (3 rows)" in out
    rows = rows_from_csv(out_path.read_text())
    assert [r.base1 for r in rows] == [0.8, 1.0, 1.2]
    assert all(r.h_theory <= r.h_numeric + 1e-9 for r in rows)


def test_figure_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(figure_args(a), capsys)[0] == 0
    assert run_cli(figure_args(b), capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["figure", "--example", "h2", "--epsilon", "1",
                            "--grid", "1:2:2", "--tol-h", "1e-4"],
                           capsys)
    assert code == 0
    assert (tmp_path / "h2.csv").exists()


def test_figure_into_a_missing_directory_is_runtime_error(tmp_path, capsys):
    """Writing the CSV raised FileNotFoundError after the whole table."""
    code, _, err = run_cli(figure_args(tmp_path / "missing" / "s2.csv"),
                           capsys)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_figure_soundness_violation_fails(tmp_path, capsys, monkeypatch):
    bad = SweepRow(example="s2", epsilon=1.0, base1=0.9, base2=None,
                   h_numeric=1.0, h_theory=2.0, kappa_at_h=1.0,
                   binding="curvature")
    monkeypatch.setattr(cli, "figure_sweep", lambda *a, **k: [bad])
    code, _, err = run_cli(figure_args(tmp_path / "x.csv"), capsys)
    assert code == 1
    assert "soundness violation" in err
    assert not (tmp_path / "x.csv").exists()


def test_figure_malformed_grid(capsys):
    for bad in ("0.8:1.2", "0.8:1.2:0", "abc"):
        with pytest.raises(SystemExit) as info:
            cli.main(["figure", "--example", "s2", "--grid", bad])
        assert info.value.code == 2


def test_empty_epsilon_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["figure", "--example", "s2", "--epsilon", ","])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_single_example_passes(capsys):
    code, out, _ = run_cli(["validate", "--example", "s2",
                            "--cases", "5"], capsys)
    assert code == 0
    assert "s2: max deviation" in out
    assert "pass" in out and "FAIL" not in out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_validate_rejects_fewer_than_one_case(cases, capsys):
    code, err = usage_error(["validate", "--example", "s2", "--cases",
                             cases], capsys)
    assert code == 2
    assert "--cases" in err


def test_validate_rejects_a_negative_seed(capsys):
    code, err = usage_error(["validate", "--example", "s2", "--seed", "-1"],
                            capsys)
    assert code == 2
    assert "--seed" in err


def test_validate_reports_failure(capsys, monkeypatch):
    from geostab.experiments import ValidationResult

    def fake(name, n_cases=200, seed=0):
        return ValidationResult(example=name, n_cases=n_cases, seed=seed,
                                max_error=1.0, rms_error=1.0, elapsed=0.0)

    monkeypatch.setattr(cli, "jacobi_validation", fake)
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 1
    assert out.count("FAIL") == 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["bound", "--example", "s2"],
    ["search", "--example", "h2"],
    ["figure", "--example", "s3"],
    ["validate", "--example", "s2"],
    ["validate"],
])
def test_bare_flags_give_the_runconfig_defaults(argv, monkeypatch):
    """The parser sets only the flags given; every other field keeps its
    RunConfig default, and figure defaults to DEFAULT_EPSILONS."""
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    cli.main(argv)
    want = dict(command=argv[0], example=argv[2] if argv[2:] else None)
    if argv[0] == "figure":
        want["epsilons"] = DEFAULT_EPSILONS
    assert seen == [cli.RunConfig(**want)]


def test_console_script_smoke():
    # the child imports the same geostab as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from geostab.cli import main; "
         "sys.exit(main(['bound', '--example', 'euclid', '--alpha', '1']))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "h_max     2" in proc.stdout
