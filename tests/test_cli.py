"""CLI surface: suites, report schema, determinism, exit codes."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from qpquant import cli


def subprocess_env(env_extra=None):
    env = dict(os.environ)
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    # the subprocess imports the same qpquant as these tests, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, env_extra=None):
    return subprocess.run([sys.executable, "-m", "qpquant.cli", *args],
                          capture_output=True, text=True, env=subprocess_env(env_extra))


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env())


def test_import_loads_no_scipy():
    res = run_python("import sys, qpquant.cli; "
                     "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert res.returncode == 0 and res.stdout.strip() == "[]", res.stderr


def test_import_loads_no_process_pool():
    # the pool's modules load only when a run forks: every import of cli pays
    # for them otherwise
    res = run_python("import sys, qpquant.cli; print(sorted(m for m in sys.modules if m in "
                     "('multiprocessing', 'concurrent.futures.process')))")
    assert res.returncode == 0 and res.stdout.strip() == "[]", res.stderr


def test_quadrature_oracles_load_no_scipy():
    # the oracles and a whole constants command run on numpy alone
    res = run_python(
        "import io, math, sys, contextlib\n"
        "from qpquant import cli, numerics as num, quantization as qz\n"
        "errs = [abs(qz.a_coeff_quadrature(2, 3) / qz.a_coeff(2, 3) - 1),\n"
        "        abs(qz.c_coeff_quadrature(2, 3) / qz.c_coeff(2, 3) - 1),\n"
        "        abs(num.radial_quad(2 * math.pi, 9.5, 1e-12)[0]\n"
        "            / num.gamma_radial(9.5, 2 * math.pi) - 1)]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['constants', '--n', '2', '--l-range', '0..3'])\n"
        "print(code, max(errs) <= 1e-8,\n"
        "      sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    assert res.returncode == 0 and res.stdout.split() == ["0", "True", "[]"], res.stderr


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constants_table_raises_no_warning(n):
    # -W error turns any float warning of the quadrature oracles into a failure,
    # outside pytest's own filterwarnings too
    res = subprocess.run([sys.executable, "-W", "error", "-m", "qpquant.cli", "constants",
                          "--n", str(n), "--l-range", "0..78", "--format", "json"],
                         capture_output=True, text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert [row["l"] for row in rows] == list(range(79))
    assert all(row["oracle_matched"] for row in rows)


def test_spectral_suite_dims_and_schema():
    res = run_cli(["verify", "--suite", "spectral", "--n", "1", "--lmax", "5"])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["schema_version"] == "1"
    assert rep["suite"] == "spectral"
    assert "timestamp" in rep and "config" in rep
    dims = [c["value"] for c in rep["checks"] if c["id"].startswith("dim-l")]
    assert dims == [1.0, 5.0, 14.0, 30.0, 55.0, 91.0]
    for c in rep["checks"]:
        assert set(c) >= {"id", "paper_ref", "status", "value", "expected", "tolerance"}
        assert c["status"] in ("pass", "fail")


def main_in_process(argv, capsys):
    """cli.main(argv) in this process: (exit code, stdout, stderr).  An
    argparse error raises SystemExit, whose code is the exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_exit_codes(capsys, monkeypatch):
    for var in ("QPQUANT_SEED", "QPQUANT_FORMAT"):
        monkeypatch.delenv(var, raising=False)
    assert main_in_process(["verify", "--suite", "algebra", "--seed", "1"], capsys)[0] == 0
    assert main_in_process(["verify", "--suite", "not-a-suite"], capsys)[0] == 2
    assert main_in_process(["verify", "--l-range", "zz"], capsys)[0] == 2
    for cmd in (["verify", "--suite", "quantization"], ["constants"]):
        code, out, err = main_in_process([*cmd, "--l-range", "3..1"], capsys)
        assert code == 2 and out == ""
        assert "'3..1' is not a range A..B" in err
    # b_l leaves the double range at l = 79 for n = 1; l = 78 is the last row
    code, out, err = main_in_process(["constants", "--n", "1", "--l-range", "79..79"], capsys)
    assert code == 2 and out == ""
    assert "configuration error:" in err and "l=79" in err
    assert main_in_process(["constants", "--n", "1", "--l-range", "78..78"], capsys)[0] == 0
    # constants and kernel take only the options they read
    for cmd in (["constants", "--samples", "5"], ["kernel", "--format", "csv"]):
        code, _, err = main_in_process(cmd, capsys)
        assert code == 2 and "unrecognized arguments" in err
    # an environment default is checked against the flag's choices
    monkeypatch.setenv("QPQUANT_FORMAT", "xml")
    code, out, err = main_in_process(["verify", "--suite", "algebra"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: QPQUANT_FORMAT='xml' is not one of json, csv" in err


def test_entry_point_exits_with_the_configuration_error_code():
    # python -m qpquant.cli exits with main()'s return value
    bad_env = run_cli(["verify", "--suite", "algebra"], env_extra={"QPQUANT_SEED": "abc"})
    assert bad_env.returncode == 2
    assert "configuration error: QPQUANT_SEED='abc' is not a valid int" in bad_env.stderr


# cmd ends in the option under test; its field, rule and a valid value
CONFIG_RULES = {"--lmax": ("lmax", ">= 0", "0"), "--n": ("n", ">= 1", "1"),
                "--tol-scale": ("tol_scale", "finite and > 0", "1"),
                "--workers": ("workers", ">= 1", "1")}


@pytest.mark.parametrize("cmd, value", [(["verify", "--suite", "spectral", "--lmax"], "-1"),
                                        (["kernel", "--lmax"], "-3"),
                                        (["verify", "--suite", "geometry", "--n"], "0"),
                                        (["verify", "--suite", "spectral", "--n"], "-1"),
                                        (["verify", "--suite", "spectral", "--tol-scale"], "-1"),
                                        (["verify", "--suite", "spectral", "--tol-scale"], "nan"),
                                        (["verify", "--suite", "algebra", "--workers"], "-3")])
def test_lmax_below_zero_is_a_configuration_error(cmd, value):
    field, rule, valid = CONFIG_RULES[cmd[-1]]
    res = run_cli([*cmd, value])
    assert res.returncode == 2 and res.stdout == ""
    assert f"configuration error: {field} must be {rule}, got {value}" in res.stderr
    assert run_cli([*cmd, valid]).returncode == 0


# the check ids of --suite all, in report order, the same at every --n
ALL_IDS = [
    "assoc", "theta-antihom", "norm-mult", "rho-hom", "jordan-trace",
    "diagram", "diagram-counterexample", "norm-chain", "tau-s-roundtrip",
    "oneform-sphere", "oneform-proj", "hamilton-flow", "dtheta-omega",
    "geodesic-flow", "fibration-duality", "fibration-volume",
    *(f"dim-l{l}" for l in range(6)), "eigenvalue-shift", "sphere-descent",
    "harmonic-trace", "harmonic-gradient", "right-invariance",
    "a-sphere", "b-sphere", "a-proj", "det-dual-frame", "det-spread", "b-proj",
    "corollary-substitution",
    *(f"moment-mc-l{l}" for l in range(4)), "bcoeff-assemblies", "bcoeff-mc",
    "acoeff-quadrature", "ccoeff-quadrature", "tnorm-identity",
    "tnorm-limit-printed", "tnorm-limit-defining", "ratio-limit",
    "op-identity-l0", "op-identity-l1",
    "bcoeff-growth", "kernel-tail", "kernel-reproduce", "kernel-bound"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_all_passes_in_process(n, capsys, monkeypatch):
    # every suite passes in process, and the report echoes n; every point
    # drawn and every n-dependent oracle runs at the report's n, so the
    # check ids are the same at every n
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    spied = ((cli.sp, "random_es0"), (cli.sp, "random_eh"), (cli.sp, "random_es_generic"),
             (cli.spl, "random_hl_function"), (cli.geo, "recover_constants"),
             (cli.geo, "hopf_pushforward_check"), (cli.qz, "kernel_reproduce_check"),
             (cli.qz, "kernel_norm_bound_check"))
    seen = []

    def spy(module, name):
        fn = getattr(module, name)
        sig = inspect.signature(fn)

        def recording(*args, **kwargs):
            seen.append((name, sig.bind(*args, **kwargs).arguments["n"]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)

    for module, name in spied:
        spy(module, name)
    assert cli.main(["verify", "--suite", "all", "--seed", "42", "--n", str(n)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["n"] == n
    assert {c["status"] for c in rep["checks"]} == {"pass"}
    assert [c["id"] for c in rep["checks"]] == ALL_IDS
    assert {name for name, _ in seen} == {name for _, name in spied}
    assert {m for _, m in seen} == {n}
    bmc = next(c for c in rep["checks"] if c["id"] == "bcoeff-mc")
    assert bmc["expected"] == cli.qz.b_coeff(n, 1)
    # the exactly constant l = 0 moment meets its closed form at a few ulps
    l0 = next(c for c in rep["checks"] if c["id"] == "moment-mc-l0")
    assert l0["stderr"] == 0.0 and l0["tolerance"] == 1e-14 * abs(l0["expected"])


def test_op_identity_gate_is_at_least_four_sigma(monkeypatch):
    # at --seed 42 both op-identity-l* estimates run to a relative stderr of
    # at most 0.005, so their fixed 0.02 gate on the relative error is >= 4 sigma
    runs = []
    apply = cli.qz.t_apply_eigenfunction

    def recording(phi, p_prime, config, flow_t=None):
        est = apply(phi, p_prime, config, flow_t)
        runs.append((phi.l, config, est))
        return est

    monkeypatch.setattr(cli.qz, "t_apply_eigenfunction", recording)
    report = cli.run_suite("quantization", cli.SuiteConfig(seed=42))
    assert [l for l, _, _ in runs] == [0, 1]
    for _, config, est in runs:
        assert config.samples == 200_000 and config.target_rel_stderr == 0.005
        assert est.stderr <= 0.005 * abs(est.value)
    checks = {c.id: c for c in report.checks}
    assert all(checks[f"op-identity-l{l}"].status == "pass" for l in (0, 1))


def test_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    a = run_cli(["verify", "--suite", "spaces", "--seed", "42", "--out", str(out1)])
    b = run_cli(["verify", "--suite", "spaces", "--seed", "42", "--out", str(out2)])
    assert a.returncode == b.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_env_overrides_and_flag_precedence():
    res = run_cli(["verify", "--suite", "algebra"], env_extra={"QPQUANT_SEED": "7"})
    rep = json.loads(res.stdout)
    assert rep["config"]["seed"] == 7
    res2 = run_cli(["verify", "--suite", "algebra", "--seed", "9"],
                   env_extra={"QPQUANT_SEED": "7"})
    assert json.loads(res2.stdout)["config"]["seed"] == 9


def test_env_is_read_on_every_call(monkeypatch, capsys):
    # the parser is built once per process; the QPQUANT_* variables are read
    # by each main() call, and a flag still beats them
    seeds = []
    for env_seed, argv in (("7", []), ("11", []), ("11", ["--seed", "3"])):
        monkeypatch.setenv("QPQUANT_SEED", env_seed)
        assert cli.main(["verify", "--suite", "algebra", *argv]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["config"]["seed"])
    assert seeds == [7, 11, 3]
    assert cli.build_parser() is cli.build_parser()


def test_constants_table_csv():
    res = run_cli(["constants", "--n", "1", "--l-range", "0..3", "--format", "csv"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("n,l,I_l,b_l,a_l,c_l")
    assert len(lines) == 5
    assert all(line.endswith("True") for line in lines[1:])


def test_constants_table_json_oracle_matched():
    res = run_cli(["constants", "--n", "2", "--l-range", "0..2"])
    rows = json.loads(res.stdout)
    assert len(rows) == 3
    assert all(r["oracle_matched"] for r in rows)


def test_constants_table_to_l50_matches_oracles():
    for n in (1, 2):
        res = run_cli(["constants", "--n", str(n), "--l-range", "0..50"])
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert [r["l"] for r in rows] == list(range(51))
        assert all(r["oracle_matched"] for r in rows)


def test_kernel_command():
    res = run_cli(["kernel", "--n", "1", "--lmax", "3", "--norm", "2.5"])
    payload = json.loads(res.stdout)
    assert payload["norm"] == 2.5
    assert len(payload["terms"]) == 4
    assert payload["tail_bound"] < 1e-10 * payload["diagonal"]


def test_kernel_command_past_underflow(capsys):
    # past l ~ 80 (|A| = 2 sqrt 2) and l ~ 40 (n = 4, |A| = 0.5) the printed
    # terms underflow to 0
    for argv in (["kernel", "--lmax", "60"],
                 ["kernel", "--n", "4", "--norm", "0.5", "--lmax", "40"]):
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tail_bound"] <= 1e-12 * payload["diagonal"]


def test_kernel_command_past_the_float_range(capsys):
    for argv in (["kernel", "--norm", "1e4", "--lmax", "300"], ["kernel", "--norm", "1e300"]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("configuration error: kernel term l = ")
        assert "largest float" in out.err


@pytest.mark.parametrize("norm", ["nan", "inf", "0", "-1"])
def test_kernel_command_refuses_a_norm_that_is_not_positive_and_finite(norm, capsys):
    assert cli.main(["kernel", "--norm", norm]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("configuration error: need a positive finite matrix norm")


@pytest.mark.parametrize("flag,value", [("--seed", "-5"), ("--samples", "0")])
def test_bad_seed_or_samples_is_a_configuration_error(flag, value, capsys):
    assert cli.main(["verify", "--suite", "quantization", flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"configuration error: {flag[2:]} must be ")
    # a valid sample count below the floor still runs at 1,000
    assert cli.SuiteConfig(samples=1).mc(0).samples == 1000


@pytest.mark.parametrize("l_range", [(3, 1), (-1, 2)])
def test_suite_config_refuses_a_bad_l_range(l_range):
    # the parser refuses such a range as --l-range; the config refuses it too
    with pytest.raises(ValueError, match=r"l_range must be A\.\.B with 0 <= A <= B, got "):
        cli.SuiteConfig(l_range=l_range)
    assert cli.SuiteConfig(l_range=(2, 2)).l_range == (2, 2)


def test_verify_aliases():
    res = run_cli(["verify-spectral", "--n", "1", "--lmax", "2"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["suite"] == "spectral"


@pytest.mark.parametrize("alias", sorted(cli.ALIASES))
def test_alias_matches_verify_suite(alias, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    flags = ["--seed", "3", "--samples", "2000", "--lmax", "2", "--format", "csv"]
    outputs = []
    for argv in ([alias, *flags], ["verify", "--suite", cli.ALIASES[alias], *flags]):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1].startswith(cli.ALIASES[alias] + ",")


def test_alias_rejects_suite_and_help_lists_aliases():
    res = run_cli(["verify-spectral", "--suite", "algebra"])
    assert res.returncode == 2 and res.stdout == ""
    assert "--suite" in res.stderr
    helptext = run_cli(["--help"]).stdout
    assert all(alias in helptext for alias in cli.ALIASES)


def test_run_suite_unknown_raises():
    with pytest.raises(ValueError):
        cli.run_suite("bogus", cli.SuiteConfig())


def test_report_validates_against_bundled_schema():
    import jsonschema
    res = run_cli(["verify", "--suite", "algebra", "--seed", "5"])
    jsonschema.validate(json.loads(res.stdout), cli.REPORT_SCHEMA)


def test_parallel_suites_identical_report(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = cli.SuiteConfig(samples=20_000, seed=11)
    seq = cli.run_suite("all", cfg, workers=1)
    par = cli.run_suite("all", cfg, workers=4)
    assert seq.to_json() == par.to_json()
    # each suite timed where it ran, and kept out of the report's bytes
    assert list(par.seconds) == list(cli.SUITE_FUNCS)
    assert all(sec > 0 for sec in par.seconds.values())
    assert set(json.loads(par.to_json())) == {"schema_version", "suite", "timestamp",
                                              "config", "checks"}
    # every number cell of the CSV report is a plain float
    rows = list(csv.DictReader(io.StringIO(par.to_csv())))
    for row in rows:
        for key in ("value", "expected", "tolerance", "stderr"):
            if row[key]:
                float(row[key])
    assert [row["id"] for row in rows] == ALL_IDS
    assert set(par.config) == {f.name for f in fields(cli.SuiteConfig)} | {
        "counterexample_point"}


def test_counterexample_point_in_config():
    res = run_cli(["verify", "--suite", "spaces", "--seed", "3"])
    rep = json.loads(res.stdout)
    pt = rep["config"]["counterexample_point"]
    assert pt["space"] == "E_S"
    from qpquant import spaces as sp
    obj = sp.point_from_json(json.dumps(pt))
    assert sp.in_sphere_covector(obj) and not sp.in_sphere_covector0(obj)


def _pid_suite(cfg, rng, check):
    check("pid", "the process that ran the suite", os.getpid(), 0.0, 0.0, ok=True)


def _raising_suite(cfg, rng, check):
    raise ValueError(f"suite raised in process {os.getpid()}")


@pytest.fixture
def pid_suites(monkeypatch):
    """Every suite records the id of the process that ran it, and nothing else."""
    for name in cli.SUITE_FUNCS:
        monkeypatch.setitem(cli.SUITE_FUNCS, name, _pid_suite)


def test_report_times_each_suite_that_ran():
    report = cli.run_suite("algebra", cli.SuiteConfig())
    assert list(report.seconds) == ["algebra"] and report.seconds["algebra"] > 0
    assert "seconds" not in report.as_dict()


def test_workers_run_suites_in_forked_processes(pid_suites):
    import multiprocessing
    cfg = cli.SuiteConfig()
    pids = {c.value for c in cli.run_suite("all", cfg, workers=2).checks}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert multiprocessing.active_children() == []
    # one worker, or one suite, runs in this process
    assert {c.value for c in cli.run_suite("all", cfg, workers=1).checks} == {os.getpid()}
    assert [c.value for c in cli.run_suite("kernel", cfg, workers=4).checks] == [os.getpid()]


def test_worker_error_is_raised_by_the_caller(pid_suites, monkeypatch, capsys):
    import multiprocessing
    monkeypatch.setitem(cli.SUITE_FUNCS, "geometry", _raising_suite)
    with pytest.raises(ValueError, match=r"suite raised in process \d+") as err:
        cli.run_suite("all", cli.SuiteConfig(), workers=2)
    assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()
    assert multiprocessing.active_children() == []
    assert cli.main(["verify", "--suite", "all", "--workers", "2"]) == 2
    out, errtext = capsys.readouterr()
    assert out == "" and "configuration error: suite raised in process" in errtext
    assert multiprocessing.active_children() == []


def test_workers_past_the_suite_count_ask_one_process_per_suite(pid_suites, monkeypatch,
                                                               capsys):
    import concurrent.futures
    asked = []

    class SerialSpy:
        """Records the pool size asked for and runs the suites here, starting nothing."""

        def __init__(self, max_workers=None, mp_context=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialSpy)
    assert cli.main(["verify", "--suite", "all", "--workers", "50"]) == 0
    assert asked == [len(cli.SUITE_FUNCS)] == [7]
    capsys.readouterr()


def test_workers_without_fork_are_a_configuration_error(pid_suites, monkeypatch, capsys):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert cli.main(["verify", "--suite", "all", "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no 'fork' start method" in err
    # serial runs need no start method
    assert cli.main(["verify", "--suite", "all", "--workers", "1"]) == 0
    assert cli.main(["verify", "--suite", "algebra", "--workers", "2"]) == 0
    capsys.readouterr()
