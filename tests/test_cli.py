import json
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import tilecert
import tilecert.cli as cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_tiling_set(capsys):
    payload = run_json(capsys, "analyze", "0,1,2,3")
    assert payload["command"] == "analyze"
    assert payload["t1"] is True and payload["t2"] is True
    assert payload["tiling"] == {"period": 4, "complement": [0]}
    assert payload["spectrum"] == ["1/4", "1/2", "3/4"]


def test_analyze_non_tiler(capsys):
    payload = run_json(capsys, "analyze", "0,1,3")
    assert payload["t1"] is False
    assert payload["tiling"] is None


def test_analyze_rejects_bad_set(capsys):
    code, out, err = run_cli(capsys, "analyze", "0")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "analyze", "0,junk")
    assert code == 2


def test_analyze_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "0,1,8,9")
    _, out2, _ = run_cli(capsys, "analyze", "0,1,8,9")
    assert out1 == out2


def test_analyze_undecided_with_small_cap(capsys):
    payload = run_json(capsys, "analyze", "0,1,2,3", "--lcap", "3")
    assert payload["tiling"] is None
    assert payload["tiling_undecided"] is True


def test_tile_command(capsys):
    payload = run_json(capsys, "tile", "0,2")
    assert payload["tiling"] == {"period": 4, "complement": [0, 1]}
    assert payload["verified"] is True


def test_tile_and_analyze_deep_complement(capsys):
    # the complement has 1,024 elements; the search must not recurse per element
    payload = run_json(capsys, "tile", "0,1024")
    assert payload["tiling"]["period"] == 2048
    assert payload["verified"] is True
    payload = run_json(capsys, "analyze", "0,1024")
    assert payload["tiling"]["period"] == 2048


def test_spectrum_construct(capsys):
    payload = run_json(capsys, "spectrum", "construct", "0,2,4")
    assert payload["spectrum"] == ["1/3", "2/3"]
    payload = run_json(capsys, "spectrum", "construct", "0,1,3")
    assert payload["spectrum"] is None


def test_spectrum_search(capsys):
    payload = run_json(capsys, "spectrum", "search", "0,1,3,4")
    assert payload["spectrum"] is None


def test_spectrum_search_memory_does_not_grow_with_span(capsys):
    # the clique search reads the set's one inventory, built from the five
    # elements; the dense polynomial of span 10**8 is never built
    tracemalloc.start()
    try:
        payload = run_json(capsys, "spectrum", "search", "0,1,3,4,100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["spectrum"] is None
    assert peak < 5_000_000, peak


def test_spectrum_verify(capsys):
    payload = run_json(capsys, "spectrum", "verify", "0,1,2,3", "--theta", "1/4,1/2,3/4")
    assert payload["verified"] is True
    payload = run_json(capsys, "spectrum", "verify", "0,1,2,3", "--theta", "1/4,1/2")
    assert payload["root_conditions"] is True
    assert payload["size_ok"] is False
    assert payload["verified"] is False
    code, _, _ = run_cli(capsys, "spectrum", "verify", "0,1,2,3")
    assert code == 2


def test_spectrum_verify_prime_denominator_is_not_factored(capsys, monkeypatch):
    # 2**89 - 1 is prime, so the totient's trial division would not finish;
    # phi(s) >= sqrt(s/2) > 1 = deg(1 + x) rules it out first
    from tilecert import arith

    factored = []
    original = arith.factorize

    def recorder(n):
        factored.append(n)
        return original(n)

    monkeypatch.setattr(arith, "factorize", recorder)
    arith.euler_phi.cache_clear()
    payload = run_json(capsys, "spectrum", "verify", "0,1", "--theta", f"1/{2**89 - 1}")
    assert payload["root_conditions"] is False
    assert 2**89 - 1 not in factored


def test_spectrum_verify_rejects_exponent_notation(capsys):
    # Fraction("1e30000000") would build a 30-million-digit integer first
    code, out, err = run_cli(capsys, "spectrum", "verify", "0,1", "--theta", "1e30000000")
    assert (code, out, err) == (2, "", "error: bad fraction '1e30000000'\n")


def test_product_command(capsys):
    payload = run_json(capsys, "product", "1:2,2:2")
    assert payload["tower_order"] == [1, 2]
    assert payload["set_report"]["tiling"] is not None

    payload = run_json(capsys, "product", "1:2,3:2")
    assert payload["tower_order"] is None
    assert payload["keller_witness"] == [3, -1]
    assert payload["set_report"]["tiling"] is None

    payload = run_json(capsys, "product", "2:2,2:2")
    assert payload["zero_one"] is False
    assert payload["set_report"] is None


def test_product_rejects_bad_input(capsys):
    assert run_cli(capsys, "product", "1:1")[0] == 2
    assert run_cli(capsys, "product", "nonsense")[0] == 2
    # there is no factor limit: nine factors get a verdict and a certificate
    payload = run_json(capsys, "product", ",".join(["1:2"] * 9))
    assert payload["tower_order"] is None
    assert payload["keller_witness"] is not None


def test_powersums_command(capsys):
    payload = run_json(capsys, "powersums", "0,1,3,4", "--count", "3")
    assert payload["power_sums"] == [-1, 1, -4]
    # power_sums refuses a count below 1 or above MAX_POWER_SUMS before it
    # computes anything, and main prints its message (exit 2)
    for value, message in (("0", "at least 1, got 0"), ("-3", "at least 1, got -3"),
                           ("10001", "at most 10,000"), ("100000000", "at most 10,000")):
        code, out, err = run_cli(capsys, "powersums", "0,1", "--count", value)
        assert code == 2 and out == ""
        assert err == f"error: power sum count must be {message}\n"
    # a count that is not an integer is still the parser's error
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "powersums", "0,1", "--count", "ten")
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err
    # the roots of 1 + x are -1, and S_10000 is the largest count allowed
    payload = run_json(capsys, "powersums", "0,1", "--count", "10000")
    assert payload["power_sums"] == [(-1) ** j for j in range(1, 10_001)]


def test_powersums_memory_does_not_grow_with_span(capsys):
    # Newton's identities read the distances from the maximum to the other
    # elements: at span 10**8 the dense polynomial alone would hold 10**8
    # coefficients, and no allocation here comes near that
    tracemalloc.start()
    try:
        payload = run_json(capsys, "powersums", "0,100000000", "--count", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the roots of 1 + x**(10**8) sum to 0 in every power below 10**8
    assert payload["power_sums"] == [0, 0, 0, 0, 0]
    assert peak < 5_000_000, peak
    # a shift only adds roots at 0, which add nothing
    shifted = ",".join(str(10**6 + x) for x in (0, 1, 3, 4))
    assert run_json(capsys, "powersums", shifted, "--count", "3")["power_sums"] == [-1, 1, -4]


def test_classify_command(capsys):
    payload = run_json(capsys, "classify", "0,3,6")
    assert payload["classification"] == {"prime": 3, "exponent": 2}
    payload = run_json(capsys, "classify", "0,1,3")
    assert payload["classification"] is None


def test_batch_subsets(capsys):
    code, out, err = run_cli(
        capsys, "batch", "subsets", "max_elem=6", "max_size=3",
        "--check", "t1t2-implies-tiling",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["violation_count"] == 0
    assert payload["instances"] == 21 + 35


def test_batch_two_factor(capsys):
    payload = run_json(
        capsys, "batch", "two-factor", "m=3", "n=3", "--check", "two-factor-equivalence"
    )
    assert payload["violation_count"] == 0
    assert payload["instances"] == 9 * 4


def test_batch_three_factor(capsys):
    payload = run_json(
        capsys, "batch", "three-factor", "m=2", "--check", "tower-equivalence"
    )
    assert payload["violation_count"] == 0


def test_batch_parallel_workers_match_sequential(capsys):
    args = ("batch", "subsets", "max_elem=7", "max_size=3", "--check", "granville-period")
    _, seq_out, _ = run_cli(capsys, *args)
    _, par_out, _ = run_cli(capsys, *args, "--workers", "2")
    assert seq_out == par_out


def test_batch_parallel_product_specs_match_sequential(capsys):
    # the pool pickles every ProductSpec it sends to a worker
    args = ("batch", "three-factor", "m=2", "--check", "tower-equivalence")
    _, seq_out, _ = run_cli(capsys, *args)
    _, par_out, _ = run_cli(capsys, *args, "--workers", "2")
    assert seq_out == par_out


def test_batch_rejects_unknown(capsys):
    assert run_cli(capsys, "batch", "subsets", "max_elem=4", "max_size=2",
                   "--check", "no-such-check")[0] == 2
    assert run_cli(capsys, "batch", "nonsense", "--check", "t1t2-implies-tiling")[0] == 2
    assert run_cli(capsys, "batch", "subsets", "--check", "t1t2-implies-tiling")[0] == 2


def test_batch_rejects_unknown_or_repeated_parameter(capsys):
    for params in (["max_elem=3", "max_size=2", "max_elm=9"],
                   ["max_elem=3", "max_size=2", "max_size=3"]):
        code, out, err = run_cli(capsys, "batch", "subsets", *params, "--check", "granville-period")
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_batch_rejects_a_malformed_parameter(capsys):
    for token, message in (("max_elem3", "bad family parameter 'max_elem3', expected key=value"),
                           ("max_elem=three", "bad family parameter 'max_elem=three'")):
        code, out, err = run_cli(capsys, "batch", "subsets", token, "max_size=2",
                                 "--check", "granville-period")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("family", [
    ["subsets", "max_elem=-3", "max_size=6", "--check", "granville-period"],
    ["subsets", "max_elem=0", "max_size=2", "--check", "granville-period"],
    ["subsets", "max_elem=3", "max_size=1", "--check", "granville-period"],
    ["two-factor", "m=0", "n=9", "--check", "two-factor-equivalence"],
    ["two-factor", "m=2", "n=1", "--check", "two-factor-equivalence"],
    ["three-factor", "m=-1", "--check", "tower-equivalence"],
], ids=" ".join)
def test_batch_rejects_a_parameter_below_its_least_value(capsys, family):
    # such a family is empty, and a batch over it would check nothing
    code, out, err = run_cli(capsys, "batch", *family)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {family[0]} family needs ")


def test_batch_refuses_an_oversized_family_at_once(capsys):
    # about 1.4 * 10**27 sets, counted from the parameters before any is built
    code, out, err = run_cli(capsys, "batch", "subsets", "max_elem=100000", "max_size=6",
                             "--check", "granville-period")
    assert code == 2 and out == ""
    assert err == "error: subsets family has more than 1,000,000 instances, the batch limit\n"


@pytest.mark.parametrize("family", [
    ["subsets", f"max_elem={'9' * 4000}", "max_size=3", "--check", "granville-period"],
    ["two-factor", f"m={'9' * 4000}", "n=3", "--check", "two-factor-equivalence"],
    ["three-factor", f"m={'9' * 4000}", "--check", "tower-equivalence"],
], ids=lambda family: family[0])
def test_batch_limit_message_for_a_4000_digit_parameter(capsys, family):
    # the count has about 8,000 digits, past Python's 4,300-digit limit for
    # printing an int, so the message prints the limit and not the count
    code, out, err = run_cli(capsys, "batch", *family)
    assert code == 2 and out == ""
    assert err == f"error: {family[0]} family has more than 1,000,000 instances, the batch limit\n"


def test_cli_reads_the_family_table_through_families():
    assert not hasattr(cli, "FAMILIES")


def test_spectrum_theta_only_for_verify(capsys):
    for mode in ("construct", "search"):
        code, out, err = run_cli(capsys, "spectrum", mode, "0,2", "--theta", "1/2")
        assert code == 2 and out == ""
        assert err == f"error: spectrum {mode} takes no --theta\n"


def test_batch_reports_violations_with_exit_one(capsys, monkeypatch):
    # force a violation to exercise the failure path end to end
    from tilecert import families

    monkeypatch.setitem(families.FAMILIES["subsets"][2], "t1t2-implies-tiling",
                        lambda facts: {"set": "forced", "reason": "forced"})
    code, out, _ = run_cli(capsys, "batch", "subsets", "max_elem=3", "max_size=2",
                           "--check", "t1t2-implies-tiling")
    assert code == 1
    payload = json.loads(out)
    assert payload["violation_count"] == payload["instances"] > 0


def test_human_rendering(capsys):
    code, out, _ = run_cli(capsys, "analyze", "0,1,2,3", "--human")
    assert code == 0
    assert "t1: true" in out
    assert "tiling:\n  period: 4\n  complement: [0]\n" in out
    assert 'spectrum: ["1/4", "1/2", "3/4"]\n' in out


def test_human_rendering_keeps_list_items_apart(capsys):
    code, out, _ = run_cli(capsys, "product", "1:2,3:2", "--human")
    assert code == 0
    assert out.startswith("command: product\n"
                          'factors: [{"step": 1, "length": 2}, {"step": 3, "length": 2}]\n')
    assert "keller_witness: [3, -1]\n" in out
    assert "set_report:\n  set: [0, 1, 3, 4]\n" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_module_runs_as_a_script(capsys, monkeypatch):
    # python -m tilecert.cli, in this process so that its guard line runs here
    monkeypatch.setattr(sys, "argv", ["tilecert", "--version"])
    with warnings.catch_warnings():
        # runpy warns that tilecert.cli is already imported, which is harmless here
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("tilecert.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"tilecert {tilecert.__version__}\n"


def test_analyze_under_optimize_flag_matches(capsys):
    # certificate checks are explicit, so -O (which strips asserts) changes nothing
    src = os.path.dirname(os.path.dirname(tilecert.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (("analyze", "0,1,8,9"), ("product", "1:2,3:2")):
        optimized = subprocess.run(
            [sys.executable, "-O", "-m", "tilecert.cli", *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert json.loads(optimized.stdout) == run_json(capsys, *argv)


def _batch_args(*extra):
    return ["batch", "subsets", "max_elem=4", "max_size=2", "--check", "granville-period", *extra]


def _refuse_work(monkeypatch):
    """Make any inventory scan, product expansion or judged instance fail the test."""
    from tilecert import families, report, tileset

    def refuse(*args):
        raise AssertionError(f"work ran on {args}")

    tileset.cyclotomic_divisors.cache_clear()
    for module, name in ((tileset, "divisors_of_poly"), (report, "product_set"),
                         (families, "subset_facts")):
        monkeypatch.setattr(module, name, refuse)


def test_workers_below_one_refused_by_run_batch(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, *_batch_args("--workers", value))
        assert code == 2 and out == ""
        assert err == f"error: worker count must be at least 1, got {value}\n"
    # a count that is not an integer is still the parser's error
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(_batch_args("--workers", "two"))
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_lcap_below_one_refused_by_the_reports(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    for argv in (["analyze", "0,1,8,9"], ["tile", "0,1,8,9"], ["product", "1:2,3:2"]):
        for value in ("0", "-5"):
            code, out, err = run_cli(capsys, *argv, "--lcap", value)
            assert code == 2 and out == ""
            assert err == f"error: period cap must be at least 1, got {value}\n"
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv, "--lcap", "ten")
        assert exc.value.code == 2
        assert "--lcap" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["analyze", "0,1", "--lcap", "1"]).lcap == 1


def test_flags_only_where_read(capsys):
    for argv in (["analyze", "0,1", "--workers", "2"],
                 ["classify", "0,3,6", "--lcap", "5"],
                 ["spectrum", "construct", "0,2", "--lcap", "5"],
                 _batch_args("--lcap", "5")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    for argv in (["analyze", "0,1"], ["tile", "0,1"], ["spectrum", "construct", "0,2"],
                 ["product", "1:2,2:2"], ["powersums", "0,1"], ["classify", "0,3,6"],
                 _batch_args()):
        assert cli.build_parser().parse_args([*argv, "--human"]).human is True


def test_run_batch_clamps_workers_to_cpu_count(capsys, monkeypatch):
    # the clamp lives in run_batch, so the CLI and every library caller get
    # it; the stand-in pool records its size and starts no process
    import multiprocessing

    from tilecert.families import run_batch, subsets

    pools = []

    class RecordingPool:
        def __init__(self, workers):
            pools.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, job, instances, chunksize=1):
            return list(map(job, instances))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    cpus = os.cpu_count() or 1
    serial = run_batch("subsets", subsets(3, 2), "granville-period")
    assert run_batch("subsets", subsets(3, 2), "granville-period", workers=cpus + 5) == serial
    assert pools == ([cpus] if cpus > 1 else [])
    pools.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers in (1, 2, 3, 4, 10**6):
        run_batch("subsets", subsets(3, 2), "granville-period", workers=workers)
    assert pools == [2, 3, 3, 3]
    assert run_cli(capsys, *_batch_args("--workers", "1000000"))[0] == 0
    assert pools[-1] == 3
    # with the CPU count unknown, one worker: the serial loop, and no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_batch("subsets", subsets(3, 2), "granville-period", workers=10**6)
    assert len(pools) == 5


def test_run_batch_rejects_workers_below_one():
    from tilecert.families import run_batch, subsets

    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"worker count must be at least 1, got {workers}"):
            run_batch("subsets", subsets(3, 2), "granville-period", workers=workers)
