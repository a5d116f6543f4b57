import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.cli import TASKS, main, parse_scalar, parse_spec, run
from braidcalc.errors import ParseError, ValidationError
from braidcalc.scalars import MAX_FIELD_ORDER, Q, field_make

F4 = field_make(4)
F8 = field_make(8)


GUREVICH_JOB = """
# enveloping-algebra fixture
[field]
m = 1

[space]
kind = preset
name = gurevich

[bracket]
preset = gurevich

[tasks]
bracket
lie_check = 4, 2
pbw = 4, 2
pl_verify = 2
"""

TWODIM_JOB = """
[field]
m = 2

[space]
kind = diagonal
q = [[-1, 1], [-1, -1]]

[tasks]
sdeg = 6
nichols = 5
"""


def test_parse_scalar_expressions():
    assert parse_scalar(F4, "3") == F4.from_rational(3)
    assert parse_scalar(F4, "1/2") == F4.from_fraction(1, 2)
    assert parse_scalar(F4, "z") == F4.gen
    assert parse_scalar(F4, "-z^2") == F4.from_rational(1)  # z^2 = -1
    assert parse_scalar(F4, "2*z") == F4.gen + F4.gen
    assert parse_scalar(F4, "1 + z") == F4.one + F4.gen
    assert parse_scalar(F4, "1/2 * z^3 - 1") == \
        F4.from_fraction(1, 2) * F4.gen ** 3 - F4.one
    with pytest.raises(ParseError):
        parse_scalar(F4, "z^")
    with pytest.raises(ParseError):
        parse_scalar(F4, "")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 3, 4, 5, 8, 12)), st.data())
def test_printed_scalars_parse_back(m, data):
    # an e_spaces row printed in a report can be pasted into [bracket] values
    field = field_make(m)
    coefficient = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
    s = field.scalar(data.draw(st.lists(coefficient, min_size=field.degree,
                                        max_size=field.degree)))
    assert parse_scalar(field, str(s)) == s


@pytest.mark.parametrize("text", ["1 +", "z -", "-", "1 + - 2", "+", "z^ + - 2"])
def test_a_sign_without_a_term_is_refused(text):
    with pytest.raises(ParseError, match="dangling sign") as err:
        parse_scalar(F4, text, 7)
    assert err.value.line == 7


def test_parse_spec_preset_job():
    # a syntactically valid preset request; q = z over m = 8
    job = parse_spec("""
[field]
m = 8

[space]
kind = preset
name = gurevich
q = z

[tasks]
ybe
""")
    assert job.field_order == 8
    assert job.space_decl["kind"] == "preset"
    assert job.space_decl["params"]["name"] == "gurevich"
    assert str(job.space_decl["params"]["q"]) == "z"


def test_parse_spec_diagonal_matrix():
    job = parse_spec(TWODIM_JOB)
    qmat = job.space_decl["params"]["q"]
    assert len(qmat) == 2 and len(qmat[0]) == 2
    assert qmat[0][1] == 1
    assert [name for name, _ in job.tasks] == ["sdeg", "nichols"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_spec("[field]\nm = 4\n[space]\nkind = scalar\nd = 2\nq = z^\n")
    assert err.value.line == 6
    with pytest.raises(ParseError):
        parse_spec("[field]\nm = 4\n[tasks]\nybe\n")  # no space section
    with pytest.raises(ParseError):
        parse_spec("[field]\nm = 4\n[space]\nkind = flip\nd = 2\n[tasks]\nwat\n")


def field_order_job(m):
    return "# field order probe\n[field]\n\nm = %s\n[space]\nkind = flip\nd = 2\n[tasks]\nybe\n" % m


def test_field_order_errors_carry_line_numbers(tmp_path, capsys):
    for m in (0, -3):
        with pytest.raises(ParseError) as err:
            parse_spec(field_order_job(m))
        assert err.value.line == 4
    for m in (MAX_FIELD_ORDER + 1, 100000):
        with pytest.raises(ValidationError) as err:
            parse_spec(field_order_job(m))
        assert err.value.line == 4
        assert str(err.value).startswith("line 4: ")
        jobfile = tmp_path / "big.job"
        jobfile.write_text(field_order_job(m))
        assert main(["--input", str(jobfile), "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "line 4" in captured.err and "exceeds the limit" in captured.err
        assert "Traceback" not in captured.err and not captured.out
    assert parse_spec(field_order_job(MAX_FIELD_ORDER)).field_order == MAX_FIELD_ORDER


def test_validation_rejects_incompatible_root_orders():
    with pytest.raises(ValidationError):
        parse_spec("""
[field]
m = 4

[space]
kind = flip
d = 2

[tasks]
pareigis = 3
""")


def test_run_twodim_job_results():
    job = parse_spec(TWODIM_JOB)
    report = run(job)
    by_name = {t["name"]: t for t in report.tasks}
    assert by_name["sdeg"]["result"]["value"] == 2
    assert by_name["sdeg"]["result"]["status"] == "certified"
    assert by_name["nichols"]["result"]["dims"] == [1, 2, 2, 2, 1, 0]
    assert report.internal_failure is None


def test_run_gurevich_job_results():
    job = parse_spec(GUREVICH_JOB)
    report = run(job)
    by_name = {t["name"]: t for t in report.tasks}
    assert by_name["bracket"]["result"]["validated"]
    assert by_name["lie_check"]["result"]["status"] == "is_lie_up_to"
    assert by_name["pbw"]["result"]["status"] == "pbw_consistent"
    assert by_name["pbw"]["result"]["gr_dims"] == [1, 3, 6, 10, 15]
    assert by_name["pl_verify"]["result"] == {
        "arity": 2, "pl1": True, "pl2": True, "pl3": True}


def test_empty_task_list_is_echo_only():
    job = parse_spec("[field]\nm = 1\n[space]\nkind = flip\nd = 2\n[tasks]\n")
    report = run(job)
    assert report.tasks == []
    payload = report.payload()
    assert payload["job"]["field_order"] == 1


def test_reports_are_deterministic_and_cache_transparent(tmp_path):
    job = parse_spec(TWODIM_JOB)
    fresh_a = run(job).emit("json")
    fresh_b = run(job).emit("json")
    assert fresh_a == fresh_b
    cache = tmp_path / "cache"
    first = run(job, cache_dir=str(cache))
    second = run(job, cache_dir=str(cache))
    assert [t["cached"] for t in first.tasks] == [False, False]
    assert [t["cached"] for t in second.tasks] == [True, True]
    for a, b in zip(first.tasks, second.tasks):
        assert a["result"] == b["result"]


def test_task_errors_are_captured_per_task():
    job = parse_spec("""
[field]
m = 1

[space]
kind = flip
d = 2

[tasks]
lie_check = 3, 1
nichols = 4
""")
    report = run(job)
    by_name = {t["name"]: t for t in report.tasks}
    # lie_check without a bracket section is a per-task validation error
    assert by_name["lie_check"]["status"] == "error"
    assert by_name["lie_check"]["error"]["type"] == "ValidationError"
    # the sibling task still ran
    assert by_name["nichols"]["result"]["dims"] == [1, 2, 3, 4, 5]


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "job.txt"
    good.write_text(TWODIM_JOB)
    assert main(["--input", str(good), "--format", "text"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("[field]\nm = 4\n[space]\nkind = scalar\nd = 2\nq = z^\n[tasks]\nybe\n")
    assert main(["--input", str(bad)]) == 1
    capsys.readouterr()
    assert main(["--input", str(tmp_path / "missing.txt")]) == 1
    capsys.readouterr()


def test_main_task_filter_and_output(tmp_path, capsys):
    jobfile = tmp_path / "job.txt"
    jobfile.write_text(TWODIM_JOB)
    out = tmp_path / "report.json"
    code = main(["--input", str(jobfile), "--task", "nichols",
                 "--output", str(out), "--jobs", "2"])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert [t["name"] for t in payload["tasks"]] == ["nichols"]
    assert payload["tool"]["name"] == "braidcalc"


def test_text_format_renders(tmp_path, capsys):
    jobfile = tmp_path / "job.txt"
    jobfile.write_text(GUREVICH_JOB)
    assert main(["--input", str(jobfile), "--format", "text"]) == 0
    captured = capsys.readouterr()
    assert "pbw" in captured.out
    assert "pbw_consistent" in captured.out


def test_explicit_matrix_space():
    job = parse_spec("""
[field]
m = 1

[space]
kind = explicit
d = 2
matrix = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]

[tasks]
min_poly
nichols = 3
""")
    report = run(job)
    by_name = {t["name"]: t for t in report.tasks}
    # the flip written out as an explicit matrix: an involution
    assert by_name["min_poly"]["result"]["coefficients"] == ["-1", "0", "1"]
    assert by_name["nichols"]["result"]["dims"] == [1, 2, 3, 4]


def test_budget_line_and_per_task_budget_errors():
    job = parse_spec("""
[field]
m = 1

[space]
kind = flip
d = 2
budget = 3

[tasks]
nichols = 3
e_spaces = 2..5
""")
    report = run(job)
    by_name = {t["name"]: t for t in report.tasks}
    assert by_name["nichols"]["status"] == "ok"
    assert by_name["e_spaces"]["status"] == "error"
    assert by_name["e_spaces"]["error"]["type"] == "DegreeBudgetExceeded"


def test_e_spaces_payload_and_cache_roundtrip(tmp_path):
    text = """
[field]
m = 1

[space]
kind = preset
name = gurevich

[tasks]
e_spaces = 2..2
"""
    job = parse_spec(text)
    cache = tmp_path / "cache"
    first = run(job, cache_dir=str(cache))
    payload = first.tasks[0]["result"]["primitives"]["2"]
    assert payload["dim"] == 3
    # named words with exact scalar strings
    row = payload["basis"][0]
    assert set(row) == {"x0.x1", "x1.x0"}
    second = run(job, cache_dir=str(cache))
    assert second.tasks[0]["cached"]
    assert second.tasks[0]["result"] == first.tasks[0]["result"]


def test_pareigis_arity_three_job():
    job = parse_spec("""
[field]
m = 3

[space]
kind = scalar
d = 2
q = z

[tasks]
pareigis = 3, 1
""")
    report = run(job)
    result = report.tasks[0]["result"]
    assert result["arity"] == 3
    assert result["zeta_space_dim"] == 8
    assert result["pi_image_in_primitives"] is True


def test_shipped_job_files_run(tmp_path, capsys):
    # every shipped job's fresh JSON report is byte-identical to its golden
    # copy, and so is that of each job of tests/coverage, which reaches the
    # report branches the shipped ones miss (a lie_check witness, a failed
    # pbw with its failure degree, hecke relations); every golden has a job
    import pathlib

    here = pathlib.Path(__file__).resolve().parent
    jobfiles = sorted((here.parent / "jobs").glob("*.job")) + \
        sorted((here / "coverage").glob("*.job"))
    assert jobfiles
    assert {p.stem for p in jobfiles} == \
        {p.stem for p in (here / "golden").glob("*.json")}
    for jobfile in jobfiles:
        out = tmp_path / (jobfile.stem + ".json")
        assert main(["--input", str(jobfile), "--no-cache",
                     "--output", str(out)]) == 0, jobfile
        capsys.readouterr()
        golden = here / "golden" / (jobfile.stem + ".json")
        assert out.read_bytes() == golden.read_bytes(), jobfile.name


def test_tasks_sharing_a_filtration_build_it_once(tmp_path, capsys, monkeypatch):
    # lie_check = 4, 2 and pbw = 4, 2 read the same (cutoff, slack) filtration
    import pathlib

    from braidcalc.enveloping import FilteredQuotient

    builds = []
    init = FilteredQuotient.__init__

    def counted(self, *args, **kwargs):
        builds.append(args[1:])
        init(self, *args, **kwargs)

    monkeypatch.setattr(FilteredQuotient, "__init__", counted)
    jobfile = pathlib.Path(__file__).resolve().parent.parent / "jobs" / \
        "quadratic_enveloping.job"
    assert main(["--input", str(jobfile), "--no-cache",
                 "--output", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert builds == [(4, 2)]


def _assert_validation_exit(tmp_path, capsys, text, line, phrase):
    with pytest.raises(ValidationError) as err:
        parse_spec(text)
    assert err.value.line == line
    jobfile = tmp_path / "bad.job"
    jobfile.write_text(text)
    assert main(["--input", str(jobfile), "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert "line %d" % line in captured.err and phrase in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_missing_space_parameter_is_a_validation_error(tmp_path, capsys):
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 1\n[space]\nkind = flip\n[tasks]\nybe\n", 4, "d = ")
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 4\n[space]\nkind = scalar\nd = 2\n[tasks]\nybe\n", 4, "q = ")
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 1\n[space]\nkind = flip\nd = z\n[tasks]\nybe\n", 5, "d must")


def test_bad_budget_is_a_validation_error(tmp_path, capsys):
    for value in ("z", "0", "[3]"):
        _assert_validation_exit(
            tmp_path, capsys,
            "[field]\nm = 1\n[space]\nkind = flip\nd = 2\nbudget = %s\n"
            "[tasks]\nybe\n" % value, 6, "budget")
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 1\n[space]\nkind = flip\nd = 2\nbudget = 13\n"
        "[tasks]\nybe\n", 6, "global limit")


def test_unparsable_cache_entry_is_recomputed(tmp_path):
    job = parse_spec(TWODIM_JOB)
    cache = tmp_path / "cache"
    first = run(job, cache_dir=str(cache))
    entries = sorted(cache.glob("*.json"))
    assert len(entries) == 2
    intact = entries[1].read_bytes()
    entries[0].write_bytes(entries[0].read_bytes()[:5])
    second = run(job, cache_dir=str(cache))
    flags = {t["name"]: t["cached"] for t in second.tasks}
    assert sorted(flags.values()) == [False, True]
    assert [t["result"] for t in second.tasks] == [t["result"] for t in first.tasks]
    assert entries[1].read_bytes() == intact
    json.loads(entries[0].read_text())  # rewritten in full
    third = run(job, cache_dir=str(cache))
    assert [t["cached"] for t in third.tasks] == [True, True]


def test_jobs_flag_does_not_repeat_shared_work(tmp_path, capsys, monkeypatch):
    # --jobs is accepted and ignored: tasks sharing a tower build it once
    import pathlib

    import braidcalc.tower as tower

    calls = []
    step = tower.symmetric_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(tower, "symmetric_step", counted)
    jobfile = pathlib.Path(__file__).resolve().parent.parent / "jobs" / \
        "root_of_unity_scalar.job"
    counts = {}
    for jobs in ("1", "2"):
        del calls[:]
        assert main(["--input", str(jobfile), "--no-cache", "--jobs", jobs,
                     "--output", str(tmp_path / "report.json")]) == 0
        capsys.readouterr()
        counts[jobs] = len(calls)
    assert 0 < counts["2"] <= counts["1"]


@pytest.mark.parametrize("task, phrase", [
    ("nichols = z", "non-negative integer"),
    ("nichols = -3", "non-negative integer"),
    ("e_spaces = 5..2", "is empty"),
    ("sdeg = 1..3", "non-negative integer"),
    ("ybe = 3", "at most 0 arguments"),
    ("e_spaces = 2, 2, 7", "at most 2 arguments"),
    ("e_spaces = 2..4, 5", "at most 2 arguments"),
    ("nichols = 3, 9", "at most 1 arguments"),
])
def test_bad_task_argument_is_a_validation_error(tmp_path, capsys, task, phrase):
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 1\n[space]\nkind = flip\nd = 2\n[tasks]\nybe\n%s\n"
        % task, 8, phrase)


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_degree_override_below_one_is_rejected(tmp_path, capsys, degree):
    jobfile = tmp_path / "job.txt"
    jobfile.write_text(TWODIM_JOB)
    assert main(["--input", str(jobfile), "--no-cache",
                 "--degree", degree]) == 1
    captured = capsys.readouterr()
    assert "--degree" in captured.err and not captured.out


def test_edited_cache_entry_is_recomputed(tmp_path):
    job = parse_spec(TWODIM_JOB)
    cache = tmp_path / "cache"
    fresh = run(job, cache_dir=str(cache))
    entry = next(p for p in cache.glob("*.json")
                 if b'{"dims":[1,2,' in p.read_bytes())
    edited = entry.read_bytes().replace(b'{"dims":[1,2,', b'{"dims":[1,3,')
    assert edited != entry.read_bytes()
    json.loads(edited)  # still valid JSON
    entry.write_bytes(edited)
    second = run(job, cache_dir=str(cache))
    assert [t["result"] for t in second.tasks] == \
        [t["result"] for t in fresh.tasks]
    flags = {t["name"]: t["cached"] for t in second.tasks}
    assert flags == {"sdeg": True, "nichols": False}
    assert run(job, cache_dir=str(cache)).tasks[1]["cached"]


def test_documented_task_arguments_parse():
    # the [tasks] block of the README's job grammar, root exponent -1 included
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parent.parent /
              "README.md").read_text(encoding="utf-8")
    block = readme.split("\n[tasks]\n", 1)[1].split("```", 1)[0]
    job = parse_spec("[field]\nm = 4\n[space]\nkind = scalar\nd = 2\nq = z\n"
                     "[tasks]\n" + block)
    assert dict(job.tasks)["pareigis"] == (2, -1)
    assert {name for name, _ in job.tasks} == set(TASKS)


def test_no_cli_code_branches_on_a_task_name():
    # a task's rules live in its TASKS entry: no `name == "..."` or
    # `name in (...)` test elsewhere, and one entry per task
    import ast

    import braidcalc.cli as cli

    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TASKS")
    assert [key.value for key in table.keys] == list(TASKS)
    named = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and getattr(node.left, "id", None) == "name"
             and any(isinstance(c, ast.Constant) and c.value in TASKS
                     for comp in node.comparators for c in ast.walk(comp))]
    assert named == []


PAREIGIS_JOB = "[field]\nm = 4\n[space]\nkind = scalar\nd = 2\nq = z\n" \
    "[tasks]\npareigis = %s\n"


def test_pareigis_root_exponent_is_taken_mod_the_arity():
    # z^-1 and z^3 are the same primitive fourth root
    reports = [run(parse_spec(PAREIGIS_JOB % args)).tasks[0]["result"]
               for args in ("4, -1", "4, 3")]
    assert reports[0] == reports[1]
    assert reports[0]["zeta"] == "-z"


def test_pareigis_exponent_not_coprime_to_the_arity(tmp_path, capsys):
    _assert_validation_exit(tmp_path, capsys, PAREIGIS_JOB % "4, 2", 8,
                            "not coprime")


def test_huge_dimension_is_rejected_before_any_space_is_built(
        tmp_path, capsys, monkeypatch):
    import braidcalc.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("make_braiding reached")

    monkeypatch.setattr(cli, "make_braiding", refuse)
    for kind in ("flip", "scalar\nq = 2"):
        _assert_validation_exit(
            tmp_path, capsys,
            "[field]\nm = 1\n[space]\nkind = %s\nd = 1000000000\n[tasks]\n"
            "ybe\n" % kind, 4 + kind.count("\n") + 1, "global limit")
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 1\n[space]\nkind = flip\nd = %d\n[tasks]\nybe\n"
        % (cli.MAX_DIM + 1), 5, "global limit")


@pytest.mark.parametrize("space, task, line", [
    ("kind = flip\nd = 16", "nichols = 5", 8),
    ("kind = flip\nd = 3", "e_spaces = 2..11", 8),
    ("kind = preset\nname = d4_rack\nbudget = 12", "sdeg = 9", 9),
    ("kind = preset\nname = cartan_An\nn = 16", "nichols_tower = 5", 9),
    ("kind = diagonal\nq = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]",
     "pbw = 9, 2", 8),
])
def test_task_degree_is_capped_by_the_word_count(tmp_path, capsys, space,
                                                  task, line):
    _assert_validation_exit(
        tmp_path, capsys,
        "[field]\nm = 1\n[space]\n%s\n[tasks]\nybe\n%s\n" % (space, task),
        line, "words")


def test_word_cap_admits_the_largest_degrees_in_use():
    for space, task in (("flip\nd = 2", "sdeg = 12"),
                        ("preset\nname = d4_rack", "nichols = 8"),
                        ("flip\nd = 16", "nichols = 4"),
                        ("preset\nname = twodim_sdeg2\nbudget = 12",
                         "nichols = 12"),
                        ("preset\nname = gurevich", "nichols = 10"),
                        ("preset\nname = cartan_An", "sdeg = 12"),
                        ("preset\nname = hecke_gl", "nichols = 12"),
                        ("preset\nname = flip", "nichols = 12")):
        parse_spec("[field]\nm = 1\n[space]\nkind = %s\n[tasks]\n%s\n"
                   % (space, task))


def test_too_many_cartan_generators_are_reported_on_the_n_line(
        tmp_path, capsys):
    _assert_validation_exit(
        tmp_path, capsys, "[field]\nm = 3\n[space]\nkind = preset\n"
        "name = cartan_An\nn = 17\n[tasks]\nybe\n", 6, "global limit")


def test_degree_override_is_capped_by_the_word_count(tmp_path, capsys):
    jobfile = tmp_path / "job.txt"
    jobfile.write_text("[field]\nm = 1\n[space]\nkind = preset\n"
                       "name = d4_rack\n[tasks]\nnichols = 3\n")
    assert main(["--input", str(jobfile), "--no-cache", "--degree", "9"]) == 1
    captured = capsys.readouterr()
    assert "--degree" in captured.err and not captured.out
    # a two-generator preset without d takes the default d = 2
    jobfile.write_text("[field]\nm = 1\n[space]\nkind = preset\n"
                       "name = twodim_sdeg2\n[tasks]\nnichols = 3\n")
    assert main(["--input", str(jobfile), "--no-cache", "--degree", "9"]) == 0
    # Hilbert series (1 + t)^2 (1 + t^2), zero above degree 4
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"]["dims"] \
        == [1, 2, 2, 2, 1, 0, 0, 0, 0, 0]


def test_pl_verify_is_capped_at_the_degree_above_its_arity(tmp_path, capsys):
    # the identities at arity 4 act on 16^5 words, above MAX_WORDS = 16^4
    _assert_validation_exit(
        tmp_path, capsys, "[field]\nm = 4\n[space]\nkind = flip\nd = 16\n"
        "[tasks]\nybe\npl_verify = 4\n", 8, "degree 5 on 16 generators")
    # arity 3 works in 16^4 words, at the cap
    parse_spec("[field]\nm = 12\n[space]\nkind = flip\nd = 16\n[tasks]\n"
               "pl_verify = 3\n")


def test_warm_pass_builds_no_space(tmp_path, capsys, monkeypatch):
    import braidcalc.cli as cli

    jobfile = tmp_path / "job.txt"
    jobfile.write_text(TWODIM_JOB)
    argv = ["--input", str(jobfile), "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    cold = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("make_braiding reached")

    monkeypatch.setattr(cli, "make_braiding", refuse)
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert '"cached": false' in cold
    assert warm == cold.replace('"cached": false', '"cached": true')


def test_invalid_bracket_fails_even_when_its_other_tasks_are_cached(
        tmp_path, capsys):
    cache = str(tmp_path / "cache")
    jobfile = tmp_path / "job.txt"
    jobfile.write_text(TWODIM_JOB)
    assert main(["--input", str(jobfile), "--cache-dir", cache]) == 0
    # two-column values on a three-dimensional E_2: not a bracket
    jobfile.write_text(TWODIM_JOB.replace(
        "[tasks]", "[bracket]\ndegree = 2\nvalues = [[1, 0]]\n\n[tasks]"))
    capsys.readouterr()
    assert main(["--input", str(jobfile), "--cache-dir", cache]) == 1
    captured = capsys.readouterr()
    assert "columns" in captured.err and not captured.out
