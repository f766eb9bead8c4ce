import importlib.util
import json
import os

from roughmerton import cli

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "output_digest.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reruns_give_identical_digests(tmp_path, capsys):
    with open(cli._default_config_path()) as fh:
        raw = json.load(fh)
    raw["grids"] = {"n_sim": 40, "n_riccati": 50}
    raw["mc"] = {"paths": 400, "seed": 42, "block_size": 25000}
    raw["utility"]["gamma"] = [0.2, 0.5]
    path = tmp_path / "small.json"
    path.write_text(json.dumps(raw))

    tool = load_tool()
    runs = []
    kept = [str(tmp_path / "a"), str(tmp_path / "b")]
    for keep in kept:
        assert tool.main([str(path), "--keep", keep]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = runs[0]
    # every subcommand under both utilities ran, and each wrote its files
    exits = [line for line in lines if line.startswith("exit ")]
    assert len(exits) == 2 * len(cli.SUBCOMMANDS)
    digests = [line.split() for line in lines if not line.startswith(("exit ", "code lines"))]
    assert all(len(d) == 2 and len(d[0]) == 64 for d in digests)
    assert "out/small/value_exponential/value.json" in {d[1] for d in digests}
    # per utility: 2 files each from stabilizer, riccati, simulate, strategy
    # (one per gamma) and verify, value.json, and fig1-fig4 from all; then
    # V, dB, dBperp and v0 of each of the three fixed bundles
    assert len(digests) == 2 * 15 + 12
    bundles = [d[1] for d in digests if d[1].startswith("bundle/")]
    assert bundles == [
        f"bundle/{case}/{field}" for case in tool.BUNDLE_CASES for field in ("V", "dB", "dBperp", "v0")
    ]
    # one code-line count per module, then their total
    counts = [line.rsplit(": ", 1) for line in lines if line.startswith("code lines")]
    modules = sorted(name for name in os.listdir(os.path.dirname(cli.__file__)) if name.endswith(".py"))
    assert [label for label, _ in counts] == [f"code lines in src/roughmerton/{m}" for m in modules] + [
        "code lines in src/roughmerton"
    ]
    assert sum(int(n) for _, n in counts[:-1]) == int(counts[-1][1]) > 0
    assert lines[-1].startswith("code lines in src/roughmerton: ")

    # the kept trees hold every emitted file, and two reruns read 0 throughout
    assert tool.main(["--compare", *kept]) == 0
    compared = capsys.readouterr().out.splitlines()
    emitted = sorted(d[1] for d in digests if not d[1].startswith("bundle/"))
    assert [line.split()[1] for line in compared] == emitted
    assert {line.split()[0] for line in compared} == {"0"}


def test_compare_reads_a_perturbation(tmp_path, capsys):
    tool = load_tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "run").mkdir(parents=True)
        (tree / "run" / "psi.csv").write_text("# seed=1\n0,1\n0.5,-2.5\n")
        (tree / "run" / "value.json").write_text('{"passed": true, "values": {"gamma_0.2": [0.0, 4.0]}}\n')
    (trees[1] / "run" / "psi.csv").write_text("# seed=1\n0,1\n0.5,-2.5000000005\n")
    assert tool.main(["--compare", *map(str, trees)]) == 0
    assert capsys.readouterr().out.splitlines() == ["2e-10 run/psi.csv", "0 run/value.json"]
    # a moved verdict or a missing file is not a difference of numbers
    (trees[1] / "run" / "value.json").write_text('{"passed": false, "values": {"gamma_0.2": [0.0, 4.0]}}\n')
    (trees[0] / "run" / "fig1.csv").write_text("0\n")
    assert tool.main(["--compare", *map(str, trees)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {trees[0]} run/fig1.csv",
        "2e-10 run/psi.csv",
        "differs beyond its numbers run/value.json",
    ]


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing\n\n\ndef f():\n    """Doc."""\n    return """a\nb"""\n')
    assert load_tool().code_lines(str(src)) == 4
