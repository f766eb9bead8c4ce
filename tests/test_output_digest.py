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
    for _ in range(2):
        assert tool.main([str(path)]) == 0
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
    # V, dB, dBperp and v0 of the first fixed bundle and V, dB and v0 of the second
    assert len(digests) == 2 * 15 + 7
    bundles = [d[1] for d in digests if d[1].startswith("bundle/")]
    assert bundles == [
        f"bundle/{case}/{field}"
        for case, fields in zip(tool.BUNDLE_CASES, (("V", "dB", "dBperp", "v0"), ("V", "dB", "v0")))
        for field in fields
    ]
    assert lines[-1].startswith("code lines in src/roughmerton: ")


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing\n\n\ndef f():\n    """Doc."""\n    return """a\nb"""\n')
    assert load_tool().code_lines(str(src)) == 4
