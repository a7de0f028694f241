import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_side():
    spec = importlib.util.spec_from_file_location(
        "bench_side", ROOT / "tools" / "bench_side.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_side_compares_a_checkout_with_itself(tmp_path, capsys):
    # Each side runs in its own interpreter; equal code gives equal rows.
    out = tmp_path / "side.json"
    assert _bench_side().main(["--compare", str(ROOT), str(ROOT), "--pairs",
                               "1", "--repeats", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all("identical" in line for line in lines[1:])
    record = json.loads(out.read_text())
    assert record["rows_identical"] is True
    pair, = record["pairs"]
    assert pair["parent"]["cases"].keys() == pair["change"]["cases"].keys()
