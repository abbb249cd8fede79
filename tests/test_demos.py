"""The demos and the README's library snippet run against the library as it
stands: each demo runs to completion, and every howlkit name that any of
them uses exists."""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(tmp_path, name):
    # run a copy, so the demo writes its artifacts under tmp_path
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def howlkit_names(source):
    """Dotted path of every howlkit name a script imports, and of every
    attribute chain it reads off one (``KalmanAhs.for_scene`` ->
    ``howlkit.KalmanAhs.for_scene``)."""
    tree = ast.parse(source)
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "howlkit":
                    local = alias.asname or "howlkit"
                    bound[local] = alias.name if alias.asname else "howlkit"
                    names.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "howlkit":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id]] + chain[::-1]))
    return names


def resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def readme_library_snippets():
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, flags=re.S))


@pytest.mark.parametrize("name", DEMOS + ["README.md"])
def test_every_howlkit_name_used_exists(name):
    if name == "README.md":
        source = readme_library_snippets()
    else:
        source = (ROOT / "demos" / name).read_text()
    names = howlkit_names(source)
    assert names, f"{name} uses no howlkit name"
    assert [n for n in sorted(names) if not resolves(n)] == []


def test_name_check_sees_through_imports_and_attributes():
    source = ("import howlkit.training as T\nfrom howlkit import SceneSampler as S\n"
              "S.from_json(T.make_default_nets, T.gone.deeper)\n")
    names = howlkit_names(source)
    assert names == {"howlkit.training", "howlkit.SceneSampler",
                     "howlkit.SceneSampler.from_json", "howlkit.training.make_default_nets",
                     "howlkit.training.gone", "howlkit.training.gone.deeper"}
    assert [n for n in sorted(names) if not resolves(n)] == [
        "howlkit.SceneSampler.from_json", "howlkit.training.gone",
        "howlkit.training.gone.deeper"]
