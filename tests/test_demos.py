"""The demos and the README's library snippet run against the library as it
stands: each demo runs to completion, and every howlkit name that any of
them uses exists."""

import ast
import importlib
import inspect
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


def _bindings(tree):
    """The dotted path of every howlkit name ``tree`` imports, and a map from
    each local name it binds to the dotted path it stands for."""
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
    return names, bound


def _dotted(node, bound):
    """The dotted howlkit path of a name or attribute chain, else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id]] + chain[::-1])
    return None


def howlkit_names(source):
    """Dotted path of every howlkit name a script imports, and of every
    attribute chain it reads off one (``KalmanAhs.for_scene`` ->
    ``howlkit.KalmanAhs.for_scene``)."""
    tree = ast.parse(source)
    names, bound = _bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node, bound)
            if dotted:
                names.add(dotted)
    return names


def howlkit_calls(source):
    """(dotted path, positional count or None, keyword names) of every call
    of a howlkit name; the count is None when a ``*args`` is passed, and a
    ``**kwargs`` passes no names."""
    tree = ast.parse(source)
    bound, calls = _bindings(tree)[1], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func, bound)
            if dotted:
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((dotted, None if starred else len(node.args),
                              tuple(k.arg for k in node.keywords if k.arg is not None)))
    return calls


def resolve(dotted):
    """The object a dotted path names, or None when it names nothing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return None
    return obj


def resolves(dotted):
    return resolve(dotted) is not None


def unbound_calls(source):
    """Each call of a howlkit callable whose arguments do not bind to its
    signature, with the reason."""
    bad = []
    for dotted, count, keywords in howlkit_calls(source):
        obj = resolve(dotted)
        if not callable(obj):
            continue  # a missing name is reported by resolves
        try:
            sig = inspect.signature(obj)
        except (TypeError, ValueError):
            continue  # builtins without a signature
        try:
            sig.bind_partial(*[None] * (count or 0), **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append(f"{dotted}: {exc}")
    return bad


def readme_library_snippets():
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, flags=re.S))


def sources(name):
    """The scripts a case reads: one demo, the README's library snippets,
    or each benchmark module (the benchmark is only read here)."""
    if name == "README.md":
        return [readme_library_snippets()]
    if name == "perfbench":
        return [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return [(ROOT / "demos" / name).read_text()]


@pytest.mark.parametrize("name", DEMOS + ["README.md", "perfbench"])
def test_every_howlkit_name_used_exists(name):
    names, bad = set(), []
    for source in sources(name):
        names |= howlkit_names(source)
        bad += unbound_calls(source)
    assert names, f"{name} uses no howlkit name"
    assert [n for n in sorted(names) if not resolves(n)] == []
    assert bad == []


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


def test_call_check_binds_keywords_to_signatures():
    source = ("import howlkit\nfrom howlkit.training import TrainConfig as T\n"
              "T(epochs=1, duration=2.0)\nT(epochs=1, optimizer='sgd')\n"
              "howlkit.KalmanAhs.for_scene(scene, mask_net=None)\n"
              "howlkit.KalmanAhs(1.0, 2400, stop_grad_filter=True)\n"
              "howlkit.sdr(*pair)\nhowlkit.sdr(a, b, c)\nhowlkit.sdr(**kw)\n")
    assert howlkit_calls(source)[:2] == [("howlkit.training.TrainConfig", 0,
                                          ("epochs", "duration")),
                                         ("howlkit.training.TrainConfig", 0,
                                          ("epochs", "optimizer"))]
    assert [line.split(":")[0] for line in unbound_calls(source)] == [
        "howlkit.training.TrainConfig", "howlkit.KalmanAhs", "howlkit.sdr"]
