"""Top-level public API: compress/decompress, dispatch, docs example."""

import ast
import importlib

import numpy as np
import pytest

import repro
from repro import RelativeBound, compress, decompress


class TestPublicApi:
    def test_readme_quickstart(self):
        data = np.random.default_rng(0).lognormal(size=(16, 16, 16)).astype(np.float32)
        blob = compress(data, RelativeBound(1e-2))
        recon = decompress(blob)
        assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

    def test_default_compressor_is_sz_t(self):
        data = np.ones((8, 8), dtype=np.float32)
        blob = compress(data, RelativeBound(1e-3))
        assert repro.Container.from_bytes(blob).codec == "SZ_T"

    def test_named_compressor(self):
        data = np.abs(np.random.default_rng(1).normal(1, 0.1, (8, 8))).astype(np.float32)
        blob = compress(data, RelativeBound(1e-2), compressor="ZFP_T")
        assert repro.Container.from_bytes(blob).codec == "ZFP_T"
        recon = decompress(blob)
        assert np.abs(recon - data).max() <= 1e-2 * np.abs(data).min() * 10

    def test_compressor_instance(self):
        data = np.ones((8, 8), dtype=np.float32) * 5
        comp = repro.make_sz_t()
        blob = compress(data, RelativeBound(1e-3), compressor=comp)
        np.testing.assert_allclose(decompress(blob), data, rtol=1e-3)

    def test_decompress_garbage_rejected(self):
        with pytest.raises(Exception):
            decompress(b"not a stream")

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


#: Packages whose ``__init__`` re-exports its submodules' names on first use.
LAZY_PACKAGES = (
    "repro", "repro.observe", "repro.encoding", "repro.compressors",
    "repro.compressors.sz", "repro.compressors.zfp", "repro.core", "repro.resilience",
    "repro.parallel", "repro.safeguards", "repro.metrics", "repro.data",
)


def _static_bindings(path: str) -> dict[str, str | None]:
    """Names bound at module level of ``path``, imports inside ``if TYPE_CHECKING:``
    included (what a linter sees): ``{name: module imported from, or None}``."""
    tree = ast.parse(open(path).read())
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            body += node.body
    bound: dict[str, str | None] = {}
    for node in body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = None
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound[leaf.id] = None
    return bound


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_and_stay_statically_bound(package):
    module = importlib.import_module(package)
    bound = _static_bindings(module.__file__)
    for name in module.__all__:
        assert name in bound, f"{package}.__all__ names unbound {name!r}"
        assert name in dir(module), name
        value = getattr(module, name)
        if bound[name] is not None:
            # The runtime export is the object its static import names.
            assert value is getattr(importlib.import_module(bound[name]), name), name
