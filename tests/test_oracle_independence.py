"""The independent oracles share no code with the engines they check.

The naive rewriter of `check_confluence` checks the packed straightening
engine, `WitnessModel` checks the packed amplified ring, the contracting
iteration in `tests/test_curve.py` checks the Newton step of
`curve.curve_v_series`, and the dense loops of `poly` over the
hand-folded `S2Elem.__mul__` check the packed S2 series kernel of `tower`.
The two packed engines share `poly`'s Kronecker codec, so no oracle may
name it.  A helper that an oracle and its engine both called would agree
with itself, so these tests read, with `ast`, the names each oracle's
source uses.
"""

import ast
import inspect
from pathlib import Path

from powerops import amplified, curve, mpoly, opalgebra, poly, tower

NAIVE_REWRITER = ("_RULES", "_redexes", "_rewrite_once", "_reduce_word",
                  "_naive_reduce", "_word_table_to_operation")
CODEC = {"_kron_pack", "_kron_unpack"}
STRAIGHTENING = {"_merge", "_straighten", "_mono_times", "_mono_image",
                 "_raw_multiply", "_placed_sum", "_table", "COMMUTATION",
                 "RELATIONS"} | CODEC
PACKED_AMPLIFIED = {"_products", "_sum", "_cartan", "_CARTAN", "_packed",
                    "_grouped", "_peel", "_key", "_wrap", "_theta_scalar"}
S2_KERNEL = ("_s2_split", "_s2_pack", "_s2_numerator", "_s2_accumulate",
             "_s2_product", "_s2_reciprocal")
DENSE_LOOPS = ("_dense_mul", "_series_reciprocal")


def top_level(source):
    """{name: ast node} of the top-level definitions (def, class or
    assignment to one name) in the source text."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node
    return found


def definitions(module, names):
    """The top-level definitions of the given names in module's source, as
    ast nodes."""
    found = top_level(inspect.getsource(module))
    assert set(names) <= set(found)
    return [found[name] for name in names]


def used_names(nodes):
    """The names the nodes read: bare names, and attributes of anything but
    self (a method of the oracle's own, like `WitnessModel._cartan`, is its
    own copy)."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and not (
                    isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                out.add(sub.attr)
    return out


def test_mpoly_imports_only_from_poly():
    tree = ast.parse(inspect.getsource(mpoly))
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            sources.add("." * node.level + (node.module or ""))
    assert sources == {".poly"}


def test_witness_model_names_no_packed_helper():
    used = used_names(definitions(amplified, ["WitnessModel"]))
    assert "MPoly" in used
    assert not used & PACKED_AMPLIFIED


def test_naive_rewriter_names_no_straightening_helper():
    used = used_names(definitions(opalgebra, NAIVE_REWRITER))
    assert "_reduce_word" in used
    shared = {n for n in used if n in STRAIGHTENING or n.startswith("_times")}
    assert not shared


def test_contracting_oracle_names_no_curve_helper():
    source = (Path(__file__).resolve().parent / "test_curve.py").read_text()
    used = used_names([top_level(source)["contracting_v_series"]])
    assert "Series" in used
    assert not used & set(top_level(inspect.getsource(curve)))


def test_s2_product_names_no_kernel_helper():
    (s2,) = definitions(tower, ["S2Elem"])
    (mul,) = [node for node in s2.body
              if isinstance(node, ast.FunctionDef) and node.name == "__mul__"]
    used = used_names([mul])
    assert "c3" in used
    assert not used & (set(S2_KERNEL) | CODEC)


def test_s2_kernel_names_no_dense_loop():
    used = used_names(definitions(tower, S2_KERNEL))
    assert "SFrac" in used and CODEC <= used
    assert not used & set(DENSE_LOOPS)


def test_dense_loops_name_no_codec_helper():
    used = used_names(definitions(poly, DENSE_LOOPS))
    assert "enumerate" in used
    assert not used & CODEC
