"""The package namespace: names load from their home modules on first use,
and each command loads only the modules on its own path."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dividedops

from helpers import subprocess_env

# prints the modules loaded after `import dividedops`, or after running the
# command line on the given arguments
LOADED = """
import json, sys
import dividedops
if sys.argv[1:]:
    from contextlib import redirect_stdout
    from io import StringIO
    from dividedops.cli import main
    with redirect_stdout(StringIO()):
        assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""

OPERATOR_RING = {"cli", "diffop", "errors", "expr", "laurent", "scalars"}


def all_modules(*argv) -> set[str]:
    out = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True,
                         text=True, check=True, env=subprocess_env())
    return set(json.loads(out.stdout))


def loaded_modules(*argv) -> set[str]:
    """The dividedops submodules among `all_modules`."""
    return {name.removeprefix("dividedops.") for name in all_modules(*argv)
            if name.startswith("dividedops.")}


def test_package_import_loads_no_submodule():
    assert loaded_modules() == set()


@pytest.mark.parametrize("argv", [
    ("normalize", "d1[2]*x1 + x2^-3", "--p", "5", "--n", "2"),
    ("act", "d1[2]*x1 + x2^-1", "x1^5*x2 + 3", "--p", "3", "--n", "2"),
], ids=lambda argv: argv[0])
def test_operator_commands_load_only_the_operator_ring(argv):
    assert loaded_modules(*argv) == OPERATOR_RING
    assert loaded_modules(*argv, "--format", "machine") == OPERATOR_RING | {"interchange"}


SHIFT = ("--digits", "1,1;0,1", "--p", "2", "--n", "2", "--precision", "2")


@pytest.mark.parametrize("argv", [
    ("normalize", "d1[2]*x1 + x2^-3", "--p", "5", "--n", "2"),
    ("act", "d1[2]*x1 + x2^-1", "x1^5*x2 + 3", "--p", "3", "--n", "2"),
    ("sigma", *SHIFT, "apply", "d1[3]*d2[1]"),
    ("build-sigma", *SHIFT, "--out", "{images}"),
    ("extract", "{images}"),
    ("factor", "{images}"),
    ("verify", "all", "--p", "2", "--n", "1", "--precision", "2"),
], ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses(tmp_path, argv):
    # every value class is a scalars._Value: dataclasses would pull in
    # inspect, ast, dis and tokenize, a few ms of every command's start
    from dividedops.autgroup import ShiftVector, shift_generator_images
    from dividedops.interchange import dumps, images_to_dict

    images = tmp_path / "sigma.json"
    shift = ShiftVector.from_digits([[1, 1], [0, 1]], 2)
    images.write_text(dumps(images_to_dict(shift_generator_images(shift))))
    loaded = all_modules(*(arg.format(images=images) for arg in argv))
    assert not loaded & {"dataclasses", "inspect"}


def test_public_names_are_their_home_modules_objects():
    assert len(dividedops.__all__) == 44
    listed = dir(dividedops)
    for name in dividedops.__all__:
        value = getattr(dividedops, name)
        home = sys.modules[f"dividedops.{dividedops._HOMES[name]}"]
        assert getattr(home, name) is value, name
        assert name in listed, name


def test_public_names_follow_a_rebinding_in_their_home(monkeypatch):
    from dividedops import autgroup

    def stand_in(g):
        return g

    monkeypatch.setattr(autgroup, "factorize", stand_in)
    assert dividedops.factorize is stand_in


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dividedops.no_such_name
    assert not hasattr(dividedops, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dividedops import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == dividedops.__all__
    assert namespace["DiffOp"] is sys.modules["dividedops.diffop"].DiffOp


def test_products_below_the_gate_never_load_theta():
    # a left factor of fewer than TABLE_PARTS parts takes the Leibniz loop
    # and never imports theta; one of TABLE_PARTS parts at p = 3 times x^5
    # asks theta's rule, and equals the Leibniz answer whichever engine runs
    code = """
import sys
from dividedops.diffop import TABLE_PARTS, DiffOp, leibniz
from dividedops.laurent import LaurentPoly
right = DiffOp.monomial(3, 1, (5,))
small = DiffOp(3, 1, {(b,): LaurentPoly.one(3, 1) for b in range(1, TABLE_PARTS)})
assert small * right == leibniz(small, right) and small * small
print("dividedops.theta" in sys.modules)
op = DiffOp(3, 1, {(b,): LaurentPoly.one(3, 1) for b in range(1, TABLE_PARTS + 1)})
assert len(op.parts) == 8 and op * right == leibniz(op, right)
print("dividedops.theta" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=subprocess_env())
    assert out.stdout == "False\nTrue\n"


def test_shift_commands_skip_the_tables(tmp_path):
    # sigma, build-sigma and extract act by shifts alone: no table, no theta
    images = str(tmp_path / "sigma.json")
    shift = ["--digits", "0,2,1;2,0,1", "--p", "3", "--n", "2", "--precision", "3"]
    sigma = loaded_modules("sigma", *shift, "apply", "d1[5]*d2[7]")
    assert sigma == OPERATOR_RING | {"autgroup", "report"}
    assert loaded_modules("build-sigma", *shift, "--out", images) == sigma | {"interchange"}
    assert loaded_modules("extract", images, "--p", "3", "--n", "2", "--precision", "3") \
        == sigma | {"interchange"}
    assert loaded_modules("factor", images, "--p", "3", "--n", "2", "--precision", "3") \
        == sigma | {"interchange"}
    # with tau != 1 the closed form reads its expansions off theta
    from dividedops.autgroup import FactoredAut, MonomialAut, ShiftVector
    from dividedops.interchange import dumps, images_to_dict

    twisted = FactoredAut(ShiftVector.from_digits([[0, 2, 1], [2, 0, 1]], 3),
                          MonomialAut.create(((2, 1), (1, 1)), (2, 1), 3))
    (tmp_path / "aut.json").write_text(dumps(images_to_dict(twisted.to_images())))
    assert "theta" in loaded_modules("factor", str(tmp_path / "aut.json"), "--p", "3",
                                     "--n", "2", "--precision", "3")


def names_and_numbers(path: Path) -> tuple[set[str], set[str], set]:
    """The names a module reads or imports, those it imports from `theta`,
    and its numeric constants (docstrings and comments excluded)."""
    names, from_theta, numbers = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.module == "theta":
                from_theta.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            numbers.add(node.value)
    return names, from_theta, numbers


def test_theta_alone_decides_where_tables_are_used():
    # theta's rule answers for the cell budget and for the kernels, which
    # pack cells only up to theta.PACKED; autgroup and the product ask its
    # entry points, and the one certificate is the rebuild by the closed form
    package = Path(dividedops.__file__).parent
    for path in package.glob("*.py"):
        names, _, _ = names_and_numbers(path)
        if path.stem != "theta":
            assert not names & {"TABLE_CELLS", "PACKED"}, path.name
    names, from_theta, numbers = names_and_numbers(package / "autgroup.py")
    assert from_theta <= {"expansion", "validation_tables"}
    assert not names & {"ThetaTable", "binomial_row", "tables_fit", "table_certificate"}
    assert 16 not in numbers
    # the product asks the rule and takes its engine, nothing more
    _, from_theta, _ = names_and_numbers(package / "diffop.py")
    assert from_theta == {"product_digits", "table_product"}
