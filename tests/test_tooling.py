"""Source checks on the package: invariants that hold under ``python -O``, no
parameter its function never reads, no private helper without a caller, no
public helper that is neither called nor exported, no public method without
a caller, no record field that nothing reads, an import of the CLI that
loads neither ``dataclasses`` nor ``inspect``, a stage lattice built
without ``Fraction``, region moments, integral kernels and cell fields on
ints, and a clip chain that works on the vertices it is given.  On the
tests' oracles: no definition or import that nothing reads.  Last, the
committed benchmark records share one schema."""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import carpetcurl

SOURCES = sorted(Path(carpetcurl.__file__).parent.glob("*.py"))


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "witness.py", "carpet.py"}


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so no invariant may rest on one;
    # the package raises a named exception instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def reads(node):
    """(name, line) of every name the code under ``node`` reads, as a
    variable or an attribute."""
    return [(n.id if isinstance(n, ast.Name) else n.attr, n.lineno)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def loaded_names(node):
    """Every name the code under ``node`` reads, as a variable or an attribute."""
    return [name for name, _ in reads(node)]


def unread_parameters(node):
    """The parameters of a function or lambda that its body never reads."""
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    body = node.body if isinstance(node.body, list) else [node.body]
    read = {n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [a.arg for a in params
            if a is not None and a.arg not in ("self", "cls")
            and not a.arg.startswith("_") and a.arg not in read]


def test_every_parameter_is_read():
    # a parameter no function or lambda reads is a protocol nobody uses;
    # self, cls and _-prefixed names are exempt by convention
    unread = [f"{path.name}:{node.lineno} {name}"
              for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for name in unread_parameters(node)]
    assert unread == []


def test_every_private_helper_has_a_caller():
    # a private function or class (module-level, or a method) that nothing
    # in the package reads outside its own body is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES]
    loaded = Counter(name for tree in trees for name in loaded_names(tree))
    uncalled = [f"{path.name}:{node.lineno} {node.name}"
                for path, tree in zip(SOURCES, trees)
                for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
                for node in scope.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and loaded[node.name] == loaded_names(node).count(node.name)]
    assert uncalled == []


def test_every_public_helper_has_a_caller_or_is_exported():
    # a module-level public function or class that nothing in the package
    # reads outside its own body is API only if the package exports it; a
    # public method of a module-level class is read outside its own body or
    # is dead, whether or not its class is exported
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    loaded = Counter(name for tree in trees.values() for name in loaded_names(tree))
    exported = {alias.asname or alias.name
                for node in ast.walk(trees[Path(carpetcurl.__file__)])
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    def unread(node):
        return (not node.name.startswith("_")
                and loaded[node.name] == loaded_names(node).count(node.name))

    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items()
              for node in tree.body
              if isinstance(node, defs + (ast.ClassDef,)) and node.name not in exported
              and unread(node)]
    unused += [f"{path.name}:{node.lineno} {cls.name}.{node.name}"
               for path, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, defs) and unread(node)]
    assert unused == []


ROOT = Path(carpetcurl.__file__).resolve().parents[2]
# the benchmark's tracer reads package objects by attribute too
TRACER = ROOT / "perfbench" / "tracer.py"


def record_fields(cls):
    """(name, line) of each field of a record class: the annotated fields of
    a ``NamedTuple``, the names of a ``namedtuple(...)`` base and the names in
    ``__slots__``; empty for any other class."""
    fields = []
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id == "NamedTuple":
            fields += [(f.target.id, f.lineno) for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        elif isinstance(base, ast.Call) and ast.unparse(base.func) == "namedtuple":
            fields += [(name, base.lineno) for name in ast.literal_eval(base.args[1]).split()]
    fields += [(name, item.lineno) for item in cls.body
               if isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__"
               for name in ast.literal_eval(item.value)]
    return fields


def attributes_read(node):
    """Every attribute name the code under ``node`` reads."""
    return [n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]


# CarpetSpec, TailInterval, ProductVectorField, Tent, CellNeighborhood,
# FlattenedField, CellField, StageData, Row and VerificationReport
PACKAGE_RECORDS = 10


def test_every_record_field_is_read():
    # a field of a package record that nothing reads as an attribute outside
    # its own class body, in the package or the tracer, is state that no
    # caller uses; the records are counted, so a new record form that this
    # test cannot see fails it instead of passing it with nothing inspected
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in SOURCES + [TRACER]}
    read = Counter(name for tree in trees.values() for name in attributes_read(tree))
    records = [(path, cls, record_fields(cls)) for path in SOURCES for cls in trees[path].body
               if isinstance(cls, ast.ClassDef) and record_fields(cls)]
    assert len(records) == PACKAGE_RECORDS, [cls.name for _, cls, _ in records]
    unread = [f"{path.name}:{line} {cls.name}.{name}"
              for path, cls, fields in records for name, line in fields
              if read[name] == attributes_read(cls).count(name)]
    assert unread == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both modules cost more than the package's own import; -S keeps site
    # from loading anything before the package does
    script = ("import sys\n"
              "import carpetcurl.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(ROOT / "src")})
    assert out.stdout == "[]\n"


# the stage-lattice builders and the Fraction names they must not read: the
# class itself and the module constants that hold Fractions
INT_BUILDERS = {"build_tents", "_stage_layout", "build_staircase"}
FRACTION_NAMES = {"Fraction", "ZERO", "HALF"}
# the region walk, its moments and the shape part of its class key, the
# integral kernels over them, the cell fields the rows integrate and the
# layout's convexity check, by module: they run on ints and leave the one
# Fraction to their caller
INT_KERNELS = {"carpet.py": {"Prefractal._region_moments", "Prefractal._shape",
                             "Prefractal._central_digits", "Prefractal._walk", "_row_ranges",
                             "_cut_square", "_survival"},
               "geometry.py": {"poly_dot", "square_integral"},
               "witness.py": {"build_cell_field", "build_ramp", "_check_convex"}}
# the clip chain of check_local_constancy and of the walk's cut squares, by
# module, and the names that would put its polygons on a common lattice: the
# lcm, a rational's parts and the lattice and canonical-form helpers.  Only
# geometry._shift, outside the chain, makes a Fraction
GIVEN_VERTICES = {"geometry.py": {"clip_convex", "clip_halfplane"},
                  "fields.py": {"refine_pairs", "_BoxIndex"}}
LATTICE_NAMES = {"lcm", "numerator", "denominator", "_lattice_scale", "_on_lattice", "_lattice",
                 "_normalize", "normalize_polygon"}


def definitions(tree):
    """(name, node) of each module-level function and class of ``tree``, and
    of each method as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def forbidden_uses(source, names, forbidden):
    """(definition, name, line) for each forbidden name read in the named
    module-level functions, classes and ``Class.method`` methods of
    ``source``."""
    found = {name: node for name, node in definitions(ast.parse(source)) if name in names}
    if set(found) != names:
        raise LookupError(f"{sorted(names)} are not all defined")
    return [(qualified, name, line) for qualified, node in found.items()
            for name, line in reads(node) if name in forbidden]


def test_the_stage_lattice_is_built_without_fractions():
    # build_tents, _stage_layout and build_staircase emit ints on the stage
    # lattice, so they construct no Fraction and read no Fraction constant
    witness = Path(carpetcurl.__file__).parent / "witness.py"
    assert forbidden_uses(witness.read_text(encoding="utf-8"), INT_BUILDERS, FRACTION_NAMES) == []


def test_region_moments_and_kernels_are_ints():
    # the walk, the region moments it gives, the kernels that integrate over
    # them and the functions that build the cell fields construct no Fraction
    # and read no Fraction constant
    root = Path(carpetcurl.__file__).parent
    found = [(module, use) for module, names in INT_KERNELS.items()
             for use in forbidden_uses((root / module).read_text(encoding="utf-8"), names,
                                       FRACTION_NAMES)]
    assert found == []


def test_the_clip_chain_works_on_the_given_vertices():
    # clip_halfplane, clip_convex, refine_pairs and _BoxIndex neither convert
    # to Fraction nor rescale: int stage polygons and cut squares stay ints
    # but at crossings off their lattice, and the rational polygon layer
    # lives in the tests' oracles
    root = Path(carpetcurl.__file__).parent
    found = [(module, use) for module, names in GIVEN_VERTICES.items()
             for use in forbidden_uses((root / module).read_text(encoding="utf-8"), names,
                                       FRACTION_NAMES | LATTICE_NAMES)]
    assert found == []


TESTS = Path(__file__).resolve().parent


def test_every_oracle_definition_and_import_is_read():
    # a top-level function or class of tests/oracles.py is read there outside
    # its own body, or imported and read by a test module; an import is read
    # there, or passed on to a test module that reads it.  So a retired
    # oracle leaves no helper or import behind
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(TESTS.glob("*.py"))}
    oracles = trees.pop("oracles.py")
    taken = set()
    for tree in trees.values():
        taken |= {alias.asname or alias.name
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                  for alias in node.names} & set(loaded_names(tree))
    loaded = Counter(loaded_names(oracles))
    unread = [f"{node.lineno} {node.name}"
              for node in oracles.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and loaded[node.name] == loaded_names(node).count(node.name)
              and node.name not in taken]
    unread += [f"{node.lineno} {name}"
               for node in oracles.body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"
               for name in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
               if not loaded[name] and name not in taken]
    assert unread == []


# the top-level keys every committed BENCH_*.json record carries
BENCH_KEYS = {"change", "claim", "machine", "method", "outputs", "parent", "title", "workloads"}


def test_every_benchmark_record_has_the_shared_schema():
    # each record names only workloads the benchmark defines, and a claim
    # that names a metric and a workload names ones the benchmark defines
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for group in ("end_to_end", "per_layer") for m in benchmark[group]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert BENCH_KEYS <= set(record), (path.name, sorted(BENCH_KEYS - set(record)))
        assert set(record["workloads"]) <= workloads, path.name
        claim = record["claim"]
        if "metric" in claim:
            assert claim["metric"] in metrics, path.name
        if "workload" in claim:
            assert claim["workload"] in workloads, path.name
