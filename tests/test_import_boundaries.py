"""Each command imports only the code its run executes.

The optional stacks — the HTTP client and server, the multiprocessing shard
fleet, the SPARQL engine and the ShEx → SPARQL compiler — load on first
use, so a ``repro validate`` or a plain ``repro serve`` never pays for
them, and neither run imports anything outside the standard library and
``repro``.  Both runs happen in a fresh interpreter and report the modules
they added to ``sys.modules``; nothing here measures time.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.service
import repro.shex

SRC = str(Path(repro.__file__).resolve().parent.parent)

PERSON_SHEX = """PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
<Person> {
  foaf:age   xsd:integer ,
  foaf:name  xsd:string + ,
  foaf:knows @<Person> *
}
"""
PEOPLE_TTL = """@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://example.org/> .
ex:john foaf:age 23 ; foaf:name "John" ; foaf:knows ex:bob .
ex:bob foaf:age 34 ; foaf:name "Bob", "Robert" .
ex:mary foaf:age 50 .
"""

#: modules neither command may load without asking for them.
NEVER_LOADED = (
    "multiprocessing",
    "repro.sparql",
    "repro.shex.sparql_gen",
    "repro.service.client",
    "repro.service.fleet",
    "repro.service.sharding",
)

# Runs the CLI in-process and prints the names of the modules loaded since
# interpreter start-up as one JSON line.  For ``serve`` it does so on the
# listening line and exits at once.
RUNNER = r"""
import sys
STARTUP = set(sys.modules)
import json, os
from repro.cli import main

def dump(stream):
    added = sorted(set(sys.modules) - STARTUP)
    stream.write("MODULES " + json.dumps(added) + "\n")
    stream.flush()

class OnListening:
    def __init__(self, stream):
        self.stream = stream
    def write(self, text):
        self.stream.write(text)
        if text.startswith("serve: listening"):
            self.stream.write("\n")
            dump(self.stream)
            os._exit(0)
        return len(text)
    def flush(self):
        self.stream.flush()

sys.stderr = OnListening(sys.stderr)
code = main(sys.argv[1:])
dump(sys.stderr)
sys.exit(code)
"""


def run_cli(args, tmp_path: Path):
    (tmp_path / "person.shex").write_text(PERSON_SHEX)
    (tmp_path / "people.ttl").write_text(PEOPLE_TTL)
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", RUNNER, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120)
    lines = [line for line in completed.stderr.splitlines()
             if line.startswith("MODULES ")]
    assert len(lines) == 1, completed.stderr
    return completed, set(json.loads(lines[0][len("MODULES "):]))


def loaded(modules, banned):
    return sorted(name for name in modules
                  if any(name == ban or name.startswith(ban + ".") for ban in banned))


def third_party(modules):
    return sorted(name for name in modules
                  if name.split(".")[0] not in sys.stdlib_module_names | {"repro"})


def test_validate_loads_no_optional_stack(tmp_path):
    completed, modules = run_cli(
        ["validate", "--data", "people.ttl", "--schema", "person.shex",
         "--all-nodes", "--format", "csv"], tmp_path)
    assert completed.returncode == 1  # ex:mary has no name
    assert "repro.shex.validator" in modules
    banned = NEVER_LOADED + ("http.server", "http.client", "repro.service.server")
    assert loaded(modules, banned) == []
    assert third_party(modules) == []


def test_serve_without_shards_loads_no_fleet_or_sparql(tmp_path):
    completed, modules = run_cli(
        ["serve", "--schema", "person.shex", "--data", "people.ttl",
         "--host", "127.0.0.1", "--port", "0"], tmp_path)
    assert completed.returncode == 0
    assert re.search(r"^serve: listening on http://127\.0\.0\.1:\d+ \(shards=0\)$",
                     completed.stderr, re.MULTILINE), completed.stderr
    assert "repro.service.server" in modules
    assert loaded(modules, NEVER_LOADED) == []
    assert third_party(modules) == []


@pytest.mark.parametrize("package", [repro, repro.shex, repro.service],
                         ids=lambda package: package.__name__)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


def test_lazy_names_are_the_defining_modules_objects():
    from repro.service.client import ServiceClient
    from repro.service.sharding import ShardedValidator
    from repro.shex.sparql_gen import SparqlEngine

    assert repro.service.ServiceClient is ServiceClient
    assert repro.service.ShardedValidator is ShardedValidator
    assert repro.shex.SparqlEngine is SparqlEngine
    with pytest.raises(AttributeError):
        repro.service.NoSuchName
    with pytest.raises(AttributeError):
        repro.shex.NoSuchName
