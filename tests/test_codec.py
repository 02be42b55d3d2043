"""The snapshot codec's tables round-trip exactly.

For worlds with empty registries, nested tables inside tables, fields
left at and moved off their defaults, pending runs whose parsed template
is cached, and seeded random operation walks: loading a world's JSON
snapshot and dumping it again gives the same text, and every table's
`fields` header is its record's field names in order, over one column
per field, all of one length. A `record` class
takes its fields, as a dataclass would, and compares by identity.
"""

import json
import random
import re

import pytest

from conftest import TEMPLATES
from minimano.codec import (
    PLAIN,
    Ids,
    field,
    fields,
    id_index,
    keyed,
    listed,
    record,
)
from minimano.errors import MiniManoError
from minimano.hot import parse_template
from minimano.world import SNAPSHOT_VERSION, World
from test_state_v1 import REGISTRIES, SCHEDULES, build_fixture_world


def names(cls) -> list:
    return [f.name for f in fields(cls)]


def round_trip(world) -> dict:
    """The world's snapshot, after checking that it loads and dumps again
    as the same text."""
    text = json.dumps(world.to_snapshot(), separators=(",", ":"))
    again = json.dumps(World.from_snapshot(json.loads(text)).to_snapshot(), separators=(",", ":"))
    assert again == text
    return json.loads(text)


def assert_table(table, cls, nested):
    assert table["fields"] == names(cls), cls
    assert len(table["columns"]) == len(names(cls)), cls
    assert len(set(map(len, table["columns"]))) == 1, cls
    for column, row_cls in nested.items():
        for inner in table["columns"][names(cls).index(column)]:
            assert_table(inner, row_cls, {})


def assert_headers(snapshot):
    for section, registries in REGISTRIES.items():
        for name, (cls, nested) in registries.items():
            assert_table(snapshot[section][name], cls, nested)
    for name, cls in SCHEDULES.items():
        assert_table(snapshot["telemetry"][name], cls, {})


def empty_world():
    return World(seed=1, _bootstrap=False)


def fixture_world():
    return build_fixture_world()


def cached_doc_world():
    world = build_fixture_world()
    assert world.engine.runs
    for run in world.engine.runs.values():
        assert run.doc is not None
        assert "doc" in vars(run)  # the cached property sits beside the fields
    return world


def random_world(seed, steps=60):
    """A world after a seeded walk of operations; an operation that the
    world refuses is skipped."""
    rng = random.Random(seed)
    world = World(seed=seed, template_dir=str(TEMPLATES))
    identity, provider, telemetry, engine = (
        world.identity, world.provider, world.telemetry, world.engine)
    admin = identity.tenant_by_name("admin").id
    token = identity.authenticate("admin", "admin", "admin").id
    provider.register_image(admin, "ubuntu_cloud14", b"img", generic=rng.random() < 0.5)
    provider.create_flavor(admin, "m1.small", 1, 512, 1)
    provider.create_network(admin, "my_net1", "10.0.0.0/24")
    provider.create_keypair(admin, "my_key1")
    spec = {"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]}
    template = (TEMPLATES / "example2.yaml").read_text()

    def instance():
        return rng.choice(list(provider.instances))

    def volume():
        return rng.choice(list(provider.volumes))

    ops = [
        lambda: provider.launch_instance(admin, spec),
        lambda: provider.terminate_instance(instance()),
        lambda: provider.crash_instance(instance()),
        lambda: provider.create_volume(admin, rng.randint(1, 3)),
        lambda: provider.snapshot_volume(volume()),
        lambda: provider.attach_volume(volume(), instance()),
        lambda: provider.associate_floating_ip(provider.allocate_floating_ip(admin).id,
                                               instance()),
        lambda: provider.add_security_group_rule(admin, "default", "tcp", 22,
                                                 22 + rng.randint(0, 9)),
        lambda: provider.put_object(admin, "c", f"o{rng.randint(0, 3)}", b"x"),
        lambda: telemetry.record_metric(instance(), "cpu_util", rng.random()),
        lambda: telemetry.create_group(f"g{rng.randint(0, 2)}", admin, spec, 0, 2, 1),
        lambda: telemetry.create_alarm(f"a{rng.randint(0, 2)}", "cpu_util", "avg", "gt",
                                       rng.random(), 2, rng.choice(list(telemetry.groups)),
                                       "scale_out"),
        lambda: world.advance_clock(rng.randint(1, 3)),
        lambda: engine.create_stack(f"s{rng.randint(0, 99)}", parse_template(template), {},
                                    token=token),
        lambda: engine.delete_stack(rng.choice(list(engine.stacks)), token),
        lambda: identity.create_tenant(f"t{rng.randint(0, 99)}", token),
    ]
    for _ in range(steps):
        try:
            rng.choice(ops)()
        except (MiniManoError, IndexError):  # refused, or nothing to pick from
            pass
    return world


WORLDS = {"empty": empty_world, "fixture": fixture_world, "cached-doc": cached_doc_world,
            **{f"random-{seed}": lambda seed=seed: random_world(seed) for seed in range(8)}}


@pytest.mark.parametrize("name", WORLDS)
def test_world_snapshot_round_trips_with_declared_headers(name):
    snapshot = round_trip(WORLDS[name]())
    assert snapshot["v"] == SNAPSHOT_VERSION
    assert_headers(snapshot)


def test_empty_world_has_empty_tables():
    snapshot = round_trip(empty_world())
    stack_fields = names(REGISTRIES["engine"]["stacks"][0])
    assert snapshot["engine"]["stacks"] == {"fields": stack_fields,
                                            "columns": [[] for _ in stack_fields]}
    assert snapshot["telemetry"]["samples"]["columns"] == [[], [], [], []]


def test_random_walks_reach_every_kind_of_row():
    """The walks are only worth running if they reach the nested tables."""
    worlds = [random_world(seed) for seed in range(8)]
    assert any(stack.records for w in worlds for stack in w.engine.stacks.values())
    assert any(v.snapshots for w in worlds for v in w.provider.volumes.values())
    assert any(len(g.rules) > 2 for w in worlds for g in w.provider.secgroups.values())
    assert any(w.telemetry.alarms for w in worlds)
    assert any(v.attached_to is not None for w in worlds for v in w.provider.volumes.values())


@record
class Leaf:
    name: str
    size: int = 0


@record
class Tag:
    label: str


@record
class Node:
    id: str
    leaves: dict = field(default_factory=dict, codec=keyed(Leaf, "name"))
    tags: list = field(default_factory=list, codec=listed(Tag))
    note: str = "-"


NODES = keyed(Node, "id")


def test_codec_nests_tables_and_keeps_one_field_rows():
    nodes = {
        "a": Node("a", {"x": Leaf("x", 3), "y": Leaf("y")}, [Tag("t1"), Tag("t2")], "note"),
        "b": Node("b"),
    }
    text = json.dumps(NODES.dump(nodes, Ids()))
    assert json.loads(text) == {"fields": ["id", "leaves", "tags", "note"], "columns": [
        ["a", "b"],
        [{"fields": ["name", "size"], "columns": [["x", "y"], [3, 0]]},
         {"fields": ["name", "size"], "columns": [[], []]}],
        [{"fields": ["label"], "columns": [["t1", "t2"]]}, {"fields": ["label"], "columns": [[]]}],
        ["note", "-"],
    ]}
    loaded = NODES.load(json.loads(text), {})
    assert list(loaded) == ["a", "b"]
    assert type(loaded["a"].leaves["x"]) is Leaf
    assert type(loaded["a"].tags[1]) is Tag and loaded["a"].tags[1].label == "t2"
    assert json.dumps(NODES.dump(loaded, Ids())) == text


ROWS = "exactly the fields ['fields', 'columns']"


@pytest.mark.parametrize("table, message", [
    ({"fields": ["name"], "columns": [["x"], [3]]}, "fields ['name'] are not"),
    ({"fields": ["size", "name"], "columns": [[3], ["x"]]}, "fields ['size', 'name'] are not"),
    ({"fields": ["name", "size"], "columns": [["x"]]}, "must be a list of 2 lists"),
    ({"fields": ["name", "size"], "columns": [["x"], [3], [4]]}, "must be a list of 2 lists"),
    ({"fields": ["name", "size"], "columns": [["x", "y"], [3]]}, "one value per row"),
    ({"fields": ["name", "size"], "columns": [["x"], {"0": 3}]}, "must be a list of 2 lists"),
    ({"fields": ["name", "size"], "columns": ["x", [3]]}, "must be a list of 2 lists"),
    ({"fields": ["name", "size"], "columns": {"name": ["x"], "size": [3]}},
     "must be a list of 2 lists"),
    # a table of rows, as v6 and older stored one, of any shape
    ({"fields": ["name", "size"], "rows": [["x"]]}, ROWS),
    ({"fields": ["name", "size"], "rows": [{"name": "x", "size": 3}]}, ROWS),
    ({"fields": ["name", "size"], "rows": ["xy"]}, ROWS),
    ({"fields": ["name", "size"], "rows": {"x": 3}}, ROWS),
    ({"fields": ["name", "size"], "rows": [["x", 3]]}, ROWS),
], ids=["fields-missing", "fields-reordered", "columns-too-few", "columns-too-many",
        "columns-unequal", "column-an-object", "column-a-string", "columns-not-a-list",
        "row-too-short", "row-an-object", "row-a-string", "rows-not-a-list", "rows-table"])
def test_a_table_that_is_not_the_declared_one_is_refused(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        listed(Leaf).load(table, {})


def test_record_takes_positional_and_keyword_arguments_and_fills_defaults():
    node = Node("a", note="n")
    assert (node.id, node.leaves, node.tags, node.note) == ("a", {}, [], "n")
    leaf = Leaf(size=2, name="x")
    assert (leaf.name, leaf.size) == ("x", 2)
    assert Leaf("y").size == 0
    nodes = [Node("b", {"x": leaf}), Node(id="c", tags=[Tag("t")])]
    assert nodes[0].leaves == {"x": leaf} and nodes[0].tags == []
    assert nodes[1].leaves == {} and nodes[1].tags[0].label == "t"
    # a record compares by identity and hashes
    assert Leaf("x") != Leaf("x")
    assert hash(Leaf("x")) is not None


def test_record_calls_each_default_factory_afresh():
    first, second = Node("a"), Node("b")
    assert first.leaves is not second.leaves and first.tags is not second.tags
    first.tags.append(Tag("t"))
    assert second.tags == [] and Node("c").tags == []


@pytest.mark.parametrize("make", [
    lambda: Leaf(),
    lambda: Leaf(size=1),
    lambda: Leaf("x", 1, 2),
    lambda: Leaf("x", colour="red"),
    lambda: Leaf("x", name="y"),
], ids=["none", "missing", "too-many", "unknown", "twice"])
def test_record_refuses_a_missing_or_unknown_argument(make):
    with pytest.raises(TypeError):
        make()


def test_record_lists_fields_in_annotation_order():
    assert [f.name for f in fields(Node)] == ["id", "leaves", "tags", "note"]
    assert [f.codec is PLAIN for f in fields(Node)] == [True, False, False, True]
    assert fields(Tag)[0].name == "label"

    @record
    class Empty:
        pass

    assert fields(Empty) == () and type(Empty()) is Empty


@pytest.mark.parametrize("default", [[], {}, set()], ids=["list", "dict", "set"])
def test_record_refuses_a_mutable_default(default):
    with pytest.raises(ValueError):
        @record
        class Shared:
            items: object = default

    with pytest.raises(ValueError):
        @record
        class SharedField:
            items: object = field(default=default)


@record
class Part:
    id: str = field(ref=True)
    owner: str | None = field(default=None, ref=True)


@record
class Whole:
    name: str
    id: str = field(ref=True)
    parts: list = field(default_factory=list, codec=listed(Part))


WHOLES = listed(Whole)


def test_ref_columns_store_each_string_once_nested_tables_first():
    wholes = [Whole("w1", "a", [Part("p", "a"), Part("q")]), Whole("w2", "b", [Part("p", "b")])]
    ids = Ids()
    table = json.loads(json.dumps(WHOLES.dump(wholes, ids)))
    # the nested tables in row order, each column by column, then the
    # `id` column; a null is no id
    assert list(ids) == ["p", "q", "a", "b"]
    assert table == {"fields": ["name", "id", "parts"], "columns": [
        ["w1", "w2"], [2, 3],
        [{"fields": ["id", "owner"], "columns": [[0, 1], [2, None]]},
         {"fields": ["id", "owner"], "columns": [[0], [3]]}],
    ]}
    loaded = WHOLES.load(table, id_index(list(ids)))
    assert [(w.name, w.id, [(p.id, p.owner) for p in w.parts]) for w in loaded] == [
        ("w1", "a", [("p", "a"), ("q", None)]), ("w2", "b", [("p", "b")])]


@pytest.mark.parametrize("cell", [-1, 4, True, 1.0, "a", None, [0]],
                         ids=["negative", "past-the-end", "bool", "float", "text", "null",
                              "list"])
def test_a_ref_cell_that_names_no_entry_is_refused(cell):
    table = {"fields": ["name", "id", "parts"],
             "columns": [["w"], [cell], [{"fields": ["id", "owner"], "columns": [[], []]}]]}
    with pytest.raises(ValueError, match="Whole id must be"):
        WHOLES.load(table, id_index(["p", "a", "q", "b"]))


@pytest.mark.parametrize("ids", [["a", 1], ["a", None], "ab", {"0": "a"}])
def test_an_ids_table_of_anything_but_strings_is_refused(ids):
    with pytest.raises(ValueError, match="ids must be a list of strings"):
        id_index(ids)


def _current(edit) -> dict:
    """The fixture world's snapshot, edited by `edit(snapshot)`."""
    snapshot = json.loads(json.dumps(build_fixture_world().to_snapshot()))
    edit(snapshot)
    return snapshot


def _rows(table):
    """A table of columns turned back into the rows v6 stored."""
    table["rows"] = [list(row) for row in zip(*table.pop("columns"))]


@pytest.mark.parametrize("edit, message", [
    (lambda s: _rows(s["events"]), "Event table must be an object of exactly the fields "
                                   "['fields', 'columns']"),
    (lambda s: _rows(s["telemetry"]["samples"]), "MetricSample table must be an object"),
], ids=["events-as-rows", "samples-as-rows"])
def test_a_table_of_rows_in_a_current_snapshot_is_refused(edit, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        World.from_snapshot(_current(edit))


# an interned name column of each of the four records that hold one
NAME_COLUMNS = [("telemetry", "samples", "metric", "MetricSample"),
                ("events", None, "kind", "Event"),
                ("provider", "instances", "flavor_name", "Instance"),
                ("provider", "instances", "state", "Instance")]


@pytest.mark.parametrize("cell", ["cpu_util", -1, "past-the-end", 1.0, True],
                         ids=["the-name-itself", "negative", "past-the-end", "float", "bool"])
@pytest.mark.parametrize("section, table, column, record", NAME_COLUMNS,
                         ids=[f"{record}.{column}" for *_, column, record in NAME_COLUMNS])
def test_an_interned_name_cell_that_is_no_index_into_ids_is_refused(section, table, column,
                                                                    record, cell):
    def edit(snapshot):
        rows = snapshot[section] if table is None else snapshot[section][table]
        rows["columns"][rows["fields"].index(column)][0] = (
            len(snapshot["ids"]) if cell == "past-the-end" else cell)

    with pytest.raises(ValueError, match=f"{record} {column} must be an index into ids"):
        World.from_snapshot(_current(edit))


def test_the_interned_names_are_stored_once():
    snapshot = build_fixture_world().to_snapshot()
    ids = snapshot["ids"]
    assert len(set(ids)) == len(ids)
    samples = snapshot["telemetry"]["samples"]
    metrics = samples["columns"][samples["fields"].index("metric")]
    assert len(metrics) > 1 and {ids[cell] for cell in metrics} == {"cpu_util"}
