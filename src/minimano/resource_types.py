"""The built-in resource types, each declared once.

A `ResourceType` names its mandatory and optional properties with their
kinds, the defaults deployment fills in, its attributes, and a rule per
constrained property: a function of a value of the property's kind that
gives the refusal message, or None. Template validation (`hot`) applies
them to the values a template writes out and deployment (`engine`) to
the evaluated values, so both refuse a value alike. A kind is a name
`kind_of` gives, or a resource type: the property is then a
`get_resource` naming a resource of that type, which only validation,
holding the whole document, can check.

Deleting a stack reads only the type names, so this module imports no
template layer: a delete imports no template parser.
"""

from .codec import field, positive, record, rule

SERVER_TYPE = "OS::Nova::Server"
RANDOM_STRING_TYPE = "OS::Heat::RandomString"
WAIT_CONDITION_TYPE = "OS::Heat::WaitCondition"
WAIT_HANDLE_TYPE = "OS::Heat::WaitConditionHandle"

SEQUENCES = {
    "digits": "0123456789",
    "lowercase": "abcdefghijklmnopqrstuvwxyz",
    "uppercase": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "alphanumeric": "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
}

# what an intrinsic function gives, which validation cannot know: it
# passes every kind and rule, as a whole value or as a list entry
UNKNOWN = object()


def is_nested_type(resource_type: str) -> bool:
    """Nested stacks are declared by using a template file path as the type."""
    return resource_type.endswith(".yaml") or resource_type.endswith(".yml")


def kind_of(value) -> str:
    """The template kind of a plain value."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "map"
    return "null"


@record
class ResourceType:
    mandatory: dict  # property -> kind
    optional: dict
    attributes: tuple
    defaults: dict = field(default_factory=dict)  # optional property -> value when absent
    rules: dict = field(default_factory=dict)  # property -> rule of its value
    entry_rules: dict = field(default_factory=dict)  # list property -> rule of each entry

    def kind(self, name):
        return self.mandatory.get(name) or self.optional.get(name)

    def missing(self, names) -> list:
        """The refusal of each mandatory property absent from `names`."""
        return [f"missing mandatory property {name!r}" for name in self.mandatory
                if name not in names]

    def refusals(self, name, value) -> list:
        """(path below the properties, message) for each way `value` breaks
        property `name`: undeclared, of another kind, or against its rule
        or its entries' rule. A reference and `UNKNOWN` pass."""
        kind = self.kind(name)
        if kind is None:
            return [(name, f"unknown property {name!r}")]
        if kind in TYPES or value is UNKNOWN:
            return []
        if kind_of(value) != kind:
            return [(name, f"expected a {kind}")]
        value_rule, entry_rule = self.rules.get(name), self.entry_rules.get(name)
        found = [(name, value_rule(value))] if value_rule else []
        if entry_rule:
            found += [(f"{name}[{i}]", entry_rule(entry))
                      for i, entry in enumerate(value) if entry is not UNKNOWN]
        return [(path, message) for path, message in found if message is not None]


TYPES = {
    SERVER_TYPE: ResourceType(
        mandatory={"image": "string", "flavor": "string"},
        optional={"key_name": "string", "networks": "list", "security_groups": "list",
                  "user_data": "string", "user_data_format": "string"},
        attributes=("first_address", "instance_id", "name"),
        defaults={"user_data_format": "RAW"},
        rules={"user_data_format": rule(lambda value: value == "RAW", "only RAW is supported")},
        entry_rules={"networks": rule(lambda entry: isinstance(entry, dict) and "network" in entry,
                                       "each entry must be a map with a 'network' key")},
    ),
    RANDOM_STRING_TYPE: ResourceType(
        mandatory={},
        optional={"length": "number", "sequence": "string"},
        attributes=("value",),
        defaults={"length": 32, "sequence": "alphanumeric"},
        rules={"length": positive("length must be a positive integer"),
               "sequence": rule(SEQUENCES.__contains__, "unknown sequence {!r}")},
    ),
    WAIT_CONDITION_TYPE: ResourceType(
        mandatory={"handle": WAIT_HANDLE_TYPE, "timeout": "number"},
        optional={"count": "number"},
        attributes=("data",),
        defaults={"count": 1},
        rules={"timeout": positive("timeout must be a positive tick count"),
               "count": positive("count must be a positive integer")},
    ),
    WAIT_HANDLE_TYPE: ResourceType(mandatory={}, optional={}, attributes=("curl_cli", "handle_id")),
}
