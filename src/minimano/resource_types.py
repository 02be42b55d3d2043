"""The resource type names a stack's records carry.

Both the template layer (`hot`) and the engine read them. Deleting a
stack reads only these, so they live apart from `hot`: a delete imports
no template parser.
"""

SERVER_TYPE = "OS::Nova::Server"
RANDOM_STRING_TYPE = "OS::Heat::RandomString"
WAIT_CONDITION_TYPE = "OS::Heat::WaitCondition"
WAIT_HANDLE_TYPE = "OS::Heat::WaitConditionHandle"


def is_nested_type(resource_type: str) -> bool:
    """Nested stacks are declared by using a template file path as the type."""
    return resource_type.endswith(".yaml") or resource_type.endswith(".yml")
