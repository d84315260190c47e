"""The reachability tool's two value reports, on a hand-written capture."""

import ast

from reachability import default_knobs, default_parameters, functions, literal_defaults, public

KNOBS = [
    ("ExecutorConfig.sync_writes", "False", True),
    ("ExecutorConfig.backend", "'simulated'", True),
    ("ExecutorConfig.backend", "'persistent'", False),
]
DEFAULTS = {
    "traces.py:150": ("traces.py:150 TraceGenerator.__init__", {"seed": "23"}),
    "system.py:225": ("system.py:225 simulator_system", {"num_entries": "50000"}),
}


def test_a_knob_seen_only_at_its_default_is_listed():
    assert default_knobs(KNOBS) == ["ExecutorConfig.sync_writes = False"]


def test_a_knob_seen_at_two_values_is_not():
    assert "ExecutorConfig.backend" not in " ".join(default_knobs(KNOBS))


def test_a_parameter_seen_only_at_its_default_is_listed():
    calls = {("traces.py:150", "seed"): {"23"}}
    assert default_parameters(DEFAULTS, calls) == ["traces.py:150 TraceGenerator.__init__(seed=23)"]
    calls[("traces.py:150", "seed")].add("11")
    assert default_parameters(DEFAULTS, calls) == []


def test_a_parameter_of_an_unreached_function_is_left_to_the_function_list():
    """No driver called ``simulator_system``: the function list names it."""
    assert default_parameters(DEFAULTS, {}) == []


def test_a_named_constant_is_a_default_and_an_object_is_not():
    module = ast.parse("LIMIT = 4_096\ndef f(a, b=LIMIT, *, c=(1,), d=None): ...")
    constants = {"LIMIT": module.body[0].value}
    assert literal_defaults(module.body[1], constants) == {"b": "4096", "d": "None"}


def test_positional_defaults_belong_to_the_last_parameters():
    node = ast.parse("def f(a, /, b, c=-1, *, d, e='x'): ...").body[0]
    assert literal_defaults(node, {}) == {"c": "-1", "e": "'x'"}


def test_a_decorated_function_starts_where_its_code_object_does():
    """The hook keys a call by ``co_firstlineno``, which is the decorator's line."""
    source = "def keep(f):\n    return f\n\nclass A:\n    @keep\n    def f(self): ...\n"
    namespace = {}
    exec(compile(source, "<capture>", "exec"), namespace)
    starts = {name: first for first, name, _ in functions(ast.parse(source))}
    assert starts == {"keep": 1, "A.f": namespace["A"].f.__code__.co_firstlineno}


def test_a_private_part_makes_a_name_private_and_a_dunder_does_not():
    assert public("TraceGenerator.__init__") and public("simulator_system")
    assert not public("_drain") and not public("LSMTree._cascade")
