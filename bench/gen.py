"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical templates, scenarios and operation plans. The seed moves
names, lengths, network choices and timings, but not the shape of the
work (resource counts, group counts, tick counts), so that run-to-run
spread across seeds stays small.
"""

import random

IMAGE = "ubuntu_cloud14"
FLAVOR = "m1.small"
FLAVOR_SPEC = (1, 2048, 20)  # vcpus, ram_mib, disk_gib
KEY = "my_key1"
HOME_NETWORK = ("my_net1", "10.0.0.0/24")
N_NETWORKS = 4
# /22 networks: 1020 instance addresses each, room for the scaling report's
# 800-server stack
NETWORKS = [(f"bench-net-{i}", f"10.1.{4 * i}.0/22") for i in range(N_NETWORKS)]

DEPLOY_SERVERS = 100
OPERATOR_SERVERS = 300
WAIT_GROUPS = 4  # wait conditions per template
SIGNALLERS = 3  # servers that signal each wait condition
APPS_PER_GROUP = 2  # servers that read each wait condition's data


def _params_block():
    lines = [
        "parameters:",
        "  image:",
        "    type: string",
        f"    default: {IMAGE}",
        "  flavor:",
        "    type: string",
        f"    default: {FLAVOR}",
        "  key:",
        "    type: string",
        f"    default: {KEY}",
    ]
    for i, (name, _) in enumerate(NETWORKS):
        lines += [f"  net_{i}:", "    type: string", f"    default: {name}"]
    return lines


def _server(name, nets, user_data=None):
    lines = [
        f"  {name}:",
        "    type: OS::Nova::Server",
        "    properties:",
        "      image: { get_param: image }",
        "      flavor: { get_param: flavor }",
        "      key_name: { get_param: key }",
        "      networks:",
    ]
    lines += [f"        - network: {{ get_param: net_{n} }}" for n in nets]
    if user_data is not None:
        lines += ["      user_data_format: RAW"] + user_data
    return lines


def _str_replace(params, script):
    lines = ["      user_data:", "        str_replace:", "          params:"]
    lines += [f"            {marker}: {value}" for marker, value in params]
    lines += ["          template: |"] + [f"            {line}" for line in script]
    return lines


def _nets(rng):
    first = rng.randrange(N_NETWORKS)
    if rng.random() < 0.25:
        return [first, (first + 1 + rng.randrange(N_NETWORKS - 1)) % N_NETWORKS]
    return [first]


def stack_template(seed, variant=0, servers=DEPLOY_SERVERS):
    """HOT text for one stack of `servers` servers over the bench networks.

    Follows the mysql.yaml pattern: each of WAIT_GROUPS groups has a
    RandomString, a wait handle, SIGNALLERS servers whose str_replace user
    data signals the handle, and a wait condition declared after them
    (so the signals arrive before it is evaluated). APPS_PER_GROUP servers
    per group read the condition's data and the first signaller's address,
    which puts them in a later deployment wave. The rest are plain servers,
    some with echo-only user data.
    """
    rng = random.Random(f"stack:{seed}:{variant}:{servers}")
    tag = f"{rng.randrange(16**4):04x}"
    lines = [
        "heat_template_version: 2013-05-23",
        "",
        f"description: generated benchmark stack {tag} ({servers} servers)",
        "",
    ] + _params_block() + ["", "resources:"]
    count = 0
    ready = []
    for g in range(WAIT_GROUPS):
        secret, handle, cond = f"secret_{tag}_{g}", f"handle_{tag}_{g}", f"ready_{tag}_{g}"
        lines += [
            f"  {secret}:",
            "    type: OS::Heat::RandomString",
            "    properties:",
            f"      length: {rng.randrange(8, 25)}",
            f"      sequence: {rng.choice(['alphanumeric', 'lowercase', 'digits'])}",
            f"  {handle}:",
            "    type: OS::Heat::WaitConditionHandle",
        ]
        for s in range(SIGNALLERS):
            script = [
                "#!/bin/sh",
                'echo "db password set to __password__" >> setup.log',
                f'signal __signal_url__ {{"status": "SUCCESS", "id": "db-{s}", "data": "up {s}"}}',
            ]
            params = [
                ("__password__", f"{{ get_attr: [{secret}, value] }}"),
                ("__signal_url__", f"{{ get_attr: [{handle}, curl_cli] }}"),
            ]
            lines += _server(f"db_{tag}_{g}_{s}", _nets(rng), _str_replace(params, script))
            count += 1
        lines += [
            f"  {cond}:",
            "    type: OS::Heat::WaitCondition",
            "    properties:",
            f"      handle: {{ get_resource: {handle} }}",
            f"      timeout: {rng.randrange(30, 90)}",
            f"      count: {SIGNALLERS}",
        ]
        ready.append(cond)
    for g, cond in enumerate(ready):
        for a in range(APPS_PER_GROUP):
            script = ['echo "backend __db__ reports __ready__" >> app.conf']
            params = [
                ("__db__", f"{{ get_attr: [db_{tag}_{g}_0, first_address] }}"),
                ("__ready__", f"{{ get_attr: [{cond}, data] }}"),
            ]
            lines += _server(f"app_{tag}_{g}_{a}", _nets(rng), _str_replace(params, script))
            count += 1
    for i in range(servers - count):
        user_data = None
        if rng.random() < 0.3:
            user_data = ["      user_data: |", f'        echo "worker {i}" >> worker.txt']
        lines += _server(f"web_{tag}_{i}", _nets(rng), user_data)
    lines += [
        "",
        "outputs:",
        "  first_db:",
        f"    value: {{ get_attr: [db_{tag}_0_0, first_address] }}",
        "  secret:",
        f"    value: {{ get_attr: [secret_{tag}_0, value] }}",
    ]
    return "\n".join(lines) + "\n"


def hosts(count, vcpus):
    return [
        {"id": f"host-{i + 1}", "vcpus": vcpus, "ram_mib": vcpus * FLAVOR_SPEC[1],
         "disk_gib": vcpus * FLAVOR_SPEC[2]}
        for i in range(count)
    ]


def deploy_hosts():
    # a 100-server stack fills the first host and spills onto the second,
    # so placement walks past a full host
    return hosts(4, 64)


FAULT_EVERY = 35  # a multiple of the healer's detect interval


def autoscale_scenario(seed, ticks):
    """A scenario for scenario.build_world: three scaling groups with load
    generators, a scale-out and a scale-in alarm each, a periodic
    instance_crash fault on one group at a time, and the healer on.

    Faults hit member 0 one tick after a healer pass and FAULT_EVERY ticks
    apart, so the healer has always replaced the last crashed member before
    the next fault (a crash of a non-ACTIVE member would be an error).
    Hosts fit every group at its maximum.
    """
    rng = random.Random(f"autoscale:{seed}:{ticks}")
    groups, alarms, generators, faults = [], [], [], []
    names = [f"g{i}-{rng.randrange(16**4):04x}" for i in range(3)]
    for i, name in enumerate(names):
        groups.append({
            "name": name, "min": 4, "max": 12, "desired": 6,
            "member": {"image": IMAGE, "flavor": FLAVOR,
                       "networks": [NETWORKS[i % N_NETWORKS][0]]},
        })
        alarms.append({
            "name": f"{name}-high", "metric": "cpu_util", "aggregate": "avg",
            "comparison": "gt", "threshold": round(0.74 + 0.04 * rng.random(), 3),
            "window": 3, "target": name, "action": "scale_out",
        })
        alarms.append({
            "name": f"{name}-low", "metric": "cpu_util", "aggregate": "avg",
            "comparison": "lt", "threshold": round(0.32 + 0.04 * rng.random(), 3),
            "window": 3, "target": name, "action": "scale_in",
        })
        generators.append({
            "group": name, "metric": "cpu_util",
            "base": round(0.53 + 0.04 * rng.random(), 3),
            "amplitude": round(0.33 + 0.04 * rng.random(), 3),
            "period": 40 + 10 * i, "noise": 0.05, "seed": rng.randrange(2**31),
        })
    offset = rng.randrange(3)
    for k, tick in enumerate(range(6, ticks + 1, FAULT_EVERY)):
        faults.append({"tick": tick, "group": names[(k + offset) % 3],
                       "member_index": 0, "kind": "instance_crash"})
    return {
        "seed": seed,
        "ticks": ticks,
        "hosts": hosts(2, 32),
        "healer": {"enabled": True, "detect_interval": 5, "heal_window": 20},
        "setup": {
            "images": [{"name": IMAGE, "payload": "ubuntu cloud image", "cloud_init": True}],
            "flavors": [{"name": FLAVOR, "vcpus": FLAVOR_SPEC[0],
                         "ram_mib": FLAVOR_SPEC[1], "disk_gib": FLAVOR_SPEC[2]}],
            "networks": [{"name": n, "cidr": c} for n, c in NETWORKS],
        },
        "groups": groups,
        "alarms": alarms,
        "generators": generators,
        "faults": faults,
    }


WAIT_TEMPLATE = """\
heat_template_version: 2013-05-23

description: a stack that waits for one external signal

resources:
  handle:
    type: OS::Heat::WaitConditionHandle
  ready:
    type: OS::Heat::WaitCondition
    properties:
      handle: { get_resource: handle }
      timeout: 1000
      count: 1

outputs:
  data:
    value: { get_attr: [ready, data] }
"""

# templates/ examples that deploy against the operator world unaided
OPERATOR_EXAMPLES = ["example2.yaml", "mysql.yaml", "example3.yaml", "example4.yaml"]
HISTORY_TICKS = 40
HISTORY_MEMBERS = 40  # instances of the big stack that report cpu_util


def operator_plan(seed):
    """The operator workload's inputs: the big stack's template, the
    telemetry history written at set-up, and one episode of each client.

    Client W's steps are symbolic; the runner binds stack, handle and
    floating-address ids as they appear. Client R repeats its cycle until W
    is done.
    """
    rng = random.Random(f"operator:{seed}")
    history = [
        [tick, member, round(0.2 + 0.6 * rng.random(), 6)]
        for tick in range(1, HISTORY_TICKS + 1)
        for member in range(HISTORY_MEMBERS)
    ]
    example = OPERATOR_EXAMPLES[rng.randrange(len(OPERATOR_EXAMPLES))]
    member = rng.randrange(HISTORY_MEMBERS)
    writes = [
        ["metric-push", member, round(rng.random(), 6)],
        ["clock-advance"],
        ["stack-create", example],
        ["wait-create"],
        ["stack-show-wait"],
        ["signal"],
        ["fip-allocate"],
        ["fip-associate"],
        ["fip-disassociate"],
        ["fip-release"],
        ["metric-push", (member + 1) % HISTORY_MEMBERS, round(rng.random(), 6)],
        ["clock-advance"],
        ["stack-delete-example"],
    ]
    reads = [["stack-list"], ["stack-show-big"], ["events-tail"], ["connectivity-check"]]
    rng.shuffle(reads)
    return {
        "template": stack_template(seed, 0, OPERATOR_SERVERS),
        "history": history,
        "writes": writes,
        "reads": reads,
    }
