"""The benchmark's workloads, by name.

Each workload object is built from the freshly imported library, a seed and
a scale (1.0 in every measured run; tests use small scales).  It holds
`ops`, a list of `common.Op`; `verify(index, value)`, which returns None
for a correct output and a message otherwise; the flag `warm_up` that
harness.run_closed_loop takes; and the flag `may_fail`, true only where
operations are expected to fail (harness.correct).
"""

from . import contain_cli, contract_grid, member_jets

NAMES = ("member_jets", "contain_cli", "contract_grid", "contain_cliff")


def build(name, sym, seed, scale=1.0, workdir=None):
    if name == "member_jets":
        return member_jets.Workload(sym, seed, scale)
    if name == "contract_grid":
        return contract_grid.Workload(sym, seed, scale)
    if name == "contain_cli":
        return contain_cli.Workload(sym, seed, scale, workdir)
    if name == "contain_cliff":
        return contain_cli.CliffWorkload(sym, seed, scale, workdir)
    raise KeyError(name)

