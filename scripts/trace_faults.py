"""Print the minor page faults that 20 warm coherence-trace calls take.

The calls use the default config's rule and times (384 x 512 nodes, 30
times to 12 ms, 1e13 cm^-3 at 850 nK), after one call that builds the
table and the trace's work arrays.  Run it with glibc's heap trimmed on
every free, so that a per-call temporary returns its pages and faults them
in again on the next call:

    GLIBC_TUNABLES=glibc.malloc.trim_threshold=0 PYTHONPATH=src \\
        python3 scripts/trace_faults.py
"""

import resource

from impurityprobe import ramsey, serialization

CALLS = 20

cfg = serialization.merge_config({})
protocol = serialization.protocol_from_config(cfg)
nodes = ramsey.detuning_nodes(serialization.bath_from_config(cfg),
                              serialization.model_from_config(cfg), protocol.B)
ramsey._coherence_trace(protocol.t, *nodes)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(CALLS):
    ramsey._coherence_trace(protocol.t, *nodes)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
