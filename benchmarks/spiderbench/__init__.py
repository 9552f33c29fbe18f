"""spiderbench: five named workloads, two clocks, one per-layer cost ledger.

Everything here measures the simulator *from outside*: public counters
read after a run, a profiler hook around ``Simulator.run``,
``MessageTrace.attach(network)`` and direct timing of public functions.
See ``README.md`` for the metric glossary and the run protocol.
"""
