"""SIM002 golden fixture: reading or queueing the heap by hand."""


def quiet_edge(kernel, tick):
    edge = min(t for t, _, ev in kernel._heap         # SIM002
               if ev.value is not tick)
    kernel._schedule_at(tick, edge)                   # SIM002
    return edge
