"""The period records of an engine run, for tests.

A period engine returns each period's ``PeriodRecord`` from
``run_period`` and keeps none of them. ``run_collect`` runs the periods
``PeriodEngine.run`` would and returns their records.
"""


def run_collect(engine, length):
    """Run whole periods of ``engine`` until ``length`` frames or rounds
    have elapsed, the last one truncated as in ``PeriodEngine.run``, and
    return the record of each period in order."""
    records = []
    remaining = length
    while remaining > 0:
        step = min(engine.period, remaining)
        records.append(engine.run_period(step))
        remaining -= step
    return records
