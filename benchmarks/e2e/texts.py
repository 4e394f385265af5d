"""The TBQL texts the workloads send, and why each class exists.

Six classes, chosen so that each leans on a different part of the query
path (the class name is part of every sample's label):

* ``point``    — a rare operation or a prefix ``LIKE``: seal-time
  statistics prune most segments;
* ``window``   — an absolute time window: segment time bounds prune;
* ``join``     — the TBQL synthesized from an evaluation case's report
  (1 to 9 patterns, ``%contains%`` filters nothing can prune);
* ``groupby``  — ``count() group by … top``: large matched-event bodies,
  so aggregation and JSON serialization show;
* ``negation`` — ``and not`` anti-joins;
* ``sequence`` — ``then`` ordered pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

CLASSES = ("point", "window", "join", "groupby", "negation", "sequence")

#: The evaluation cases (by position in ``ALL_CASES``) whose synthesized
#: query joins the cold rotation: 1, 1, 2, 3, 3, 5, 7, 8 and 9 patterns.
#: The four heavy ones are a sixth of the rotation, so its 90th percentile
#: lies inside them and not on their edge.  The cache-hit phase of the
#: traced run uses all 18.
COLD_JOIN_CASES = (0, 2, 4, 6, 8, 12, 15, 16, 17)


def class_of(label: str) -> str:
    """Labels are ``<class>.<name>``."""
    return label.split(".", 1)[0]


@dataclass(frozen=True)
class QueryText:
    label: str
    text: str

    @property
    def query_class(self) -> str:
        return class_of(self.label)


def _at(time_span: tuple[float, float], fraction: float) -> str:
    first, last = time_span
    return f"{first + (last - first) * fraction:.0f}"


def fixed_texts(time_span: tuple[float, float]) -> list[QueryText]:
    """The five hand-written classes (three texts each)."""
    def at(fraction: float) -> str:
        return _at(time_span, fraction)
    texts = {
        "point.execute":
            'proc p execute file f return distinct p, f',
        "point.daemon_connect":
            'proc p["/usr/sbin/%"] connect ip i return distinct p, i',
        "point.cache_write":
            'proc p write file f["/home/mallory/.cache/%"] '
            'return distinct p, f',
        "window.etc_reads":
            f'from {at(.30)} to {at(.35)} proc p read file f["/etc/%"] '
            'return distinct p, f',
        "window.starts":
            f'from {at(.60)} to {at(.62)} proc p start proc q '
            'return distinct p, q',
        "window.late_connects":
            f'after {at(.93)} proc p connect ip i return distinct p, i',
        "groupby.top_readers":
            'proc p read file f return p, count() group by p top 10',
        "groupby.log_writers":
            'proc p write file f["/var/log/%"] return p, f, count() '
            'group by p, f top 20',
        "groupby.destinations":
            'proc p connect ip i return i, count() group by i',
        "negation.hosts_no_net":
            'proc p read file f["/etc/hosts"] '
            'and not proc p connect ip i return distinct p',
        "negation.browser_no_write":
            'proc p["%firefox%"] connect ip i '
            'and not proc p write file f return distinct p, i',
        "negation.daemon_no_net":
            'proc p["/usr/sbin/%"] write file f["/var/log/%"] '
            'and not proc p connect ip i return distinct p, f',
        "sequence.etc_then_write":
            'proc p read file f["/etc/%"] '
            'then[60 sec] proc p write file g return distinct p, g',
        "sequence.compile":
            'proc p start proc q["/usr/bin/gcc"] '
            'then[5 sec] proc q write file f["%.o"] return distinct p, q',
        "sequence.daemon_log":
            'proc p["/usr/sbin/%"] connect ip i '
            'then[30 sec] proc p write file f["/var/log/auth.log"] '
            'return distinct p, i',
    }
    return [QueryText(label, text) for label, text in texts.items()]


#: Standing rules of ``live_detect_http`` (file stem = rule id).  All are
#: selective, so an alert body stays small and rule *evaluation*, a full
#: query per rule per flush today, is what the workload times.
RULES = {
    "r1_execute":
        'proc p execute file f return distinct p, f',
    "r2_dropper_before":
        'proc p write file f["%drakon%"] as e1 '
        'proc q read file f as e2 '
        'with e1 before e2 return distinct p, q, f',
    "r3_implant_then":
        'proc p write file f["/home/admin/%"] '
        'then[10 min] proc q["/home/admin/%"] connect ip i '
        'return distinct p, q, i',
    "r4_shadow_last":
        'last 5 min proc p read file f["/etc/shadow"] '
        'return distinct p, f',
}
#: The ``last N`` rule is time dependent: no oracle over the whole stream.
WINDOWED_RULES = ("r4_shadow_last",)


def reader_texts(since: float) -> list[QueryText]:
    """What the reader of ``live_detect_http`` asks while the writer
    ingests: what happened since ``since``, with filters that few events
    match (a response carries every matched event).  The workload passes
    the start of the second half of the history, so eight sealed segments
    and whatever arrived are scanned and the rest is pruned by time; what
    arrives during a run adds a fifth to that.  Each costs 10-15 ms:
    heavy enough that the two process wake-ups of a round trip are a few
    percent of it, light enough that the reader keeps the server busy for
    a tenth of the time and the alert latency is the writer's own.  All
    are monotone: a later answer contains every earlier one.
    """
    after = f"after {since:.0f} "
    return [QueryText(f"reader.{name}", after + text) for name, text in (
        ("daemon_connects",
         'proc p["/usr/sbin/%"] connect ip i return distinct p, i'),
        ("etc_reads",
         'proc p read file f["/etc/%"] return distinct p, f'),
        ("admin_files",
         'proc p write file f["/home/admin/%"] return distinct p, f'),
        ("log_writes",
         'proc p write file f["/var/log/%"] return distinct p, f'),
        ("tmp_writes",
         'proc p write file f["/tmp/%"] return distinct p, f'),
        ("daemon_starts",
         'proc p start proc q["/usr/sbin/%"] return distinct p, q'),
    )]
