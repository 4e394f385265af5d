"""The four workloads; each is ``run(context) -> Result``."""

from . import bulk_ingest, live_detect_http, oscti_hunt, query_http

WORKLOADS = {
    "bulk_ingest": bulk_ingest.run,
    "query_cold_http": query_http.run,
    "oscti_hunt": oscti_hunt.run,
    "live_detect_http": live_detect_http.run,
}
