"""The configuration surface, pinned.

Every field of :class:`EngineConfig` and :class:`ServeConfig` and every
flag of ``python -m repro serve`` is a knob someone has to document,
test and keep working.  These lists make adding one a visible edit: a
new knob fails here until it is written down.
"""

import dataclasses
import re

import pytest

from repro.__main__ import main
from repro.core.engine import EngineConfig
from repro.serve import ServeConfig

ENGINE_FIELDS = [
    "streams",
    "max_join_arity",
    "changelog_batch_size",
    "changelog_timeout_ms",
    "parallelism",
    "slot_policy",
    "storage_query_threshold",
    "retain_results",
    "enable_slicing",
    "dedup_predicates",
    "share_overlapping",
    "log_inputs",
    "observe",
    "obs_sample_every",
]

SERVE_FIELDS = [
    "host",
    "port",
    "auth_token",
    "backend",
    "workers",
    "streams",
    "max_join_arity",
    "changelog_batch_size",
    "changelog_timeout_ms",
    "log_inputs",
    "observe",
    "metrics_port",
    "max_active_queries",
    "max_deployment_latency_ms",
    "subscriber_buffer",
    "result_frame_outputs",
    "ingest_credits",
    "clock",
    "heartbeat_interval_s",
    "ack_deadline_s",
    "codecs",
    "slo_target_ms",
    "flight_dir",
]

SERVE_FLAGS = {
    "--help",
    "--host",
    "--port",
    "--backend",
    "--workers",
    "--streams",
    "--max-join-arity",
    "--token",
    "--metrics-port",
    "--observe",
    "--clock",
    "--max-active-queries",
    "--heartbeat-interval",
    "--ack-deadline",
    "--slo-target-ms",
    "--flight-dir",
}


def _field_names(config_class):
    return [field.name for field in dataclasses.fields(config_class)]


def test_engine_config_fields():
    assert _field_names(EngineConfig) == ENGINE_FIELDS


def test_serve_config_fields():
    assert _field_names(ServeConfig) == SERVE_FIELDS


def test_serve_cli_flags(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--help"])
    assert exited.value.code == 0
    usage = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage)) == SERVE_FLAGS
