//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and (end-to-end only)
//! regression bound. `BENCHMARK.json` mirrors these tables; `compare`
//! enforces the bounds; the smoke test checks a run reports all of them.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's value by which the metric may get worse
    /// before `compare` calls it a regression. The timing bounds sit at
    /// the benchmark contract's ceiling (0.25): on the 2-core VM the
    /// baseline was taken on, run-to-run spread is of that order (see the
    /// README's spread table), and a bound below the noise only produces
    /// false alarms.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "admits_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ack_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ack_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "reject_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
    },
];

/// `setup_s` may also worsen by this many seconds (whichever is larger):
/// smoke-size stores set up in tens of milliseconds.
pub const SETUP_ABS_SLACK_S: f64 = 0.1;

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, named by module path. Times are means over the
/// traced replay unless the README's glossary says otherwise.
pub const PER_LAYER: [Layer; 47] = [
    layer("server.proto.encode_req_us", "us/req", Lower),
    layer("server.proto.decode_req_us", "us/req", Lower),
    layer("server.proto.encode_resp_us", "us/req", Lower),
    layer("server.proto.decode_resp_us", "us/req", Lower),
    layer("server.proto.req_bytes", "B/req", Lower),
    layer("server.proto.resp_bytes", "B/req", Lower),
    layer("site.transport.rtt_us", "us/req", Lower),
    layer("server.service.mean_group", "updates", Higher),
    layer("server.service.busy_share", "share", Lower),
    layer("server.service.results_us", "us/req", Lower),
    layer("server.service.residual_us", "us/req", Lower),
    layer("core.durable.process_grouped_us", "us/req", Lower),
    layer("core.durable.commit_us", "us/req", Lower),
    layer("core.manager.check_us", "us/req", Lower),
    layer("core.manager.unattributed_us", "us/req", Lower),
    layer("core.manager.add_constraint_us", "us", Lower),
    layer("core.pipeline.subsumption_us", "us/update", Lower),
    layer("core.pipeline.prefilter_us", "us/update", Lower),
    layer("core.pipeline.pretest_us", "us/update", Lower),
    layer("core.pipeline.independence_us", "us/update", Lower),
    layer("core.pipeline.local_test_us", "us/update", Lower),
    layer("core.pipeline.stage4_us", "us/update", Lower),
    layer("core.pipeline.settled.subsumed", "share", Higher),
    layer("core.pipeline.settled.independent", "share", Higher),
    layer("core.pipeline.settled.pretest", "share", Higher),
    layer("core.pipeline.settled.local_test", "share", Higher),
    layer("core.pipeline.settled.full_check", "share", Lower),
    layer("core.pipeline.violated_share", "share", Lower),
    layer("core.pipeline.unknown_share", "share", Lower),
    layer("core.pipeline.stage4.full_snapshot", "count", Lower),
    layer("core.pipeline.stage4.delta_seeded", "count", Lower),
    layer("core.pipeline.stage4.cached", "count", Higher),
    layer("storage.database.apply_us", "us/op", Lower),
    layer("storage.database.apply_pinned_us", "us/op", Lower),
    layer("storage.database.snapshot_us", "us/req", Lower),
    layer("storage.wal.append_us", "us/record", Lower),
    layer("storage.wal.sync_us", "us/sync", Lower),
    layer("storage.wal.bytes_per_admit", "B/admit", Lower),
    layer("storage.wal.syncs_per_admit", "1/admit", Lower),
    layer("storage.wal.replay_us_per_record", "us/record", Lower),
    layer("storage.wal.checkpoint_load_ms", "ms", Lower),
    layer("storage.partition.route_us", "us/update", Lower),
    layer("server.client.redirects", "count", Lower),
    layer("audit.cert_bytes_per_update", "B/update", Lower),
    layer("audit.verify_us", "us/update", Lower),
    layer("audit.certified_share", "share", Higher),
    layer("audit.rejected", "count", Lower),
];

/// Reported beside the layers: how much of the measured ack the traced
/// layers explain, and what tracing itself costs.
pub const TRACE: [Layer; 4] = [
    layer("trace.service_us", "us/req", Lower),
    layer("trace.probe_ack_us", "us/req", Lower),
    layer("trace.coverage", "share", Higher),
    layer("trace.overhead_share", "share", Lower),
];

pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    PER_LAYER.iter().chain(TRACE.iter())
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
