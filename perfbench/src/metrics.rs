//! From measured runs to named metrics, and the one-line JSON result.

use crate::host::OpCost;
use crate::trace::KINDS;
use crate::workload::Run;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs` (0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn wall_ms(ops: &[OpCost]) -> Vec<f64> {
    ops.iter().map(|o| ms(o.wall)).collect()
}

fn mean(ops: &[OpCost], f: impl Fn(&OpCost) -> u64) -> f64 {
    ratio(ops.iter().map(|o| f(o) as f64).sum(), ops.len() as f64)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The set-up time of a run: the median over its set-ups. On the pool every
/// copy is one set-up.
pub fn setup_s(run: &Run) -> f64 {
    median(run.setups.iter().map(|s| s.total().as_secs_f64()).collect())
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let op_secs: f64 = run
        .writes
        .iter()
        .chain(&run.reads)
        .map(|o| o.wall.as_secs_f64())
        .sum();
    vec![
        m("setup_s", setup_s(run), "s"),
        m("write_ms_p50", median(wall_ms(&run.writes)), "ms"),
        m("read_ms_p50", median(wall_ms(&run.reads)), "ms"),
        m(
            "ops_per_s",
            ratio((run.writes.len() + run.reads.len()) as f64, op_secs),
            "1/s",
        ),
        m("msgs_per_write", mean(&run.writes, |o| o.msgs), "count"),
        m("bytes_per_write", mean(&run.writes, |o| o.bytes), "B"),
        m("msgs_per_read", mean(&run.reads, |o| o.msgs), "count"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// How a traced run's write thread time (wall time × worker threads)
/// splits, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSplit {
    /// Wall time of the writes times the threads that ran handlers.
    pub thread_ns: f64,
    /// Handler self time (storage time inside handlers excluded).
    pub handler_ns: f64,
    /// The benchmark's own sizing of delivered messages.
    pub size_ns: f64,
    /// Storage backend time, inside handlers and out (the insert's WAL frame).
    pub storage_ns: f64,
    /// The rest: the runtime's queueing, delivery and (on the pool) idling.
    pub loop_ns: f64,
}

/// Splits the write thread time of a traced run.
pub fn write_split(traced: &Run) -> WriteSplit {
    let w = &traced.write_layers;
    let write_wall_ns: f64 = traced.writes.iter().map(|o| o.wall.as_nanos() as f64).sum();
    let thread_ns = write_wall_ns * traced.threads as f64;
    let handler_ns = w.tally.handler_total_ns() as f64;
    let size_ns = w.tally.size_ns as f64;
    let storage_ns = w.storage.ns as f64;
    WriteSplit {
        thread_ns,
        handler_ns,
        size_ns,
        storage_ns,
        loop_ns: (thread_ns - handler_ns - size_ns - storage_ns).max(0.0),
    }
}

/// Per-layer metrics of a traced run; `plain` is the untraced run of the
/// same operations, for the tracing overhead.
pub fn per_layer(traced: &Run, plain: &Run) -> Vec<Metric> {
    let w = &traced.write_layers;
    let r = &traced.read_layers;
    let writes = traced.writes.len() as f64;
    let reads = traced.reads.len() as f64;
    let WriteSplit {
        thread_ns,
        handler_ns,
        loop_ns,
        ..
    } = write_split(traced);
    let write_msgs: f64 = traced.writes.iter().map(|o| o.msgs as f64).sum();
    let write_bytes: f64 = traced.writes.iter().map(|o| o.bytes as f64).sum();
    // Mean self time per message of one kind, over writes and reads.
    let kind_us = |kind: &str| {
        ratio(
            (w.tally.ns_of(kind) + r.tally.ns_of(kind)) as f64 / 1e3,
            (w.tally.of(kind) + r.tally.of(kind)) as f64,
        )
    };
    let per_write = |x: u64| ratio(x as f64, writes);
    let evaluations = (w.rel.evaluations + r.rel.evaluations) as f64;
    let plan_hits = (w.rel.plan_cache_hits + r.rel.plan_cache_hits) as f64;
    let deliveries = (w.tally.deliveries() + r.tally.deliveries()) as f64;
    let size_ns = (w.tally.size_ns + r.tally.size_ns) as f64;
    let (generate, build, initial) = match traced.shared_generate {
        Some(g) => (
            g.as_secs_f64(),
            median(
                traced
                    .setups
                    .iter()
                    .map(|s| s.build.as_secs_f64())
                    .collect(),
            ),
            0.0,
        ),
        None => (
            median(
                traced
                    .setups
                    .iter()
                    .map(|s| s.generate.as_secs_f64())
                    .collect(),
            ),
            median(
                traced
                    .setups
                    .iter()
                    .map(|s| s.build.as_secs_f64())
                    .collect(),
            ),
            median(
                traced
                    .setups
                    .iter()
                    .map(|s| s.initial_fixpoint.as_secs_f64())
                    .collect(),
            ),
        ),
    };
    // Zero on the pool, which keeps no simulated time.
    let virtual_ms = median(
        traced
            .writes
            .iter()
            .map(|o| o.virtual_us as f64 / 1e3)
            .collect(),
    );
    let traced_p50 = median(wall_ms(&traced.writes));
    vec![
        m("net.loop_ms_per_write", ratio(loop_ns / 1e6, writes), "ms"),
        m(
            "net.loop_us_per_msg",
            ratio(loop_ns / 1e3, write_msgs),
            "us",
        ),
        m(
            "net.shared_payload_sends_per_write",
            per_write(w.shared_payload_sends),
            "count",
        ),
        m(
            "net.cross_shard_sends_per_write",
            per_write(w.cross_shard_sends),
            "count",
        ),
        m("net.pool_busy_ratio", ratio(handler_ns, thread_ns), "ratio"),
        m("net.write_virtual_ms_p50", virtual_ms, "ms"),
        m(
            "core.handler_ms_per_write",
            ratio(handler_ns / 1e6, writes),
            "ms",
        ),
        m("core.flood_us", kind_us(KINDS[0]), "us"),
        m("core.query_us", kind_us(KINDS[1]), "us"),
        m("core.answer_us", kind_us(KINDS[2]), "us"),
        m("core.ack_us", kind_us(KINDS[3]), "us"),
        m("core.fixpoint_us", kind_us(KINDS[4]), "us"),
        m(
            "core.floods_per_write",
            per_write(w.tally.of(KINDS[0])),
            "count",
        ),
        m(
            "core.queries_per_write",
            per_write(w.tally.of(KINDS[1])),
            "count",
        ),
        m(
            "core.answers_per_write",
            per_write(w.tally.of(KINDS[2])),
            "count",
        ),
        m(
            "core.acks_per_write",
            per_write(w.tally.of(KINDS[3])),
            "count",
        ),
        m(
            "core.fixpoints_per_read",
            ratio(r.tally.of(KINDS[4]) as f64, reads),
            "count",
        ),
        m(
            "relational.rows_scanned_per_write",
            per_write(w.rel.rows_scanned),
            "count",
        ),
        m(
            "relational.index_probes_per_write",
            per_write(w.rel.index_probes),
            "count",
        ),
        m(
            "relational.evaluations_per_write",
            per_write(w.rel.evaluations),
            "count",
        ),
        m(
            "relational.plan_cache_hit_ratio",
            ratio(plan_hits, evaluations),
            "ratio",
        ),
        m(
            "relational.tuples_inserted_per_write",
            per_write(w.rel.tuples_inserted),
            "count",
        ),
        m("relational.replay_eval_ms", ms(traced.replay_eval), "ms"),
        m(
            "codec.size_us_per_msg",
            ratio(size_ns / 1e3, deliveries),
            "us",
        ),
        m("codec.bytes_per_msg", ratio(write_bytes, write_msgs), "B"),
        m(
            "codec.encode_passes_per_write",
            per_write(w.encode_passes),
            "count",
        ),
        m(
            "storage.wal_frames_per_write",
            per_write(w.storage.frames),
            "count",
        ),
        m(
            "storage.wal_bytes_per_write",
            per_write(w.storage.wal_bytes),
            "B",
        ),
        m(
            "storage.snapshot_bytes_per_write",
            per_write(w.storage.snapshot_bytes),
            "B",
        ),
        m(
            "storage.backend_us_per_frame",
            ratio(w.storage.ns as f64 / 1e3, w.storage.frames as f64),
            "us",
        ),
        m("setup.generate_s", generate, "s"),
        m("setup.build_s", build, "s"),
        m("setup.initial_fixpoint_s", initial, "s"),
        m("trace.write_ms_p50", traced_p50, "ms"),
        m(
            "trace.overhead_ms_per_write",
            traced_p50 - median(wall_ms(&plain.writes)),
            "ms",
        ),
    ]
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            // JSON has no NaN or infinity; a non-finite value is a bug here.
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn render_is_one_json_object() {
        let line = render(true, 3, 0, &[m("a", 1.5, "ms"), m("b", 2.0, "count")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2.0, "unit": "count"}}}"#
        );
    }
}
