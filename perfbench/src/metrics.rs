//! Turns measured passes into the named metrics, checks the correctness
//! gate and formats the result line.

use crate::gauge;
use crate::replay::Prices;
use crate::run::{OpRecord, Pass};
use crate::stats::{completed_share, gaps, grouped_percentile, median, median_wait, percentile};
use crate::trace::{kind_name, Stat, Tracer};
use crate::workload::{Reply, Stamp, PRELOAD_WRITER};
use seemore_wire::MessageKind;
use std::collections::{BTreeSet, HashSet};

/// Completions per group for `latency_p999_ms`: enough that each group's
/// p99.9 has ten samples beyond it.
const P999_GROUP: usize = 10_000;
/// Quantile of the stretches between consecutive completions that
/// `unavailable_ms` reports on workloads without crashes.
const GAP_QUANTILE: f64 = 0.999;
/// The end-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_kreqs", "kreq/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p999_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("completed_share", "share"),
    ("unavailable_ms", "ms"),
    ("setup_s", "s"),
];

/// Incoming message kinds the replica handlers are timed for.
pub const REPLICA_KINDS: [MessageKind; 14] = [
    MessageKind::Request,
    MessageKind::ReadRequest,
    MessageKind::Prepare,
    MessageKind::PrePrepare,
    MessageKind::Accept,
    MessageKind::PbftPrepare,
    MessageKind::Commit,
    MessageKind::Inform,
    MessageKind::Checkpoint,
    MessageKind::ViewChange,
    MessageKind::NewView,
    MessageKind::StateRequest,
    MessageKind::StateResponse,
    MessageKind::Recovery,
];

/// Kinds priced on the wire: everything replicas receive plus replies.
pub fn wire_kinds() -> Vec<MessageKind> {
    let mut kinds = REPLICA_KINDS.to_vec();
    kinds.extend([MessageKind::Reply, MessageKind::ReadReply]);
    kinds
}

/// A pass reduced to its window.
///
/// Times and rates the cluster's own work sets are given at reference host
/// speed: each is divided by the host's slowness where it was measured, the
/// gauge's median time in that slice over [`gauge::REFERENCE_US`], and rates
/// also leave out time the hypervisor stole from the run's CPU. Waits set by
/// the protocol's timers (the crash workload's `unavailable_ms`) are raw.
pub struct Summary {
    pub window_s: f64,
    /// Operations completed with a reply inside the window.
    pub completed: u64,
    /// Operations issued inside the window, and those never answered.
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of the window's completions as measured, ascending.
    pub latencies_ms: Vec<f64>,
    /// The same latencies at reference speed, ascending: `latency_p50_ms`
    /// and `latency_p99_ms` are taken from these.
    pub scaled_ms: Vec<f64>,
    /// Median over groups of [`P999_GROUP`] consecutive completions of each
    /// group's p99.9, at reference speed.
    pub p999_ms: f64,
    /// Time without service. Where the workload crashes a replica: the
    /// median over crashes of the time from the crash until an operation
    /// issued at or after it completed (raw: the protocol's timeouts set
    /// it). Otherwise: the [`GAP_QUANTILE`] quantile of the window's
    /// stretches between consecutive completions, at reference speed.
    pub unavailable_ms: f64,
    /// Median gauge time over the window, in µs, and that over
    /// [`gauge::REFERENCE_US`].
    pub gauge_us: f64,
    pub slowness: f64,
    /// The window's slices, in order.
    pub slices: Vec<Slice>,
}

/// One slice of the window, at reference speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub kreqs: f64,
    pub cpu_us_per_op: f64,
    /// The host's slowness in this slice.
    pub slowness: f64,
}

/// Median over slices of one slice quantity.
fn slice_median(summary: &Summary, pick: impl Fn(&Slice) -> f64) -> f64 {
    median(&summary.slices.iter().map(pick).collect::<Vec<_>>()).unwrap_or(0.0)
}

impl Summary {
    /// Completions per second of the window as measured, in thousands.
    pub fn throughput_kreqs(&self) -> f64 {
        self.completed as f64 / self.window_s / 1000.0
    }

    fn ops(&self) -> f64 {
        self.completed.max(1) as f64
    }

    fn kops(&self) -> f64 {
        self.ops() / 1000.0
    }
}

fn in_window(pass: &Pass, at: u64) -> bool {
    at >= pass.window.0 && at < pass.window.1
}

/// Median gauge time, in µs, of the samples taken in `[start, end)`.
fn gauge_us(pass: &Pass, start: u64, end: u64) -> Option<f64> {
    let samples: Vec<f64> = pass
        .gauge
        .iter()
        .filter(|(at, _)| *at >= start && *at < end)
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    median(&samples)
}

pub fn summarize(pass: &Pass) -> Summary {
    let window_gauge = gauge_us(pass, pass.window.0, pass.window.1)
        .or_else(|| gauge_us(pass, 0, u64::MAX))
        .unwrap_or(gauge::REFERENCE_US);
    // Slowness of each slice, by the slice's end instant.
    let slice_slowness: Vec<(u64, f64)> = pass
        .marks
        .windows(2)
        .map(|m| {
            let us = gauge_us(pass, m[0].at_ns, m[1].at_ns).unwrap_or(window_gauge);
            (m[1].at_ns, us / gauge::REFERENCE_US)
        })
        .collect();
    let slowness_at = |at: u64| {
        let i = slice_slowness.partition_point(|(end, _)| *end <= at);
        slice_slowness
            .get(i.min(slice_slowness.len().saturating_sub(1)))
            .map_or(window_gauge / gauge::REFERENCE_US, |(_, s)| *s)
    };
    let scaled_ms =
        |op: &OpRecord| (op.done_ns - op.issued_ns) as f64 / 1e6 / slowness_at(op.done_ns);

    let answered = |op: &&OpRecord| op.reply.is_some();
    let mut done: Vec<&OpRecord> = pass
        .ops
        .iter()
        .filter(answered)
        .filter(|op| in_window(pass, op.done_ns))
        .collect();
    done.sort_by_key(|op| op.done_ns);
    let mut scaled: Vec<f64> = done.iter().map(|op| scaled_ms(op)).collect();
    let p999_ms = grouped_percentile(&scaled, 0.999, P999_GROUP).unwrap_or(0.0);
    scaled.sort_by(f64::total_cmp);
    let mut latencies_ms: Vec<f64> = done
        .iter()
        .map(|op| (op.done_ns - op.issued_ns) as f64 / 1e6)
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let issued: Vec<&OpRecord> = pass
        .ops
        .iter()
        .filter(|op| in_window(pass, op.issued_ns))
        .collect();
    let mut answered_ops: Vec<(u64, u64)> = pass
        .ops
        .iter()
        .filter(answered)
        .map(|op| (op.issued_ns, op.done_ns))
        .collect();
    answered_ops.sort_unstable();
    let unavailable_ms = if pass.cycles.is_empty() {
        let mut completions: Vec<u64> = answered_ops.iter().map(|(_, done)| *done).collect();
        completions.sort_unstable();
        let mut stretches: Vec<f64> = gaps(&completions, pass.window.0, pass.window.1)
            .into_iter()
            .map(|(from, to)| (to - from) as f64 / 1e6 / slowness_at(to))
            .collect();
        stretches.sort_by(f64::total_cmp);
        percentile(&stretches, GAP_QUANTILE).unwrap_or(0.0)
    } else {
        let probes: Vec<u64> = pass.cycles.iter().map(|c| c.crash_ns).collect();
        let horizon = pass
            .ops
            .iter()
            .map(|op| op.done_ns)
            .max()
            .unwrap_or(pass.window.1);
        median_wait(&probes, &answered_ops, horizon).unwrap_or(0.0) / 1e6
    };
    let slices = pass
        .marks
        .windows(2)
        .zip(&slice_slowness)
        .map(|(m, (_, slowness))| {
            let (start, end) = (m[0].at_ns, m[1].at_ns);
            let ops = done
                .iter()
                .filter(|op| op.done_ns >= start && op.done_ns < end)
                .count() as f64;
            let stolen = m[1].stolen_ns.saturating_sub(m[0].stolen_ns);
            let ran_s = (end - start).saturating_sub(stolen).max(1) as f64 / 1e9;
            Slice {
                kreqs: ops / ran_s / 1000.0 * slowness,
                cpu_us_per_op: (m[1].cpu_ns - m[0].cpu_ns) as f64 / 1e3 / ops.max(1.0) / slowness,
                slowness: *slowness,
            }
        })
        .collect();
    Summary {
        window_s: (pass.window.1 - pass.window.0) as f64 / 1e9,
        completed: done.len() as u64,
        attempted: issued.len() as u64,
        failed: issued.iter().filter(|op| op.reply.is_none()).count() as u64,
        latencies_ms,
        scaled_ms: scaled,
        p999_ms,
        unavailable_ms,
        gauge_us: window_gauge,
        slowness: window_gauge / gauge::REFERENCE_US,
        slices,
    }
}

/// Checks the pass's outputs: the replicas agree wherever two recorded the
/// same point, every reply decodes and fits its operation, and every GET
/// returns nothing or a value some PUT wrote to that key.
pub fn gate(pass: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    match &pass.agreement {
        Ok(agreement) if agreement.operations_shared == 0 => failures
            .push("no operation was executed by two replicas, so agreement went unchecked".into()),
        Ok(_) => {}
        Err(e) => failures.push(e.clone()),
    }
    let written: HashSet<Stamp> = pass.ops.iter().filter_map(|op| op.put).collect();
    let mut invalid = 0;
    let mut unwritten = 0;
    for op in &pass.ops {
        match op.reply {
            Some(Reply::Invalid) => invalid += 1,
            Some(Reply::Found(stamp)) => {
                let preload = stamp.writer == PRELOAD_WRITER && stamp.seq == 0;
                if stamp.key != op.key || !(preload || written.contains(&stamp)) {
                    unwritten += 1;
                }
            }
            _ => {}
        }
    }
    if invalid > 0 {
        failures.push(format!(
            "{invalid} replies did not decode as the KvResult their operation expects"
        ));
    }
    if unwritten > 0 {
        failures.push(format!(
            "{unwritten} GETs returned a value no PUT wrote to that key"
        ));
    }
    if !pass
        .ops
        .iter()
        .any(|op| op.reply.is_some() && in_window(pass, op.done_ns))
    {
        failures.push("no operation completed inside the window".into());
    }
    failures
}

fn per_op(x: f64, summary: &Summary) -> f64 {
    x / summary.ops()
}

/// Prints what a pass did, as `#` lines.
pub fn describe(label: &str, pass: &Pass, summary: &Summary) {
    println!(
        "# {label} window {:.3} s: {} completed, {} issued, {} failed; {:.4} kreq/s",
        summary.window_s,
        summary.completed,
        summary.attempted,
        summary.failed,
        summary.throughput_kreqs()
    );
    let n = summary.latencies_ms.len();
    let pct = |q| percentile(&summary.latencies_ms, q).unwrap_or(0.0);
    println!(
        "# {label} latency ms over {n} samples: p50 {:.4}, p99 {:.4} ({} beyond), p99.9 {:.4} ({} beyond), max {:.4}",
        pct(0.5),
        pct(0.99),
        n - (0.99 * n as f64).ceil() as usize,
        pct(0.999),
        n - (0.999 * n as f64).ceil() as usize,
        pct(1.0)
    );
    let mut threads = String::new();
    for (group, sched) in &pass.groups {
        threads.push_str(&format!(
            " {group} cpu {:.2} us/op wait {:.2} us/op;",
            per_op(sched.cpu_ns as f64 / 1e3, summary),
            per_op(sched.wait_ns as f64 / 1e3, summary)
        ));
    }
    println!(
        "# {label} cpu {:.2} us/op (process);{threads} steal {:.1}% of the run's CPU; gauge {:.2} us, slowness {:.4} (per slice {:?})",
        per_op(pass.cpu_ns() as f64 / 1e3, summary),
        100.0 * pass.steal_share,
        summary.gauge_us,
        summary.slowness,
        summary.slices.iter().map(|s| (s.slowness * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );
    println!(
        "# {label} at reference speed: p50 {:.4} ms, p99 {:.4} ms; over groups of {P999_GROUP}: p99.9 {:.4} ms; medians over {} slices: {:.4} kreq/s, cpu {:.2} us/op; slice kreq/s {:?}",
        percentile(&summary.scaled_ms, 0.5).unwrap_or(0.0),
        percentile(&summary.scaled_ms, 0.99).unwrap_or(0.0),
        summary.p999_ms,
        summary.slices.len(),
        slice_median(summary, |s| s.kreqs),
        slice_median(summary, |s| s.cpu_us_per_op),
        summary.slices.iter().map(|s| (s.kreqs * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );
    for cycle in &pass.cycles {
        println!(
            "# {label} crash of replica {}: recovered after {:.1} ms, rejoined {}",
            cycle.replica,
            (cycle.recover_ns - cycle.crash_ns) as f64 / 1e6,
            if cycle.rejoined {
                format!(
                    "{:.1} ms after recover",
                    (cycle.rejoin_ns - cycle.recover_ns) as f64 / 1e6
                )
            } else {
                format!(
                    "not within {:.1} ms of recover",
                    (cycle.rejoin_ns - cycle.recover_ns) as f64 / 1e6
                )
            }
        );
    }
    println!(
        "# {label} views: highest {} at shutdown, {} view changes completed (summed over replicas); agreement {}",
        pass.final_view,
        pass.view_changes_completed,
        match &pass.agreement {
            Ok(a) => format!(
                "on {} operations (per replica {:?}) and {} digests; {} restored states match a sequential replay",
                a.operations_shared, a.compared_per_replica, a.digests_shared, a.restores_checked
            ),
            Err(e) => format!("FAILED: {e}"),
        }
    );
    if pass.cycles.is_empty() && pass.view_changes_completed > 0 {
        println!("# finding: {label} run of a fault-free workload completed view changes at the default ProtocolConfig");
    }
    if summary.failed > 0 {
        println!(
            "# finding: {label} run gave up {} of {} operations",
            summary.failed, summary.attempted
        );
    }
    let stragglers = pass.cycles.iter().filter(|c| !c.rejoined).count();
    if stragglers > 0 {
        println!(
            "# finding: {label} run had {stragglers} of {} recovered replicas not reach the cluster head before the window closed",
            pass.cycles.len()
        );
    }
}

/// The end-to-end metrics of a plain pass; `setup_s` is the median of the
/// pass's own set-up and `more_setups`, taken in fresh processes just
/// before and after it while the host ran at `setup_slowness`, scaled to
/// reference speed.
pub fn end_to_end(
    pass: &Pass,
    summary: &Summary,
    more_setups: &[f64],
    setup_slowness: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut setups = more_setups.to_vec();
    setups.push(pass.setup_s);
    let values = [
        slice_median(summary, |s| s.kreqs),
        percentile(&summary.scaled_ms, 0.5).unwrap_or(0.0),
        percentile(&summary.scaled_ms, 0.99).unwrap_or(0.0),
        summary.p999_ms,
        slice_median(summary, |s| s.cpu_us_per_op),
        completed_share(summary.attempted, summary.failed),
        summary.unavailable_ms,
        median(&setups).unwrap_or(0.0) / setup_slowness,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (name.to_string(), value, *unit))
        .collect()
}

/// View changes completed in the window, counted once per new view, and
/// for each crash the time until the first replica completed one.
fn view_changes(pass: &Pass, tracer: &Tracer) -> (u64, f64) {
    let completed = tracer.view_events();
    let views: BTreeSet<u64> = completed
        .iter()
        .filter(|e| in_window(pass, e.at_ns))
        .map(|e| e.view)
        .collect();
    let waits: Vec<f64> = pass
        .cycles
        .iter()
        .filter_map(|c| {
            let e = completed.iter().find(|e| e.at_ns >= c.crash_ns)?;
            Some((e.at_ns - c.crash_ns) as f64 / 1e6)
        })
        .collect();
    (views.len() as u64, median(&waits).unwrap_or(0.0))
}

pub fn per_layer(
    plain: &Pass,
    plain_summary: &Summary,
    traced: &Pass,
    summary: &Summary,
    tracer: &Tracer,
    prices: &Prices,
) -> Vec<(String, f64, &'static str)> {
    let stats = tracer.stats();
    let stat = |name: &'static str, kind: Option<MessageKind>| {
        stats.get(&(name, kind)).copied().unwrap_or_default()
    };
    let all_kinds = |name: &'static str| {
        stats
            .iter()
            .filter(|((n, _), _)| *n == name)
            .fold(Stat::default(), |acc, (_, s)| Stat {
                calls: acc.calls + s.calls,
                ns: acc.ns + s.ns,
            })
    };
    let group = |g: &str| plain.groups.get(g).copied().unwrap_or_default();
    let plain_us = |ns: u64| per_op(ns as f64 / 1e3, plain_summary);
    let traced_us = |ns: u64| per_op(ns as f64 / 1e3, summary);
    let replicas = f64::from(crate::run::cluster().total_size());
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| out.push((name, value, unit));

    put(
        "runtime.replica_cpu_us_per_op".into(),
        plain_us(group("replica").cpu_ns),
        "us",
    );
    put(
        "runtime.replica_runq_wait_us_per_op".into(),
        plain_us(group("replica").wait_ns),
        "us",
    );
    put(
        "runtime.client_cpu_us_per_op".into(),
        plain_us(group("client").cpu_ns),
        "us",
    );
    put(
        "net.reactor_cpu_us_per_op".into(),
        plain_us(group("reactor").cpu_ns),
        "us",
    );
    put(
        "net.reactor_runq_wait_us_per_op".into(),
        plain_us(group("reactor").wait_ns),
        "us",
    );
    put(
        "net.messages_per_op".into(),
        per_op(plain.net.messages as f64, plain_summary),
        "1/op",
    );
    put(
        "net.bytes_per_op".into(),
        per_op(plain.net.bytes as f64, plain_summary),
        "B/op",
    );
    put(
        "net.write_syscalls_per_op".into(),
        per_op(plain.net.write_syscalls as f64, plain_summary),
        "1/op",
    );
    put(
        "net.vectored_writes_per_op".into(),
        per_op(plain.net.vectored_writes as f64, plain_summary),
        "1/op",
    );
    put(
        "net.reconnects".into(),
        plain.net.reconnects as f64,
        "count",
    );

    let handlers = [
        all_kinds("replica.on_message"),
        stat("replica.on_timer", None),
        stat("replica.on_start", None),
    ];
    put(
        "core.handler_us_per_op".into(),
        traced_us(handlers.iter().map(|s| s.ns).sum()),
        "us",
    );
    put(
        "core.handler_self_us_per_op".into(),
        traced_us(stat("core.self", None).ns),
        "us",
    );
    for kind in REPLICA_KINDS {
        let s = stat("replica.on_message", Some(kind));
        put(
            format!("core.handler_us.{}", kind_name(kind)),
            s.mean(1e3),
            "us",
        );
        put(
            format!("core.calls_per_op.{}", kind_name(kind)),
            per_op(s.calls as f64, summary),
            "1/op",
        );
    }
    let (view_changes, view_change_ms) = view_changes(traced, tracer);
    put("core.view_changes".into(), view_changes as f64, "count");
    put(
        "core.checkpoints_per_kop".into(),
        stat("core.stable_checkpoint", None).calls as f64 / replicas / summary.kops(),
        "1/kop",
    );
    put("core.view_change_ms".into(), view_change_ms, "ms");
    // A replica that never reached the head counts with the time it was
    // given, so a rejoin that stops happening still moves the metric.
    let rejoins: Vec<f64> = traced
        .cycles
        .iter()
        .map(|c| (c.rejoin_ns - c.recover_ns) as f64 / 1e6)
        .collect();
    put(
        "core.rejoin_ms".into(),
        median(&rejoins).unwrap_or(0.0),
        "ms",
    );

    let replies = all_kinds("client.on_message");
    put(
        "client.submit_us".into(),
        stat("client.submit", None).mean(1e3),
        "us",
    );
    put("client.reply_us_per_op".into(), traced_us(replies.ns), "us");
    put(
        "client.replies_per_op".into(),
        per_op(replies.calls as f64, summary),
        "1/op",
    );
    put(
        "client.retransmissions_per_kop".into(),
        stat("client.retransmit", None).calls as f64 / summary.kops(),
        "1/kop",
    );
    put(
        "client.failed_share".into(),
        1.0 - completed_share(summary.attempted, summary.failed),
        "share",
    );

    let digest = stat("app.state_digest", None);
    put(
        "app.execute_us".into(),
        stat("app.execute", None).mean(1e3),
        "us",
    );
    put(
        "app.execute_read_us".into(),
        stat("app.execute_read", None).mean(1e3),
        "us",
    );
    put("app.state_digest_ms".into(), digest.mean(1e6), "ms");
    put(
        "app.state_digest_calls_per_kop".into(),
        digest.calls as f64 / summary.kops(),
        "1/kop",
    );
    put(
        "app.snapshot_ms".into(),
        stat("app.snapshot", None).mean(1e6),
        "ms",
    );
    put(
        "app.restore_ms".into(),
        stat("app.restore", None).mean(1e6),
        "ms",
    );

    let appends = stat("store.append", None);
    put("store.append_us".into(), appends.mean(1e3), "us");
    put(
        "store.appends_per_op".into(),
        per_op(appends.calls as f64, summary),
        "1/op",
    );
    put(
        "store.persist_checkpoint_ms".into(),
        stat("store.persist_checkpoint", None).mean(1e6),
        "ms",
    );
    put(
        "store.compact_ms".into(),
        stat("store.compact_below", None).mean(1e6),
        "ms",
    );
    put(
        "store.recover_ms".into(),
        stat("store.recover", None).mean(1e6),
        "ms",
    );
    // The replayed-record count rides in the `ns` field of its total.
    put(
        "store.wal_replayed_records".into(),
        stat("store.wal_replayed", None).mean(1.0),
        "count",
    );

    let mut codec_ns = 0.0;
    for kind in wire_kinds() {
        let cost = prices.kinds.get(&kind).copied().unwrap_or_default();
        let name = kind_name(kind);
        put(format!("wire.encode_ns.{name}"), cost.encode_ns, "ns");
        put(format!("wire.decode_ns.{name}"), cost.decode_ns, "ns");
        put(format!("wire.frame_bytes.{name}"), cost.frame_bytes, "B");
        let calls = match kind {
            MessageKind::Reply | MessageKind::ReadReply => {
                stat("client.on_message", Some(kind)).calls
            }
            _ => stat("replica.on_message", Some(kind)).calls,
        };
        codec_ns += per_op(calls as f64, summary) * (cost.encode_ns + cost.decode_ns);
    }
    put("wire.codec_us_per_op".into(), codec_ns / 1e3, "us");

    put(
        "crypto.sha256_ns_per_kib".into(),
        prices.sha256_ns_per_kib,
        "ns/KiB",
    );
    put("crypto.sign_ns".into(), prices.sign_ns, "ns");
    put("crypto.verify_ns".into(), prices.verify_ns, "ns");
    put(
        "crypto.request_digest_ns".into(),
        prices.request_digest_ns,
        "ns",
    );
    put(
        "crypto.batch_digest_ns".into(),
        prices.batch_digest_ns,
        "ns",
    );

    // At reference speed, so the host's drift between the passes drops out.
    let plain_tput = slice_median(plain_summary, |s| s.kreqs);
    put(
        "bench.trace_overhead_pct".into(),
        (plain_tput - slice_median(summary, |s| s.kreqs)) / plain_tput * 100.0,
        "%",
    );
    put("bench.gauge_us".into(), plain_summary.gauge_us, "us");
    out
}

/// The last line of output: one JSON object.
pub fn result_line(summary: &Summary, values: &[(String, f64, &'static str)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        summary.attempted.max(1),
        summary.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Cycle, Mark, Net};

    fn op(issued_ms: u64, done_ms: u64, reply: Option<Reply>) -> OpRecord {
        OpRecord {
            issued_ns: issued_ms * 1_000_000,
            done_ns: done_ms * 1_000_000,
            key: 0,
            put: None,
            reply,
        }
    }

    fn pass(ops: Vec<OpRecord>, cycles: Vec<Cycle>) -> Pass {
        Pass {
            setup_s: 0.2,
            window: (1_000_000_000, 2_000_000_000),
            ops,
            marks: vec![
                Mark {
                    at_ns: 1_000_000_000,
                    cpu_ns: 0,
                    stolen_ns: 0,
                },
                Mark {
                    at_ns: 2_000_000_000,
                    cpu_ns: 8_000_000,
                    stolen_ns: 0,
                },
            ],
            groups: Default::default(),
            steal_share: 0.0,
            // One gauge sample in the window, at reference speed.
            gauge: vec![(1_500_000_000, (gauge::REFERENCE_US * 1e3) as u64)],
            net: Net::default(),
            cycles,
            final_view: 0,
            view_changes_completed: 0,
            agreement: Ok(Default::default()),
        }
    }

    #[test]
    fn window_accounting_on_a_synthetic_completion_list() {
        // 100 ops of 10 ms back to back from 990 ms; the one issued at 1500
        // ms was given up, and its slot stays empty until 1710 ms.
        let mut ops = Vec::new();
        let mut t = 990;
        while t < 2000 {
            if t == 1500 {
                ops.push(op(1500, 1700, None));
                t = 1700;
                continue;
            }
            ops.push(op(t, t + 10, Some(Reply::PutOk)));
            t += 10;
        }
        let crash = Cycle {
            replica: 0,
            crash_ns: 1_495_000_000,
            recover_ns: 1_600_000_000,
            rejoin_ns: 1_650_000_000,
            rejoined: false,
        };
        let p = pass(ops, vec![crash]);
        let s = summarize(&p);
        // Completions at 1000..=1500 and 1710..=2000 (2000 itself excluded).
        assert_eq!(s.completed, 51 + 29);
        // Issued at 1000..1490, 1500, and 1700..1990.
        assert_eq!(s.attempted, 50 + 1 + 30);
        assert_eq!(s.failed, 1);
        assert_eq!(completed_share(s.attempted, s.failed), 80.0 / 81.0);
        // After the crash at 1495 ms the first op issued (1500 ms) was given
        // up; the next, issued at 1700 ms, completes at 1710 ms.
        assert_eq!(s.unavailable_ms, 215.0);
        assert_eq!(percentile(&s.latencies_ms, 0.5), Some(10.0));
        let e2e = end_to_end(&p, &s, &[0.3, 0.1], 1.0);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(e2e[7], ("setup_s".to_string(), 0.2, "s"));
        // One slice, the whole window: 80 ops and 8 ms of CPU.
        assert_eq!(e2e[0].1, 80.0 / 1.0 / 1000.0);
        assert_eq!(e2e[1].1, 10.0);
        assert_eq!(e2e[4].1, 100.0);
    }

    #[test]
    fn a_slow_host_and_stolen_time_are_scaled_out() {
        // 100 ops of 10 ms back to back over the window, on a host that
        // ran the gauge at half speed and lost 0.2 s of the second to steal:
        // the cluster did 100 ops in 0.8 s of host time at half speed.
        let ops = (0..100)
            .map(|i| op(1000 + 10 * i, 1010 + 10 * i, Some(Reply::PutOk)))
            .collect();
        let mut p = pass(ops, vec![]);
        p.gauge = vec![(1_500_000_000, (2.0 * gauge::REFERENCE_US * 1e3) as u64)];
        p.marks[1].stolen_ns = 200_000_000;
        let s = summarize(&p);
        assert_eq!(s.slowness, 2.0);
        // 99 completions fall inside the window (the last at 2000 ms is out).
        let e2e = end_to_end(&p, &s, &[], 2.0);
        assert_eq!(e2e[0].1, 99.0 / 0.8 / 1000.0 * 2.0);
        assert_eq!(e2e[1].1, 5.0);
        assert_eq!(e2e[4].1, 8_000.0 / 99.0 / 2.0);
        // Completions every 10 ms from the window's start leave 10 ms
        // between each two, 5 ms scaled; the set-up is scaled alike.
        assert_eq!(s.unavailable_ms, 5.0);
        assert_eq!(e2e[7].1, 0.1);
    }

    #[test]
    fn gate_rejects_unwritten_values_and_bad_replies() {
        let get = op(
            1100,
            1110,
            Some(Reply::Found(Stamp {
                writer: 0,
                seq: 9,
                key: 0,
            })),
        );
        let ok = pass(vec![op(1000, 1010, Some(Reply::PutOk)), get], vec![]);
        let failures = gate(&ok);
        assert!(
            failures.iter().any(|f| f.contains("no PUT wrote")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("unchecked")),
            "{failures:?}"
        );

        let mut put = op(1000, 1010, Some(Reply::PutOk));
        put.put = Some(Stamp {
            writer: 0,
            seq: 9,
            key: 0,
        });
        let mut p = pass(vec![put, get, op(1200, 1210, Some(Reply::Invalid))], vec![]);
        p.agreement = Ok(crate::ledger::Agreement {
            operations_shared: 3,
            compared_per_replica: vec![3, 3],
            digests_shared: 0,
            restores_checked: 0,
        });
        let failures = gate(&p);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("did not decode"));
    }
}
