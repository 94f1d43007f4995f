//! `serve_scan`: one closed-loop client scanning TPC-H Lineitem over
//! loopback. The storage executor, pruning and decode do nearly all the
//! work; nothing is ingested and no advise round runs, so the table never
//! carries a delta.

use crate::common::{
    date_range, dates, hillclimb_layout, lineitem, lineitem_data, mean, median, peak_rss_mb,
    quantile, serve, ship_date, stamp, timed, Layers, Metric, Report, Rng, SetupTimes, Tally,
    LINEITEM_ROWS, TABLE,
};
use slicer_client::{Client, ScanReply};
use slicer_core::HillClimb;
use slicer_cost::{CostModel, HddCostModel};
use slicer_lifecycle::{TableManager, TableManagerConfig};
use slicer_model::{Partitioning, Query, TableSchema};
use slicer_net::ServerHandle;
use slicer_storage::{
    scan_naive_query_snapshot, scan_naive_snapshot, CompressionPolicy, ScanExecutor, StoredTable,
    TableData,
};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Predicated variants per projection. With 17 projections that makes
/// 34 ShipDate ranges, whose selectivities step evenly in log scale from
/// 1e-3 to 1e-1.
const VARIANTS: usize = 2;

/// The served table and its inputs, as one set-up leaves them.
struct Served {
    schema: TableSchema,
    data: TableData,
    handle: ServerHandle,
    client: Client,
}

fn setup(seed: u64, times: &mut SetupTimes) -> Served {
    let start = Instant::now();
    let (schema, workload) = lineitem(LINEITEM_ROWS);
    let (data, generate_s) = lineitem_data(&schema, LINEITEM_ROWS, seed);
    let (layout, advise_s) = timed(|| hillclimb_layout(&schema, &workload));
    let (table, load_s) =
        timed(|| StoredTable::load(&schema, &data, &layout, CompressionPolicy::Default));
    let (handle, client) = serve(table);
    times.record(start, generate_s, advise_s, load_s);
    Served {
        schema,
        data,
        handle,
        client,
    }
}

/// One scan of the mix with what the benchmark expects of its reply.
struct Case {
    query: Query,
    checksum: u64,
    /// Qualifying rows over all rows, counted from the benchmark's own
    /// ShipDate column (1.0 for a bare projection).
    selectivity: f64,
    /// Bytes the bare projection of the same attributes reads.
    bare_bytes: u64,
    predicated: bool,
}

/// The query mix: Lineitem's 17 TPC-H projections, then two ShipDate
/// ranges per projection. The range widths are fixed by the ladder; only
/// their positions come from the seed.
fn mix(schema: &TableSchema, projections: &[Query], data: &TableData, seed: u64) -> Vec<Query> {
    let ship = ship_date(schema);
    let days = dates(data, ship);
    let rows = days.len();
    let mut rng = Rng::new(seed ^ 0x5CA7);
    let mut out: Vec<Query> = projections.to_vec();
    let steps = projections.len() * VARIANTS;
    for k in 0..steps {
        let p = &projections[k % projections.len()];
        let target = 1e-3 * 100f64.powf(k as f64 / (steps - 1) as f64);
        // Sorted by ShipDate: a run of `width` rows starting at a seeded
        // row spans the date range whose selectivity is about `target`.
        let width = ((target * rows as f64) as usize).max(1);
        let first = rng.below((rows - width) as u64) as usize;
        let (lo, hi) = (days[first], days[first + width - 1]);
        out.push(date_range(p, ship, lo, hi, format!("{}@{k}", p.name)));
    }
    out
}

fn cases(table: &StoredTable, queries: Vec<Query>, data: &TableData, ship: usize) -> Vec<Case> {
    let snapshot = table.snapshot();
    let disk = HddCostModel::paper_testbed().params();
    let days = dates(data, ship);
    queries
        .into_iter()
        .map(|query| {
            let checksum = scan_naive_query_snapshot(&snapshot, &query, &disk).checksum;
            let bare_bytes = scan_naive_snapshot(&snapshot, query.referenced, &disk).bytes_read;
            let (selectivity, predicated) = match &query.predicate {
                Some(p) => {
                    let lo = p.clauses[0].value.num;
                    let hi = p.clauses[1].value.num;
                    let hits = days
                        .iter()
                        .filter(|&&d| (lo..=hi).contains(&i64::from(d)))
                        .count();
                    (hits as f64 / days.len() as f64, true)
                }
                None => (1.0, false),
            };
            Case {
                query,
                checksum,
                selectivity,
                bare_bytes,
                predicated,
            }
        })
        .collect()
}

/// Client-side figures of a run of scans.
#[derive(Default)]
struct Scans {
    latency_s: Vec<f64>,
    bytes: Vec<f64>,
    io_s: Vec<f64>,
    /// The cost model's price of each served scan (see [`price`]).
    price_s: Vec<f64>,
    wall_s: f64,
    tally: Tally,
}

/// One wire scan of `case`, checked: its latency in seconds and the reply.
fn wire_scan(client: &mut Client, case: &Case) -> Result<(f64, ScanReply), String> {
    let t = Instant::now();
    let reply = client
        .scan(TABLE, &case.query)
        .map_err(|e| format!("{}: {e}", case.query.name))?;
    let latency = t.elapsed().as_secs_f64();
    check(case, &reply)?;
    Ok((latency, reply))
}

/// Check one reply against its case; `Err` names what was wrong.
fn check(case: &Case, reply: &ScanReply) -> Result<(), String> {
    if reply.checksum != case.checksum {
        return Err(format!(
            "{}: checksum differs from the oracle",
            case.query.name
        ));
    }
    if case.predicated {
        if reply.kept_fraction + 1e-12 < case.selectivity {
            return Err(format!(
                "{}: kept_fraction {} below counted selectivity {}",
                case.query.name, reply.kept_fraction, case.selectivity
            ));
        }
        if reply.bytes_read > case.bare_bytes {
            return Err(format!(
                "{}: {} bytes read, bare projection reads {}",
                case.query.name, reply.bytes_read, case.bare_bytes
            ));
        }
    }
    Ok(())
}

/// The HDD cost model's price of a served scan: `CostModel::query_cost`
/// of the query stamped with the reply's `kept_fraction`, under the served
/// layout — the figure the server's admission control charges.
fn price(
    model: &HddCostModel,
    schema: &TableSchema,
    layout: &Partitioning,
    query: &Query,
    reply: &ScanReply,
) -> f64 {
    model.query_cost(schema, layout, &stamp(query, reply.kept_fraction))
}

/// In-process spans of one traced scan, summed over the traced phase.
#[derive(Default)]
struct Spans {
    scans: f64,
    predicated: f64,
    storage_scan: f64,
    prune: f64,
    admission: f64,
    serve: f64,
    wire: f64,
    kept: f64,
    useful: f64,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut times = SetupTimes::default();
    let mut served = setup(seed, &mut times);
    for _ in 1..SETUPS {
        served.handle.shutdown();
        served = setup(seed, &mut times);
    }
    let Served {
        schema,
        data,
        handle,
        mut client,
    } = served;

    // The oracle: the benchmark's own table, loaded from its own copy of
    // the data under the same layout, behind an in-process manager.
    let (_, projections) = lineitem(LINEITEM_ROWS);
    let layout = handle.with_fleet(|f| f.manager(TABLE).expect("registered").layout());
    let ship = ship_date(&schema);
    let model = HddCostModel::paper_testbed();
    let mut manager = TableManager::new(
        StoredTable::load(&schema, &data, &layout, CompressionPolicy::Default),
        Box::new(HillClimb::new()),
        model,
        TableManagerConfig::default(),
    );
    let queries = mix(&schema, projections.queries(), &data, seed);
    let cases = cases(manager.table(), queries, &data, ship);
    let rows = data.rows as f64;
    drop(data);

    let plain_budget = if trace { seconds / 2.0 } else { seconds };
    let mut scans = Scans::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < plain_budget || scans.tally.attempted == 0 {
        for case in &cases {
            let outcome = wire_scan(&mut client, case);
            if let Ok((lat, r)) = &outcome {
                scans.latency_s.push(*lat);
                scans.bytes.push(r.bytes_read as f64);
                scans.io_s.push(r.io_seconds);
                scans
                    .price_s
                    .push(price(&model, &schema, &layout, &case.query, r));
            }
            scans.tally.book(outcome.map(|_| ()));
        }
    }
    scans.wall_s = start.elapsed().as_secs_f64();

    let mut layers = Layers::new();
    let mut traced = Scans::default();
    if trace {
        let disk = model.params();
        let mut spans = Spans::default();
        let table = manager.table_handle();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds / 2.0 || traced.tally.attempted == 0 {
            for case in &cases {
                let (wire, reply) = match wire_scan(&mut client, case) {
                    Ok(x) => x,
                    Err(e) => {
                        traced.tally.book(Err(e));
                        continue;
                    }
                };
                // The same query and snapshot, one layer at a time.
                let snapshot = table.snapshot();
                let query = match &case.query.predicate {
                    Some(p) => {
                        let (fraction, s) = timed(|| snapshot.prune_fraction(p));
                        spans.prune += s;
                        spans.predicated += 1.0;
                        spans.kept += reply.kept_fraction;
                        spans.useful += case.selectivity / reply.kept_fraction;
                        stamp(&case.query, fraction)
                    }
                    None => case.query.clone(),
                };
                let (_, s) = timed(|| model.query_cost(&schema, &snapshot.layout, &query));
                spans.admission += s;
                // The second of two scans of the same data finds it warmer,
                // so the two spans take turns going first.
                let scan = || {
                    timed(|| {
                        ScanExecutor::new(&table).scan_query_snapshot(&snapshot, &query, &disk)
                    })
                };
                let ((result, scan_s), (served, serve_s)) = if traced.tally.attempted % 2 == 0 {
                    let first = scan();
                    (first, timed(|| manager.serve(case.query.clone())))
                } else {
                    let second = timed(|| manager.serve(case.query.clone()));
                    (scan(), second)
                };
                spans.storage_scan += scan_s;
                spans.serve += serve_s;
                spans.wire += wire;
                spans.scans += 1.0;
                traced.latency_s.push(wire);
                let in_process = served.map_or(0, |r| r.checksum);
                traced.tally.book(
                    if in_process == case.checksum && result.checksum == case.checksum {
                        Ok(())
                    } else {
                        Err(format!("{}: in-process checksum differs", case.query.name))
                    },
                );
            }
        }
        let n = spans.scans.max(1.0);
        let np = spans.predicated.max(1.0);
        layers.set("workloads.generate_s", median(&times.generate));
        layers.set("core.hillclimb_ms", median(&times.advise) * 1e3);
        layers.set("storage.load_s", median(&times.load));
        layers.set("storage.scan_ms", spans.storage_scan / n * 1e3);
        layers.set("storage.prune_us", spans.prune / np * 1e6);
        layers.set("storage.kept_fraction", spans.kept / np);
        layers.set("storage.useful_to_kept", spans.useful / np);
        layers.set(
            "storage.stored_bytes_per_row",
            table.snapshot().stored_bytes() as f64 / rows,
        );
        layers.set("cost.admission_price_us", spans.admission / n * 1e6);
        layers.set(
            "lifecycle.serve_self_ms",
            (spans.serve - spans.storage_scan) / n * 1e3,
        );
        layers.set("net.wire_self_ms", (spans.wire - spans.serve) / n * 1e3);
        layers.set("client.scan_p50_ms", median(&scans.latency_s) * 1e3);
        layers.set("client.scan_p99_ms", quantile(&scans.latency_s, 0.99) * 1e3);
        layers.set("client.scan_bytes_per_query", mean(&scans.bytes));
        layers.set("client.modeled_scan_io_ms", mean(&scans.io_s) * 1e3);
        let plain = median(&scans.latency_s);
        layers.set(
            "trace.overhead_pct",
            (median(&traced.latency_s) - plain) / plain * 100.0,
        );
    }
    layers.set("client.retries", client.stats().retries as f64);
    drop(client);
    let fleet_rounds = handle.shutdown().stats().rounds;

    let mut notes = vec![format!(
        "serve_scan: {} rows, {} scans per round ({} predicated), {} scans, p50 {:.3} ms, p99 {:.3} ms, {:.1} qps, {:.0} B/scan, modeled I/O {:.3} ms/scan, priced {:.3} ms/scan",
        rows,
        cases.len(),
        cases.iter().filter(|c| c.predicated).count(),
        scans.latency_s.len(),
        median(&scans.latency_s) * 1e3,
        quantile(&scans.latency_s, 0.99) * 1e3,
        scans.latency_s.len() as f64 / scans.wall_s,
        mean(&scans.bytes),
        mean(&scans.io_s) * 1e3,
        mean(&scans.price_s) * 1e3
    )];
    notes.push(format!(
        "serve_scan: the server ran {fleet_rounds} advise rounds over {} routed scans",
        scans.tally.attempted + traced.tally.attempted
    ));
    notes.extend(
        scans
            .tally
            .failures
            .iter()
            .chain(&traced.tally.failures)
            .take(10)
            .cloned(),
    );
    let failed = scans.tally.failed + traced.tally.failed;
    Report {
        correct: scans.tally.failures.is_empty() && traced.tally.failures.is_empty(),
        attempted: scans.tally.attempted + traced.tally.attempted,
        failed,
        e2e: vec![
            Metric {
                name: "setup_s",
                value: median(&times.total),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
            Metric {
                name: "op_p50_ms",
                value: median(&scans.latency_s) * 1e3,
                unit: "ms",
            },
            Metric {
                name: "ops_per_s",
                value: scans.latency_s.len() as f64 / scans.wall_s,
                unit: "1/s",
            },
            Metric {
                name: "modeled_ms_per_op",
                value: mean(&scans.price_s) * 1e3,
                unit: "ms",
            },
        ],
        layers,
        notes,
    }
}
