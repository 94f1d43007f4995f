//! `ingest_mixed`: writes beside reads. One closed-loop client appends,
//! deletes and scans a durable Lineitem table (`StoredTable::create` on an
//! `FsDir`) over loopback, while the benchmark, acting as the operator,
//! runs the fleet's advise round after every 16 routed scans. The WAL,
//! delta, backend and advise/repartition paths do the work, and every
//! scan pays the delta tax.

use crate::common::{
    date_range, hillclimb_layout, lineitem, lineitem_data, mean, median, peak_rss_mb, quantile,
    serve, ship_date, stamp, take_rows, timed, Layers, Metric, Report, Rng, SetupTimes, Tally,
    TABLE,
};
use slicer_client::Client;
use slicer_cost::{DiskParams, HddCostModel};
use slicer_lifecycle::RepartitionDecision;
use slicer_model::{Partitioning, Query, TableSchema, Workload};
use slicer_net::ServerHandle;
use slicer_storage::{
    encode_ingest_batch, generate_table, scan_naive_query_snapshot, ColumnData, CompressionPolicy,
    Dir, FsDir, IngestBatch, ScanExecutor, StoredTable, TableData,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rows in the table at the start; appends and deletes balance per round,
/// so the visible row count stays here.
const BASE_ROWS: usize = 100_000;
/// Rows per append batch, and append batches per round.
const BATCH_ROWS: usize = 2_000;
const APPENDS: usize = 2;
/// Predicated scans per round.
const SCANS: usize = 8;
/// Routed scans between the operator's advise rounds (the fleet's default
/// cadence).
const ADVISE_EVERY: usize = 16;
/// Rounds between switches of the scan mix's projection family.
const PHASE_ROUNDS: usize = 12;
/// Distinct append batches, generated before the clock starts and reused
/// in turn.
const POOL: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Where the run keeps its table directories: inside the working
/// directory, removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";

fn work_root() -> PathBuf {
    PathBuf::from(WORK_DIR).join(format!("ingest-{}", std::process::id()))
}

/// The two projection families the scan mix switches between: pricing
/// columns, then shipping columns (each scan also reads ShipDate, the
/// column its predicate filters on).
fn families(schema: &TableSchema) -> [Vec<Query>; 2] {
    let q = |name: &str, attrs: &[&str]| {
        Query::new(name, schema.attr_set(attrs).expect("Lineitem attributes"))
    };
    [
        vec![
            q("price", &["ExtendedPrice", "Discount"]),
            q("tax", &["ExtendedPrice", "Tax"]),
            q("qty", &["Quantity", "ExtendedPrice"]),
        ],
        vec![
            q("mode", &["ShipMode", "ShipInstruct"]),
            q("flags", &["ReturnFlag", "LineStatus"]),
            q("dates", &["CommitDate", "ReceiptDate"]),
        ],
    ]
}

struct Durable {
    schema: TableSchema,
    data: TableData,
    layout: Partitioning,
    dir: PathBuf,
    handle: ServerHandle,
    client: Client,
}

fn setup(seed: u64, k: usize, times: &mut SetupTimes) -> Durable {
    let dir = work_root().join(format!("setup-{k}"));
    let start = Instant::now();
    let (schema, _) = lineitem(BASE_ROWS);
    let (data, generate_s) = lineitem_data(&schema, BASE_ROWS, seed);
    let window: Workload = Workload::with_queries(&schema, families(&schema)[0].clone())
        .expect("families fit Lineitem");
    let (layout, advise_s) = timed(|| hillclimb_layout(&schema, &window));
    let (table, load_s) = timed(|| {
        let fs: Arc<dyn Dir> = Arc::new(FsDir::open(&dir).expect("create the table directory"));
        StoredTable::create(&schema, &data, &layout, CompressionPolicy::Default, fs)
            .expect("create the durable table")
    });
    let (handle, client) = serve(table);
    times.record(start, generate_s, advise_s, load_s);
    Durable {
        schema,
        data,
        layout,
        dir,
        handle,
        client,
    }
}

/// The benchmark's own copy of the table: for each positional row id, the
/// row of the universe (the base data, then the append pool; see [`stack`])
/// it holds, and whether it is tombstoned. A fold drops the tombstoned ids
/// and keeps the order, as the engine's fold does.
struct Model {
    rows: Vec<u32>,
    deleted: Vec<bool>,
}

impl Model {
    fn new(base: usize) -> Model {
        Model {
            rows: (0..base as u32).collect(),
            deleted: vec![false; base],
        }
    }

    /// Append universe rows `first..first + rows`.
    fn append(&mut self, first: usize, rows: usize) {
        self.rows.extend(first as u32..(first + rows) as u32);
        self.deleted.resize(self.rows.len(), false);
    }

    /// `n` distinct live row ids, drawn from `rng`.
    fn pick_deletes(&mut self, n: usize, rng: &mut Rng) -> Vec<u64> {
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.below(self.rows.len() as u64) as usize;
            if !self.deleted[id] {
                self.deleted[id] = true;
                ids.push(id as u64);
            }
        }
        ids
    }

    fn fold(&mut self) {
        let deleted = std::mem::take(&mut self.deleted);
        let mut i = 0;
        self.rows.retain(|_| {
            i += 1;
            !deleted[i - 1]
        });
        self.deleted = vec![false; self.rows.len()];
    }

    /// The surviving rows, taken from `universe`.
    fn materialize(&self, universe: &TableData) -> TableData {
        let live: Vec<usize> = self
            .rows
            .iter()
            .zip(&self.deleted)
            .filter(|(_, d)| !**d)
            .map(|(&r, _)| r as usize)
            .collect();
        TableData {
            columns: universe
                .columns
                .iter()
                .map(|c| take_rows(c, &live))
                .collect(),
            rows: live.len(),
        }
    }
}

/// The rows of `parts`, one part after another.
fn stack(parts: &[&TableData]) -> TableData {
    use ColumnData::*;
    let columns = (0..parts[0].columns.len())
        .map(|c| {
            let mut column = parts[0].columns[c].clone();
            for part in &parts[1..] {
                match (&mut column, &part.columns[c]) {
                    (Int(x), Int(y)) => x.extend_from_slice(y),
                    (Decimal(x), Decimal(y)) => x.extend_from_slice(y),
                    (Date(x), Date(y)) => x.extend_from_slice(y),
                    (Text(x), Text(y)) => x.extend_from_slice(y),
                    _ => panic!("column kinds differ between parts"),
                }
            }
            column
        })
        .collect();
    TableData {
        columns,
        rows: parts.iter().map(|p| p.rows).sum(),
    }
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Client-side figures of the measured loop.
#[derive(Default)]
struct Ops {
    scan_s: Vec<f64>,
    ingest_s: Vec<f64>,
    all_s: Vec<f64>,
    io_s: Vec<f64>,
    scan_io_s: Vec<f64>,
    scan_bytes: Vec<f64>,
    appended: u64,
    deleted: u64,
    tally: Tally,
    advise_s: Vec<f64>,
    wall_s: f64,
}

/// The in-process mirror a traced phase keeps in step with the server: the
/// same batches, the same layout moves, the same scans, each call timed.
struct Mirror {
    table: StoredTable,
    ingest_s: f64,
    ingests: f64,
    wal_bytes: f64,
    rows_appended: f64,
    scan_s: f64,
    scans: f64,
    repartition_s: f64,
    repartitions: f64,
    files_rebuilt: f64,
    delta_rows_folded: f64,
    wire_ingest_s: f64,
    frame_bytes: f64,
}

impl Mirror {
    fn new(schema: &TableSchema, rows: &TableData, layout: &Partitioning) -> Mirror {
        let dir = work_root().join("mirror");
        let fs: Arc<dyn Dir> = Arc::new(FsDir::open(dir).expect("create the mirror directory"));
        Mirror {
            table: StoredTable::create(schema, rows, layout, CompressionPolicy::Default, fs)
                .expect("create the mirror table"),
            ingest_s: 0.0,
            ingests: 0.0,
            wal_bytes: 0.0,
            rows_appended: 0.0,
            scan_s: 0.0,
            scans: 0.0,
            repartition_s: 0.0,
            repartitions: 0.0,
            files_rebuilt: 0.0,
            delta_rows_folded: 0.0,
            wire_ingest_s: 0.0,
            frame_bytes: 0.0,
        }
    }

    /// Apply `batch` as the server did, timing `StoredTable::ingest`;
    /// `wire_s` is the same batch's `Client::ingest` time.
    fn ingest(
        &mut self,
        batch: &IngestBatch,
        wire_s: f64,
        disk: &DiskParams,
    ) -> Result<(), String> {
        let (stats, s) = timed(|| self.table.ingest(batch, disk));
        let stats = stats.map_err(|e| format!("in-process ingest: {e}"))?;
        self.ingest_s += s;
        self.ingests += 1.0;
        self.wal_bytes += stats.wal_bytes as f64;
        self.rows_appended += stats.rows_appended as f64;
        self.wire_ingest_s += wire_s;
        self.frame_bytes += encode_ingest_batch(batch).len() as f64;
        Ok(())
    }

    /// Time `ScanExecutor::scan_query_snapshot` of `query`, stamped as the
    /// server stamps it.
    fn scan(&mut self, query: &Query, disk: &DiskParams) {
        let snapshot = self.table.snapshot();
        let fraction = query
            .predicate
            .as_ref()
            .map_or(1.0, |p| snapshot.prune_fraction(p));
        let stamped = stamp(query, fraction);
        let (_, s) =
            timed(|| ScanExecutor::new(&self.table).scan_query_snapshot(&snapshot, &stamped, disk));
        self.scan_s += s;
        self.scans += 1.0;
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let _ = std::fs::remove_dir_all(work_root());
    let mut times = SetupTimes::default();
    let mut d = setup(seed, 0, &mut times);
    for k in 1..SETUPS {
        d.handle.shutdown();
        let _ = std::fs::remove_dir_all(&d.dir);
        d = setup(seed, k, &mut times);
    }
    let Durable {
        schema,
        data: base,
        layout,
        dir,
        handle,
        mut client,
    } = d;

    let ship = ship_date(&schema);
    let fams = families(&schema);
    let pool: Vec<TableData> = (0..POOL)
        .map(|i| generate_table(&schema, BATCH_ROWS, seed ^ (0xA11C_E000 + i as u64)))
        .collect();
    // Pool batch `i` is universe rows `BASE_ROWS + i * BATCH_ROWS..`.
    let universe = stack(
        &std::iter::once(&base)
            .chain(&pool)
            .collect::<Vec<&TableData>>(),
    );
    drop(base);
    let mut rng = Rng::new(seed ^ 0x1D6E57);
    let mut model = Model::new(BASE_ROWS);
    let days_span = 2526;
    let model_hdd = HddCostModel::paper_testbed();
    let disk = model_hdd.params();

    let mut mirror: Option<Mirror> = None;
    let mut layout = layout;
    // True when the last advise round folded the delta: the server's table
    // then holds exactly the model's surviving rows, in order.
    let mut folded = false;

    let mut plain = Ops::default();
    let mut traced = Ops::default();
    let mut round = 0usize;
    let mut routed = 0usize;
    let mut last_generation = 0u64;
    let mut pool_next = 0usize;
    let mut traced_phase = false;
    let plain_budget = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut phase_start = start;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !traced_phase && elapsed >= plain_budget && plain.tally.attempted > 0 {
            if !trace {
                plain.wall_s = phase_start.elapsed().as_secs_f64();
                break;
            }
            // The traced half starts at a fold, where an in-process copy
            // built from the model's rows has the server's row positions.
            if folded {
                plain.wall_s = phase_start.elapsed().as_secs_f64();
                mirror = Some(Mirror::new(&schema, &model.materialize(&universe), &layout));
                traced_phase = true;
                phase_start = Instant::now();
            }
        }
        // A traced run that meets no fold stops untraced at 1.5x its time.
        let over = elapsed >= seconds && (traced_phase || elapsed >= 1.5 * seconds);
        if over && plain.tally.attempted > 0 {
            if traced_phase {
                traced.wall_s = phase_start.elapsed().as_secs_f64();
            } else {
                plain.wall_s = phase_start.elapsed().as_secs_f64();
            }
            break;
        }
        folded = false;
        let ops = if traced_phase {
            &mut traced
        } else {
            &mut plain
        };
        let m = if traced_phase { mirror.as_mut() } else { None };
        let mut m = m;

        // Appends.
        for _ in 0..APPENDS {
            let src = pool_next % POOL;
            pool_next += 1;
            let batch = IngestBatch::append(pool[src].clone());
            let t = Instant::now();
            let reply = client.ingest(TABLE, &batch);
            let lat = t.elapsed().as_secs_f64();
            model.append(BASE_ROWS + src * BATCH_ROWS, BATCH_ROWS);
            let outcome = match reply {
                Ok(r)
                    if r.rows_appended == BATCH_ROWS as u64
                        && r.rows_deleted == 0
                        && !r.deduped =>
                {
                    ops.ingest_s.push(lat);
                    ops.all_s.push(lat);
                    ops.io_s.push(r.io_seconds);
                    ops.appended += BATCH_ROWS as u64;
                    Ok(())
                }
                other => Err(format!("append: unexpected reply {other:?}")),
            };
            let mirrored = m
                .as_deref_mut()
                .map_or(Ok(()), |m| m.ingest(&batch, lat, &disk));
            ops.tally.book(outcome.and(mirrored));
        }

        // One delete batch, as many rows as the round appended.
        let ids = model.pick_deletes(APPENDS * BATCH_ROWS, &mut rng);
        let batch = IngestBatch::delete(ids);
        let t = Instant::now();
        let reply = client.ingest(TABLE, &batch);
        let lat = t.elapsed().as_secs_f64();
        let outcome = match reply {
            Ok(r)
                if r.rows_deleted == batch.deletes.len() as u64
                    && r.rows_appended == 0
                    && !r.deduped =>
            {
                ops.ingest_s.push(lat);
                ops.all_s.push(lat);
                ops.io_s.push(r.io_seconds);
                ops.deleted += batch.deletes.len() as u64;
                Ok(())
            }
            other => Err(format!("delete: unexpected reply {other:?}")),
        };
        let mirrored = m
            .as_deref_mut()
            .map_or(Ok(()), |m| m.ingest(&batch, lat, &disk));
        ops.tally.book(outcome.and(mirrored));

        // Narrow predicated scans from the current family.
        let family = &fams[(round / PHASE_ROUNDS) % 2];
        for s in 0..SCANS {
            let p = &family[s % family.len()];
            let lo = rng.below(days_span - 8) as i32;
            let q = date_range(
                p,
                ship,
                lo,
                lo + 2 + (s as i32 % 6),
                format!("{}-{s}", p.name),
            );
            let t = Instant::now();
            let reply = client.scan(TABLE, &q);
            let lat = t.elapsed().as_secs_f64();
            let outcome = match reply {
                Ok(r)
                    if r.kept_fraction > 0.0
                        && r.kept_fraction <= 1.0
                        && r.generation >= last_generation =>
                {
                    last_generation = r.generation;
                    ops.scan_s.push(lat);
                    ops.all_s.push(lat);
                    ops.io_s.push(r.io_seconds);
                    ops.scan_io_s.push(r.io_seconds);
                    ops.scan_bytes.push(r.bytes_read as f64);
                    Ok(())
                }
                other => Err(format!("scan {}: unexpected reply {other:?}", q.name)),
            };
            ops.tally.book(outcome);
            if let Some(m) = m.as_deref_mut() {
                m.scan(&q, &disk);
            }
            routed += 1;
            if routed.is_multiple_of(ADVISE_EVERY) {
                let (decisions, s) = timed(|| handle.with_fleet(|f| f.advise_round()));
                ops.advise_s.push(s);
                for (_, decision) in decisions {
                    if let RepartitionDecision::Applied(event) = decision {
                        model.fold();
                        folded = true;
                        layout = event.new_layout.clone();
                        if let Some(m) = m.as_deref_mut() {
                            let (stats, s) =
                                timed(|| m.table.repartition(&event.new_layout, &disk));
                            m.repartition_s += s;
                            m.repartitions += 1.0;
                            m.files_rebuilt += stats.files_rebuilt as f64;
                            m.delta_rows_folded += stats.delta_rows_folded as f64;
                        }
                    }
                }
            }
        }
        round += 1;
    }

    // Final checks: the visible row count, checksums against a table
    // freshly loaded from the benchmark's own copy of the surviving rows,
    // and the same checksums from the durable directory after shutdown.
    // Each check is booked as one operation; a failed reopen fails every
    // check that needed it, so a run always attempts the same final checks.
    let mut notes = Vec::new();
    let mut finals = Tally::default();
    let appended = plain.appended + traced.appended;
    let deleted = plain.deleted + traced.deleted;
    let expected_rows = BASE_ROWS as u64 + appended - deleted;
    let survivors = model.materialize(&universe);
    let oracle = StoredTable::load(
        &schema,
        &survivors,
        &Partitioning::row(&schema),
        CompressionPolicy::Default,
    );
    let oracle_snapshot = oracle.snapshot();
    let checks: Vec<Query> = fams
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, p)| {
            date_range(
                p,
                ship,
                300 * i as i32,
                300 * i as i32 + 400,
                format!("final-{i}"),
            )
        })
        .chain(std::iter::once(Query::new("all", schema.all_attrs())))
        .collect();
    let want: Vec<u64> = checks
        .iter()
        .map(|q| scan_naive_query_snapshot(&oracle_snapshot, q, &disk).checksum)
        .collect();
    let visible = handle.with_fleet(|f| {
        f.manager(TABLE)
            .expect("registered")
            .table()
            .snapshot()
            .visible_rows()
    });
    finals.book(
        if visible as u64 == expected_rows && survivors.rows as u64 == expected_rows {
            Ok(())
        } else {
            Err(format!(
                "visible rows {visible}, model {}, expected {expected_rows}",
                survivors.rows
            ))
        },
    );
    for (q, w) in checks.iter().zip(&want) {
        finals.book(match client.scan(TABLE, q) {
            Ok(r) if r.checksum == *w => Ok(()),
            other => Err(format!(
                "final {}: {other:?} differs from the oracle",
                q.name
            )),
        });
    }
    let stored_bytes_per_row = dir_bytes(&dir) as f64 / expected_rows as f64;
    let retries = client.stats().retries;
    drop(client);
    let fleet = handle.shutdown();
    let fstats = *fleet.stats();
    drop(fleet);
    let fs: Arc<dyn Dir> = Arc::new(FsDir::open(&dir).expect("reopen the table directory"));
    let reopened = StoredTable::open(&schema, fs).map(|(table, _)| table.snapshot());
    for (q, w) in checks.iter().zip(&want) {
        finals.book(match &reopened {
            Ok(snapshot) if scan_naive_query_snapshot(snapshot, q, &disk).checksum == *w => Ok(()),
            Ok(_) => Err(format!(
                "reopened {}: checksum differs from the oracle",
                q.name
            )),
            Err(e) => Err(format!("reopen for {} failed: {e}", q.name)),
        });
    }
    let _ = std::fs::remove_dir_all(work_root());
    // Succeeds only when no other run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);

    let mut layers = Layers::new();
    if let Some(m) = &mirror {
        layers.set("workloads.generate_s", median(&times.generate));
        layers.set("core.hillclimb_ms", median(&times.advise) * 1e3);
        layers.set("storage.load_s", median(&times.load));
        layers.set("storage.ingest_ms", m.ingest_s / m.ingests.max(1.0) * 1e3);
        layers.set(
            "storage.wal_bytes_per_row",
            m.wal_bytes / m.rows_appended.max(1.0),
        );
        layers.set("storage.scan_ms", m.scan_s / m.scans.max(1.0) * 1e3);
        layers.set(
            "storage.repartition_ms",
            m.repartition_s / m.repartitions.max(1.0) * 1e3,
        );
        layers.set("storage.files_rebuilt", m.files_rebuilt);
        layers.set("storage.delta_rows_folded", m.delta_rows_folded);
        layers.set("storage.stored_bytes_per_row", stored_bytes_per_row);
        layers.set("lifecycle.advise_round_ms", mean(&traced.advise_s) * 1e3);
        layers.set("lifecycle.repartitions", fstats.repartitions as f64);
        layers.set(
            "lifecycle.rejected_by_payoff",
            fstats.rejected_by_payoff as f64,
        );
        layers.set(
            "net.ingest_wire_self_ms",
            (m.wire_ingest_s - m.ingest_s) / m.ingests.max(1.0) * 1e3,
        );
        layers.set(
            "net.ingest_frame_bytes_per_row",
            m.frame_bytes / (m.rows_appended + traced.deleted as f64).max(1.0),
        );
        layers.set("client.scan_p50_ms", median(&plain.scan_s) * 1e3);
        layers.set("client.scan_p99_ms", quantile(&plain.scan_s, 0.99) * 1e3);
        layers.set("client.scan_bytes_per_query", mean(&plain.scan_bytes));
        layers.set("client.modeled_scan_io_ms", mean(&plain.scan_io_s) * 1e3);
        layers.set("client.ingest_p50_ms", median(&plain.ingest_s) * 1e3);
        layers.set(
            "client.ingest_p99_ms",
            quantile(&plain.ingest_s, 0.99) * 1e3,
        );
        layers.set(
            "client.ingest_rows_per_s",
            plain.appended as f64 / plain.wall_s,
        );
        let p = median(&plain.all_s);
        layers.set(
            "trace.overhead_pct",
            (median(&traced.all_s) - p) / p * 100.0,
        );
    }
    layers.set("client.retries", retries as f64);

    notes.insert(
        0,
        format!(
            "ingest_mixed: {} rounds, {} requests ({} scans, {} ingests), scan p50 {:.3} ms p99 {:.3} ms, ingest p50 {:.3} ms p99 {:.3} ms, {:.0} rows/s appended, {} advise rounds ({} repartitions, {} rejected), {:.1} B stored per row",
            round,
            plain.all_s.len(),
            plain.scan_s.len(),
            plain.ingest_s.len(),
            median(&plain.scan_s) * 1e3,
            quantile(&plain.scan_s, 0.99) * 1e3,
            median(&plain.ingest_s) * 1e3,
            quantile(&plain.ingest_s, 0.99) * 1e3,
            plain.appended as f64 / plain.wall_s,
            fstats.rounds,
            fstats.repartitions,
            fstats.rejected_by_payoff,
            stored_bytes_per_row,
        ),
    );
    let tallies = [&plain.tally, &traced.tally, &finals];
    notes.extend(tallies.iter().flat_map(|t| &t.failures).take(10).cloned());
    let modeled: f64 = mean(&plain.io_s);
    Report {
        correct: tallies.iter().all(|t| t.failures.is_empty()),
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
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
                value: median(&plain.all_s) * 1e3,
                unit: "ms",
            },
            Metric {
                name: "ops_per_s",
                value: plain.all_s.len() as f64 / plain.wall_s,
                unit: "1/s",
            },
            Metric {
                name: "modeled_ms_per_op",
                value: modeled * 1e3,
                unit: "ms",
            },
        ],
        layers,
        notes,
    }
}
