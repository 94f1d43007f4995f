//! Shared pieces of the three workloads: the measured report, operation
//! accounting, latency statistics, the per-layer metric table, and the
//! Lineitem table the two wire workloads serve.

use slicer_client::{Client, ClientConfig};
use slicer_core::{Advisor, HillClimb, PartitionRequest};
use slicer_cost::HddCostModel;
use slicer_lifecycle::{FleetConfig, TableFleet, TableManager, TableManagerConfig};
use slicer_model::{AttrSet, Partitioning, Query, TableSchema, Workload};
use slicer_net::{Server, ServerConfig, ServerHandle};
use slicer_storage::{generate_table, ColumnData, StoredTable, TableData};
use slicer_workloads::tpch::{self, TpchTable};
use std::collections::BTreeMap;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// Every check over the operations that did not fail held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs; every name in [`LAYER_METRICS`]).
    pub layers: Layers,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// Operations attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one attempted operation, failed if any of its checks did.
    pub fn book(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// Every per-layer metric, with its unit. Each traced run prints all of
/// them; a layer the workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.autopart_ms", "ms"),
    ("core.hillclimb_ms", "ms"),
    ("core.hyrise_ms", "ms"),
    ("core.navathe_ms", "ms"),
    ("core.o2p_ms", "ms"),
    ("core.trojan_ms", "ms"),
    ("core.bruteforce_ms", "ms"),
    ("core.autopart_cost_s", "s"),
    ("core.hillclimb_cost_s", "s"),
    ("core.hyrise_cost_s", "s"),
    ("core.navathe_cost_s", "s"),
    ("core.o2p_cost_s", "s"),
    ("core.trojan_cost_s", "s"),
    ("core.bruteforce_cost_s", "s"),
    ("cost.layout_cost_us", "us"),
    ("cost.admission_price_us", "us"),
    ("combinat.setpart_ms", "ms"),
    ("workloads.generate_s", "s"),
    ("storage.load_s", "s"),
    ("storage.scan_ms", "ms"),
    ("storage.prune_us", "us"),
    ("storage.kept_fraction", "ratio"),
    ("storage.useful_to_kept", "ratio"),
    ("storage.ingest_ms", "ms"),
    ("storage.wal_bytes_per_row", "B"),
    ("storage.repartition_ms", "ms"),
    ("storage.files_rebuilt", "count"),
    ("storage.delta_rows_folded", "count"),
    ("storage.stored_bytes_per_row", "B"),
    ("lifecycle.serve_self_ms", "ms"),
    ("lifecycle.advise_round_ms", "ms"),
    ("lifecycle.repartitions", "count"),
    ("lifecycle.rejected_by_payoff", "count"),
    ("net.wire_self_ms", "ms"),
    ("net.ingest_wire_self_ms", "ms"),
    ("net.ingest_frame_bytes_per_row", "B"),
    ("client.scan_p50_ms", "ms"),
    ("client.scan_p99_ms", "ms"),
    ("client.scan_bytes_per_query", "B"),
    ("client.modeled_scan_io_ms", "ms"),
    ("client.ingest_p50_ms", "ms"),
    ("client.ingest_p99_ms", "ms"),
    ("client.ingest_rows_per_s", "1/s"),
    ("client.retries", "count"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metric table, pre-filled with zeros.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        *slot = value;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0[name],
                unit,
            })
            .collect()
    }
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank on a sorted copy.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
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

/// A small deterministic generator for the benchmark's own choices
/// (selectivities, predicate positions, delete ids), so the program under
/// test never sees where its inputs came from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Rows of the Lineitem table the wire workloads serve.
pub const LINEITEM_ROWS: usize = 200_000;

/// The TPC-H Lineitem schema at `rows` rows, and the attribute sets of
/// the TPC-H queries that touch it (17 of the 22).
pub fn lineitem(rows: usize) -> (TableSchema, Workload) {
    let sf = rows as f64 / 6_000_000.0;
    let bench = tpch::benchmark(sf);
    let idx = bench
        .table_index(tpch::table(TpchTable::Lineitem, sf).name())
        .expect("TPC-H has Lineitem");
    (bench.tables()[idx].clone(), bench.table_workload(idx))
}

/// Index of Lineitem's ShipDate attribute.
pub fn ship_date(schema: &TableSchema) -> usize {
    schema
        .attr_set(&["ShipDate"])
        .expect("Lineitem has ShipDate")
        .iter()
        .next()
        .expect("one attribute")
        .index()
}

/// The ShipDate column of `data`.
pub fn dates(data: &TableData, attr: usize) -> &[i32] {
    match &data.columns[attr] {
        ColumnData::Date(v) => v,
        other => panic!("ShipDate generated as {other:?}"),
    }
}

/// Reorder every column of `data` by ascending `attr` (stable), so that
/// zone maps over that attribute have chunks to skip.
pub fn sort_by_date(data: &TableData, attr: usize) -> TableData {
    let key = dates(data, attr);
    let mut order: Vec<usize> = (0..data.rows).collect();
    order.sort_by_key(|&i| key[i]);
    TableData {
        columns: data.columns.iter().map(|c| take_rows(c, &order)).collect(),
        rows: data.rows,
    }
}

/// The rows of `column` at `order`, in that order.
pub fn take_rows(column: &ColumnData, order: &[usize]) -> ColumnData {
    match column {
        ColumnData::Int(v) => ColumnData::Int(order.iter().map(|&i| v[i]).collect()),
        ColumnData::Decimal(v) => ColumnData::Decimal(order.iter().map(|&i| v[i]).collect()),
        ColumnData::Date(v) => ColumnData::Date(order.iter().map(|&i| v[i]).collect()),
        ColumnData::Text(v) => ColumnData::Text(order.iter().map(|&i| v[i].clone()).collect()),
    }
}

/// Lineitem data for `seed`, in ShipDate order, with the time spent in
/// `slicer_storage::generate_table`.
pub fn lineitem_data(schema: &TableSchema, rows: usize, seed: u64) -> (TableData, f64) {
    let (raw, generate_s) = timed(|| generate_table(schema, rows, seed));
    (sort_by_date(&raw, ship_date(schema)), generate_s)
}

/// The HillClimb layout for `workload` under the paper's HDD model.
pub fn hillclimb_layout(schema: &TableSchema, workload: &Workload) -> Partitioning {
    let model = HddCostModel::paper_testbed();
    HillClimb::new()
        .partition(&PartitionRequest::new(schema, workload, &model))
        .expect("HillClimb partitions Lineitem")
}

/// `true` iff the groups of `layout` are pairwise disjoint and cover
/// exactly the attributes of `schema` (checked here, apart from
/// `Partitioning`'s own constructor).
pub fn disjoint_cover(schema: &TableSchema, layout: &Partitioning) -> bool {
    let mut seen = AttrSet::EMPTY;
    for g in layout.partitions() {
        if g.is_empty() || g.intersects(seen) {
            return false;
        }
        seen = seen.union(*g);
    }
    seen == schema.all_attrs()
}

/// `query` with ShipDate in `lo..=hi` as its predicate (ShipDate joins the
/// projection, since a predicate reads the column it filters on).
pub fn date_range(query: &Query, ship: usize, lo: i32, hi: i32, name: String) -> Query {
    use slicer_model::{AttrId, Literal, PredClause, PredOp, Predicate};
    let mut referenced = query.referenced;
    referenced.insert(ship);
    Query::new(name, referenced).with_predicate(Predicate::new(vec![
        PredClause::new(AttrId(ship as u16), PredOp::Ge, Literal::date(lo)),
        PredClause::new(AttrId(ship as u16), PredOp::Le, Literal::date(hi)),
    ]))
}

/// `query` with its predicate's `kept_fraction` set to `fraction`, as the
/// server stamps a predicated scan (a bare projection is unchanged).
pub fn stamp(query: &Query, fraction: f64) -> Query {
    let mut stamped = query.clone();
    if let Some(p) = stamped.predicate.take() {
        stamped.predicate = Some(p.with_kept_fraction(fraction));
    }
    stamped
}

/// The name the wire workloads serve their table under.
pub const TABLE: &str = "Lineitem";

/// A server config whose admission bound never sheds these workloads: one
/// closed-loop client has at most one scan in flight, and the widest
/// projection models well under an hour of disk time.
fn server_config() -> ServerConfig {
    ServerConfig {
        admission_max_io_seconds: 3600.0,
        ..ServerConfig::default()
    }
}

/// `table` served as [`TABLE`] by a fleet of one HillClimb manager on a
/// loopback server, and one client connected to it.
pub fn serve(table: StoredTable) -> (ServerHandle, Client) {
    let mut fleet = TableFleet::new(FleetConfig::default());
    fleet.add_table(
        TABLE,
        TableManager::new(
            table,
            Box::new(HillClimb::new()),
            HddCostModel::paper_testbed(),
            TableManagerConfig::default(),
        ),
    );
    let handle = Server::spawn(fleet, server_config()).expect("bind loopback");
    let client = Client::connect(
        handle.addr(),
        ClientConfig {
            client_id: 7,
            ..ClientConfig::default()
        },
    );
    (handle, client)
}

/// Per-setup timings of the calls that make up a wire workload's set-up.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub advise: Vec<f64>,
    pub load: Vec<f64>,
}

impl SetupTimes {
    /// Record one set-up that began at `start` and has just ended.
    pub fn record(&mut self, start: Instant, generate_s: f64, advise_s: f64, load_s: f64) {
        self.total.push(start.elapsed().as_secs_f64());
        self.generate.push(generate_s);
        self.advise.push(advise_s);
        self.load.push(load_s);
    }
}
