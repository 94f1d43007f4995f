//! `advise_wide`: the paper's advisors on a wide synthetic table and on
//! every TPC-H and SSB table. Only `slicer-core`, `slicer-cost` and
//! `slicer-combinat` work here; nothing is stored, served or ingested.

use crate::common::{
    disjoint_cover, mean, median, peak_rss_mb, timed, Layers, Metric, Report, Rng, Tally,
};
use slicer_combinat::SetPartitions;
use slicer_core::{paper_advisors, Advisor, BruteForce, PartitionRequest};
use slicer_cost::{CostModel, HddCostModel};
use slicer_model::{Partitioning, TableSchema, Workload};
use slicer_workloads::synth::{self, AccessPattern, SyntheticSpec};
use slicer_workloads::{ssb, tpch};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seed of the synthetic table's attribute widths and query sets.
const SYNTH_SEED: u64 = 0x5EED;

/// One table the pass partitions, with the advisors that run on it.
struct Job {
    schema: TableSchema,
    workload: Workload,
    /// Indexes into [`paper_advisors`].
    advisors: Vec<usize>,
}

/// Per-layer metric names of each advisor, in `paper_advisors` order.
const TIME_METRIC: [&str; 7] = [
    "core.autopart_ms",
    "core.hillclimb_ms",
    "core.hyrise_ms",
    "core.navathe_ms",
    "core.o2p_ms",
    "core.trojan_ms",
    "core.bruteforce_ms",
];
const COST_METRIC: [&str; 7] = [
    "core.autopart_cost_s",
    "core.hillclimb_cost_s",
    "core.hyrise_cost_s",
    "core.navathe_cost_s",
    "core.o2p_cost_s",
    "core.trojan_cost_s",
    "core.bruteforce_cost_s",
];
const HILLCLIMB: usize = 1;
const TROJAN: usize = 5;
const BRUTEFORCE: usize = 6;

/// The pass's inputs: the seeded 64 x 128 synthetic table (Trojan and
/// BruteForce refuse 64 attributes by their documented limits), then every
/// TPC-H and SSB table with all seven advisors, except BruteForce on
/// Lineitem.
fn jobs(seed: u64) -> Vec<Job> {
    // The synthetic table is the same for every seed: drawing its query
    // sets, their order or its row count from the seed moved the pass time
    // by up to a third and peak memory threefold between seeds, far past
    // any bound. The seed sets the TPC-H and SSB scale factor instead
    // (9 to 11), which changes their row counts and so the modeled costs
    // the advisors trade off, at a similar amount of work.
    let sf = 9.0 + 2.0 * Rng::new(seed).below(1_001) as f64 / 1_000.0;
    let spec = SyntheticSpec {
        attrs: 64,
        rows: 1_000_000,
        queries: 128,
        pattern: AccessPattern::Uniform { p: 0.3 },
        seed: SYNTH_SEED,
    };
    let (schema, workload) = synth::table_and_workload(&spec);
    let mut jobs = vec![Job {
        schema,
        workload,
        advisors: (0..7).filter(|&a| a != TROJAN && a != BRUTEFORCE).collect(),
    }];
    for bench in [tpch::benchmark(sf), ssb::benchmark(sf)] {
        for (_, schema, workload) in bench.touched_tables() {
            let all = (0..7)
                .filter(|&a| !(a == BRUTEFORCE && schema.name() == "Lineitem"))
                .collect();
            jobs.push(Job {
                schema: schema.clone(),
                workload,
                advisors: all,
            });
        }
    }
    jobs
}

/// What one pass chose and how long each piece took.
struct Pass {
    wall_s: f64,
    /// Chosen layout per (job, advisor), in job-then-advisor order.
    layouts: Vec<Partitioning>,
    /// Modeled HDD seconds summed over every chosen layout.
    cost_s: f64,
    /// Per-advisor seconds and modeled cost (traced passes only).
    advisor_s: [f64; 7],
    advisor_cost_s: [f64; 7],
    /// Seconds inside `PartitionRequest::cost`, and its call count.
    layout_cost_s: f64,
    layout_cost_calls: u64,
    failures: Vec<String>,
}

fn pass(jobs: &[Job], advisors: &[Box<dyn Advisor>], model: &HddCostModel, traced: bool) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        layouts: Vec::new(),
        cost_s: 0.0,
        advisor_s: [0.0; 7],
        advisor_cost_s: [0.0; 7],
        layout_cost_s: 0.0,
        layout_cost_calls: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    let mut chosen = Vec::new();
    for job in jobs {
        let req = PartitionRequest::new(&job.schema, &job.workload, model);
        chosen.clear();
        for &a in &job.advisors {
            let outcome = if traced {
                let (r, s) = timed(|| advisors[a].partition(&req));
                p.advisor_s[a] += s;
                r
            } else {
                advisors[a].partition(&req)
            };
            match outcome {
                Ok(layout) => chosen.push((a, layout)),
                Err(e) => {
                    p.failures.push(format!(
                        "{} on {}: {e}",
                        advisors[a].name(),
                        job.schema.name()
                    ));
                }
            }
        }
        // Costing and checks are outside the advisors' time but inside the
        // pass: they are what a user of the advisors does with a layout.
        let mut costs = Vec::with_capacity(chosen.len());
        for (a, layout) in &chosen {
            let cost = if traced {
                let (c, s) = timed(|| req.cost(layout));
                p.layout_cost_s += s;
                p.layout_cost_calls += 1;
                p.advisor_cost_s[*a] += c;
                c
            } else {
                req.cost(layout)
            };
            if !disjoint_cover(&job.schema, layout) {
                p.failures.push(format!(
                    "{} on {}: layout is not a disjoint cover",
                    advisors[*a].name(),
                    job.schema.name()
                ));
            }
            costs.push((*a, cost));
            p.cost_s += cost;
        }
        let tol = |c: f64| 1e-9 * c.abs().max(1.0);
        if let Some(&(_, bf)) = costs.iter().find(|(a, _)| *a == BRUTEFORCE) {
            for &(a, c) in &costs {
                if bf > c + tol(c) {
                    p.failures.push(format!(
                        "BruteForce costs {bf} > {} {c} on {}",
                        advisors[a].name(),
                        job.schema.name()
                    ));
                }
            }
        }
        if let Some(&(_, hc)) = costs.iter().find(|(a, _)| *a == HILLCLIMB) {
            let column = model.workload_cost(
                &job.schema,
                &Partitioning::column(&job.schema),
                &job.workload,
            );
            if hc > column + tol(column) {
                p.failures.push(format!(
                    "HillClimb costs {hc} > Column {column} on {}",
                    job.schema.name()
                ));
            }
        }
        p.layouts.extend(chosen.drain(..).map(|(_, l)| l));
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// Walk every set partition of each BruteForce table's enumeration
/// universe (its workload's atomic fragments) — the combinatorial part of
/// BruteForce, timed apart from its costing. Returns seconds.
fn walk_set_partitions(jobs: &[Job]) -> f64 {
    let (walked, s) = timed(|| {
        let mut walked = 0u64;
        for job in jobs.iter().filter(|j| j.advisors.contains(&BRUTEFORCE)) {
            let n = job.workload.atomic_fragments(&job.schema).len();
            let mut parts = SetPartitions::new(n);
            while parts.next_rgs_from().is_some() {
                walked += 1;
            }
        }
        walked
    });
    std::hint::black_box(walked);
    s
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let advisors = paper_advisors();
    let model = HddCostModel::paper_testbed();
    // A set-up builds the inputs and runs one warm-up pass, so lazy
    // allocation and cold caches land in set-up rather than in the first
    // timed pass; the timed passes must repeat the warm-up's layouts.
    let (mut setup, mut generate) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut warm = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (j, g) = timed(|| jobs(seed));
        let p = pass(&j, &advisors, &model, false);
        setup.push(start.elapsed().as_secs_f64());
        generate.push(g);
        warm = Some((j, p));
    }
    let (jobs, warm_up) = warm.expect("at least one set-up");
    let calls_per_pass: usize = jobs.iter().map(|j| j.advisors.len()).sum();

    let mut notes = vec![format!(
        "advise_wide: {} tables, {calls_per_pass} advisor calls per pass, BruteForce space on the TPC-H/SSB tables up to {} candidates",
        jobs.len(),
        jobs.iter()
            .filter(|j| j.advisors.contains(&BRUTEFORCE))
            .map(|j| BruteForce::new().candidate_count(&PartitionRequest::new(&j.schema, &j.workload, &model)))
            .max()
            .unwrap_or(0)
    )];

    // Untraced passes (the whole run, or its first half when tracing).
    let plain_budget = if trace { seconds / 2.0 } else { seconds };
    let mut reference: Option<Vec<Partitioning>> = None;
    let mut walls = Vec::new();
    let mut costs = Vec::new();
    // Every pass, the warm-up included, is one operation.
    let mut tally = Tally::default();
    let mut check = |p: &Pass, tally: &mut Tally| -> bool {
        let mut failures = p.failures.clone();
        match &reference {
            None => reference = Some(p.layouts.clone()),
            Some(r) if *r != p.layouts => {
                failures.push("two passes chose different layouts".into())
            }
            Some(_) => {}
        }
        let ok = failures.is_empty();
        tally.book(match failures.len() {
            0 => Ok(()),
            1 => Err(failures.swap_remove(0)),
            n => Err(format!("{} (and {} more)", failures[0], n - 1)),
        });
        ok
    };
    check(&warm_up, &mut tally);
    let booked = tally.attempted;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < plain_budget || tally.attempted == booked {
        let p = pass(&jobs, &advisors, &model, false);
        if check(&p, &mut tally) {
            walls.push(p.wall_s);
            costs.push(p.cost_s);
        }
    }

    let mut layers = Layers::new();
    if trace {
        let mut traced_walls = Vec::new();
        let (mut advisor_s, mut advisor_cost_s) = ([0.0; 7], [0.0; 7]);
        let (mut lc_s, mut lc_n, mut sp_s) = (0.0, 0u64, 0.0);
        let mut passes = 0.0;
        let untraced = tally.attempted;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds / 2.0 || tally.attempted == untraced {
            let p = pass(&jobs, &advisors, &model, true);
            let walk_s = walk_set_partitions(&jobs);
            if !check(&p, &mut tally) {
                continue;
            }
            traced_walls.push(p.wall_s);
            for (sum, s) in advisor_s.iter_mut().zip(p.advisor_s) {
                *sum += s;
            }
            for (sum, c) in advisor_cost_s.iter_mut().zip(p.advisor_cost_s) {
                *sum += c;
            }
            lc_s += p.layout_cost_s;
            lc_n += p.layout_cost_calls;
            sp_s += walk_s;
            passes += 1.0;
        }
        let passes = f64::max(passes, 1.0);
        for a in 0..7 {
            layers.set(TIME_METRIC[a], advisor_s[a] / passes * 1e3);
            layers.set(COST_METRIC[a], advisor_cost_s[a] / passes);
        }
        layers.set("cost.layout_cost_us", lc_s / lc_n.max(1) as f64 * 1e6);
        layers.set("combinat.setpart_ms", sp_s / passes * 1e3);
        layers.set("workloads.generate_s", median(&generate));
        let plain = median(&walls);
        layers.set(
            "trace.overhead_pct",
            (median(&traced_walls) - plain) / plain * 100.0,
        );
    }

    let op_s = median(&walls);
    notes.push(format!(
        "advise_wide: {} passes, pass p50 {:.1} ms (min {:.1}, max {:.1}), modeled cost {:.3} s per pass",
        walls.len(),
        op_s * 1e3,
        walls.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        walls.iter().copied().fold(0.0, f64::max) * 1e3,
        mean(&costs)
    ));
    notes.extend(tally.failures.iter().take(10).cloned());
    Report {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        e2e: vec![
            Metric {
                name: "setup_s",
                value: median(&setup),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
            Metric {
                name: "op_p50_ms",
                value: op_s * 1e3,
                unit: "ms",
            },
            Metric {
                name: "ops_per_s",
                value: walls.len() as f64 / walls.iter().sum::<f64>(),
                unit: "1/s",
            },
            Metric {
                name: "modeled_ms_per_op",
                value: mean(&costs) * 1e3,
                unit: "ms",
            },
        ],
        layers,
        notes,
    }
}
