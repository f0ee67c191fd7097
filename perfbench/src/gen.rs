//! Seeded workload inputs and the correctness oracle.
//!
//! Every workload is a small set of distinct base [`Instance`]s, each
//! solved once in set-up by calling `batsched_service::solve` directly.
//! Requests are *variants* of a base instance: the same question with
//! `max_iterations = 64 + v`. The cap never binds (set-up checks that the
//! base solve stopped earlier), so a variant's answer is the base answer
//! under a new content key. That gives an unbounded supply of distinct
//! cache keys whose responses are known exactly, and a pass over all base
//! instances always returns the same multiset of schedules, so
//! `sigma_mean` does not depend on how many passes fit in the run.

use crate::client::post_schedule;
use batsched_core::SolverWorkspace;
use batsched_service::wire::DEFAULT_MAX_ITERATIONS;
use batsched_service::wire_bin::CONTENT_TYPE as BIN_CONTENT_TYPE;
use batsched_service::{
    decode_request, encode_request, solve, ScheduleRequest, ScheduleResponse, WireFormat,
};
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::{paper, TaskGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Design points per synthetic task.
const M: usize = 8;

/// A layered synthetic DAG of `n` tasks (width-5 layers, edge probability
/// 0.35, m = 8): the instance family of the repository's n-scaling
/// benches, drawn from `rng`. `n` must be a multiple of 5.
pub fn layered_graph(n: usize, rng: &mut StdRng) -> TaskGraph {
    let params = TaskParams {
        current_range: (100.0, 900.0),
        duration_range: (2.0, 12.0),
        factors: (0..M)
            .map(|j| 1.0 - 0.67 * j as f64 / (M - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    layered(n / 5, 5, 0.35, &params, rng).expect("valid generator config")
}

/// The deadline `frac` of the way from the fastest to the slowest makespan.
pub fn deadline_at(g: &TaskGraph, frac: f64) -> f64 {
    let lo = min_makespan(g).value();
    let hi = max_makespan(g).value();
    lo + (hi - lo) * frac
}

/// `k` deadline fractions on a jittered grid over `[lo, hi)`: one random
/// point per equal stratum, so the set varies with the seed while its
/// spread (and the mean σ it produces) stays stable.
fn jittered(k: usize, lo: f64, hi: f64, rng: &mut StdRng) -> Vec<f64> {
    (0..k)
        .map(|i| lo + (hi - lo) * (i as f64 + rng.gen_range(0.0..1.0)) / k as f64)
        .collect()
}

/// One distinct question with its oracle answer.
pub struct Instance {
    pub label: String,
    pub req: ScheduleRequest,
    pub resp: ScheduleResponse,
    pub json_bytes: usize,
    pub bin_bytes: usize,
}

impl Instance {
    fn new(
        label: String,
        g: TaskGraph,
        deadline: f64,
        ws: &mut SolverWorkspace,
    ) -> Result<Self, String> {
        let req = ScheduleRequest::new(g, deadline);
        let resp =
            solve(&req, ws).map_err(|e| format!("{label}: oracle solve failed: {}", e.message))?;
        let n = req.graph.task_count();
        let mut seen = vec![false; n];
        let permutation = resp.order.len() == n
            && resp
                .order
                .iter()
                .all(|&t| t < n && !std::mem::replace(&mut seen[t], true));
        if !permutation {
            return Err(format!(
                "{label}: oracle order is not a permutation of the tasks"
            ));
        }
        if resp.makespan > deadline {
            return Err(format!(
                "{label}: oracle makespan {} exceeds deadline {deadline}",
                resp.makespan
            ));
        }
        if resp.iterations >= DEFAULT_MAX_ITERATIONS {
            return Err(format!(
                "{label}: solve used every iteration; variants would differ"
            ));
        }
        let inst = Instance {
            label,
            json_bytes: 0,
            bin_bytes: 0,
            req,
            resp,
        };
        // The variant scheme rests on the cap never binding: check one
        // variant against a direct solve, and the binary spelling's fused
        // key against the JSON spelling's.
        let v0 = inst.variant(0);
        let direct = solve(&v0, ws)
            .map_err(|e| format!("{}: variant solve failed: {}", inst.label, e.message))?;
        let key = v0.content_hash();
        if serde_json::to_string(&direct).ok() != Some(inst.expected(key)) {
            return Err(format!(
                "{}: variant answer differs from the base answer",
                inst.label
            ));
        }
        let bin = encode_request(&v0);
        match decode_request(&bin) {
            Ok((_, k)) if k == key => {}
            _ => {
                return Err(format!(
                    "{}: binary and JSON spellings disagree on the key",
                    inst.label
                ))
            }
        }
        let json = serde_json::to_string(&v0).map_err(|e| e.to_string())?;
        Ok(Instance {
            json_bytes: json.len(),
            bin_bytes: bin.len(),
            ..inst
        })
    }

    pub fn n(&self) -> usize {
        self.req.graph.task_count()
    }

    pub fn edges(&self) -> usize {
        self.req.graph.edge_count()
    }

    /// The base question with `max_iterations = 64 + v`.
    pub fn variant(&self, v: u64) -> ScheduleRequest {
        let mut req = self.req.clone();
        req.max_iterations = Some(DEFAULT_MAX_ITERATIONS + v as usize);
        req
    }

    /// The response body the service must return for the variant whose
    /// content key is `key`.
    pub fn expected(&self, key: u64) -> String {
        let mut resp = self.resp.clone();
        resp.key = format!("{key:016x}");
        serde_json::to_string(&resp).expect("responses serialise")
    }

    /// The body of variant `v` in `format`, with its expected response.
    pub fn plan(&self, v: u64, format: WireFormat) -> Planned {
        let req = self.variant(v);
        let (body, content_type) = match format {
            WireFormat::Json => (
                serde_json::to_string(&req)
                    .expect("requests serialise")
                    .into_bytes(),
                "application/json",
            ),
            WireFormat::Binary => (encode_request(&req), BIN_CONTENT_TYPE),
        };
        let wire = post_schedule(&body, content_type);
        Planned {
            body_start: wire.len() - body.len(),
            wire,
            format,
            expected: self.expected(req.content_hash()).into_bytes(),
            sigma: self.resp.sigma,
        }
    }
}

/// One request ready to send, with the oracle's answer.
pub struct Planned {
    /// The full HTTP request (head and body).
    pub wire: Vec<u8>,
    pub body_start: usize,
    pub format: WireFormat,
    pub expected: Vec<u8>,
    pub sigma: f64,
}

impl Planned {
    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_start..]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdJson,
    ColdBin,
    HotDup,
    DiskMixed,
}

/// Task counts of the cold workloads' graphs (four graphs each).
const COLD_SIZES: [usize; 5] = [160, 180, 200, 220, 240];

/// Variants `0..DISK_VARIANTS` of every read instance are seeded on disk.
const DISK_VARIANTS: u64 = 50;
/// Cold writes in `disk_mixed` use variants from here up, disjoint from
/// the seeded ones.
const WRITE_VARIANT_BASE: u64 = 1_000;

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Client connections (one closed-loop thread each).
    pub connections: usize,
    /// Fewest requests a timed phase may end with.
    pub min_requests: usize,
    pub format: WireFormat,
    pub instances: Vec<Instance>,
    /// `disk_mixed`: instances `..reads` are seeded on disk and read back;
    /// the rest are cold writes.
    pub reads: usize,
    /// `hot_dup`: the primed pool, replayed in shuffled order.
    pool: Vec<Arc<Planned>>,
}

impl Workload {
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        let mut ws = SolverWorkspace::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut instances = Vec::new();
        let mut add = |instances: &mut Vec<Instance>, label: String, g: TaskGraph, d: f64| {
            Instance::new(label, g, d, &mut ws).map(|i| instances.push(i))
        };
        let (kind, name, connections, min_requests, format) = match name {
            "cold_json" => (Kind::ColdJson, "cold_json", 1, 100, WireFormat::Json),
            "cold_bin" => (Kind::ColdBin, "cold_bin", 1, 100, WireFormat::Binary),
            "hot_dup" => (Kind::HotDup, "hot_dup", 2, 1000, WireFormat::Json),
            "disk_mixed" => (Kind::DiskMixed, "disk_mixed", 1, 1000, WireFormat::Json),
            other => {
                return Err(format!(
                "unknown workload {other:?}; expected cold_json, cold_bin, hot_dup or disk_mixed"
            ))
            }
        };
        let mut reads = 0;
        match kind {
            // Both cold workloads draw the same instances from a seed, so
            // cold_json − cold_bin isolates the admission path.
            Kind::ColdJson | Kind::ColdBin => {
                // Sizes straddle n = 200 (mean 200, ~80–120 KB of JSON)
                // rather than all sitting at it: latencies then spread
                // over a range wider than the host's speed swings, so the
                // percentiles move smoothly with them instead of jumping
                // between two narrow modes.
                let mut fracs = jittered(COLD_SIZES.len() * 4, 0.55, 0.85, &mut rng);
                shuffle(&mut fracs, &mut rng);
                let sizes = COLD_SIZES.iter().flat_map(|&n| [n; 4]);
                for (k, (n, f)) in sizes.zip(fracs).enumerate() {
                    let g = layered_graph(n, &mut rng);
                    let d = deadline_at(&g, f);
                    add(&mut instances, format!("layered n={n} #{k} d={d:.1}"), g, d)?;
                }
            }
            Kind::HotDup => {
                for (g, label) in [(paper::g2(), "G2"), (paper::g3(), "G3")] {
                    for f in jittered(2, 0.2, 0.8, &mut rng) {
                        let d = deadline_at(&g, f);
                        add(&mut instances, format!("{label} d={d:.1}"), g.clone(), d)?;
                    }
                }
                for n in [25, 50, 75, 100] {
                    for f in jittered(3, 0.6, 0.8, &mut rng) {
                        let g = layered_graph(n, &mut rng);
                        let d = deadline_at(&g, f);
                        add(&mut instances, format!("layered n={n} d={d:.1}"), g, d)?;
                    }
                }
            }
            Kind::DiskMixed => {
                // 40 seeded reads, then 10 cold writes; `reads` ends as
                // the number of instances before the writes.
                for per_graph in [20, 5] {
                    reads = instances.len();
                    for (g, label) in [(paper::g2(), "G2"), (paper::g3(), "G3")] {
                        for f in jittered(per_graph, 0.1, 0.9, &mut rng) {
                            let d = deadline_at(&g, f);
                            add(&mut instances, format!("{label} d={d:.2}"), g.clone(), d)?;
                        }
                    }
                }
            }
        }
        let keys: HashSet<u64> = instances.iter().map(|i| i.req.content_hash()).collect();
        if keys.len() != instances.len() {
            return Err(format!("{name}: seed {seed} drew two identical instances"));
        }
        let pool = match kind {
            Kind::HotDup => instances
                .iter()
                .map(|i| Arc::new(i.plan(0, format)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Workload {
            kind,
            name,
            connections,
            min_requests,
            format,
            instances,
            reads,
            pool,
        })
    }

    /// Requests primed once, untimed, before the timed phase.
    pub fn priming(&self) -> &[Arc<Planned>] {
        &self.pool
    }

    /// Pass `p`: every base instance once, in the workload's spelling and
    /// order. Each pass carries the same σ multiset.
    pub fn pass(&self, p: u64, rng: &mut StdRng) -> Vec<Arc<Planned>> {
        match self.kind {
            Kind::ColdJson | Kind::ColdBin => self
                .instances
                .iter()
                .map(|i| Arc::new(i.plan(p, self.format)))
                .collect(),
            Kind::HotDup => {
                let mut pass = self.pool.clone();
                shuffle(&mut pass, rng);
                pass
            }
            Kind::DiskMixed => {
                let mut pass: Vec<Arc<Planned>> = self
                    .instances
                    .iter()
                    .enumerate()
                    .map(|(k, inst)| {
                        let v = if k < self.reads {
                            p % DISK_VARIANTS
                        } else {
                            WRITE_VARIANT_BASE + p
                        };
                        Arc::new(inst.plan(v, self.format))
                    })
                    .collect();
                shuffle(&mut pass, rng);
                pass
            }
        }
    }

    /// `(key, response)` records the `disk_mixed` cache file is seeded
    /// with: every read instance under each seeded variant.
    pub fn disk_records(&self) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        for inst in &self.instances[..self.reads] {
            for v in 0..DISK_VARIANTS {
                let key = inst.variant(v).content_hash();
                out.push((key, inst.expected(key)));
            }
        }
        out
    }
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}
