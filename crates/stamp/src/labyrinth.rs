//! labyrinth — transactional maze routing (STAMP `labyrinth`).
//!
//! Workers take point-to-point routing requests off a shared queue and
//! route them through a 3-D grid with Lee's algorithm. As in STAMP, the
//! *entire* routing attempt is one transaction: the worker reads a private
//! snapshot of the whole grid (every cell enters the read set!), computes a
//! path, and writes the path cells back. This produces the largest
//! transactional load footprints of the suite (Figure 10) and near-zero
//! scalability on every platform (Figure 5): only Blue Gene/Q's 1.25 MB
//! capacity even fits the snapshot, and any two concurrent routings
//! conflict through it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};
use tm_structs::TmQueue;

use crate::common::{Scale, Workload};

/// labyrinth configuration.
#[derive(Clone, Copy, Debug)]
pub struct LabyrinthConfig {
    /// Grid width.
    pub x: u32,
    /// Grid height.
    pub y: u32,
    /// Grid depth (layers).
    pub z: u32,
    /// Number of routing requests.
    pub n_requests: u32,
    /// Percentage of cells that are walls.
    pub wall_pct: u32,
}

impl LabyrinthConfig {
    /// Configuration for a scale (STAMP defaults are 512×512×7; scaled to
    /// keep the per-transaction snapshot in the same *relative* regime).
    pub fn at(scale: Scale) -> LabyrinthConfig {
        match scale {
            Scale::Tiny => LabyrinthConfig { x: 12, y: 12, z: 2, n_requests: 8, wall_pct: 5 },
            // The grid snapshot (5 MB) exceeds every platform's
            // transactional-load capacity, as STAMP's 512x512x7 grid did
            // on the real machines.
            Scale::Sim => LabyrinthConfig { x: 640, y: 256, z: 4, n_requests: 24, wall_pct: 5 },
            Scale::Full => LabyrinthConfig { x: 640, y: 512, z: 7, n_requests: 128, wall_pct: 5 },
        }
    }

    fn cells(&self) -> u32 {
        self.x * self.y * self.z
    }
}

/// Grid cell values.
const FREE: u64 = 0;
const WALL: u64 = u64::MAX;

/// Request record: `[src, dst, routed_len]` (`routed_len` = path cells on
/// success, 0 if unrouted).
const REQ_SRC: u32 = 0;
const REQ_DST: u32 = 1;
const REQ_LEN: u32 = 2;
const REQ_WORDS: u32 = 3;

struct Shared {
    grid: WordAddr,
    queue: TmQueue,
    requests: Vec<WordAddr>,
}

/// The labyrinth workload.
pub struct Labyrinth {
    cfg: LabyrinthConfig,
    seed: u64,
    shared: OnceLock<Shared>,
    routed: AtomicU64,
    failed: AtomicU64,
}

impl Labyrinth {
    /// Creates a labyrinth workload.
    pub fn new(cfg: LabyrinthConfig, seed: u64) -> Labyrinth {
        Labyrinth {
            cfg,
            seed,
            shared: OnceLock::new(),
            routed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    fn neighbors(&self, idx: u32) -> impl Iterator<Item = u32> {
        let (x, y, z) = (self.cfg.x, self.cfg.y, self.cfg.z);
        let cx = idx % x;
        let cy = (idx / x) % y;
        let cz = idx / (x * y);
        let mut out = Vec::with_capacity(6);
        if cx > 0 {
            out.push(idx - 1);
        }
        if cx + 1 < x {
            out.push(idx + 1);
        }
        if cy > 0 {
            out.push(idx - x);
        }
        if cy + 1 < y {
            out.push(idx + x);
        }
        if cz > 0 {
            out.push(idx - x * y);
        }
        if cz + 1 < z {
            out.push(idx + x * y);
        }
        out.into_iter()
    }
}

impl Workload for Labyrinth {
    fn name(&self) -> String {
        "labyrinth".to_string()
    }

    fn mem_words(&self) -> u32 {
        self.cfg.cells() + self.cfg.n_requests * 8 + (1 << 20)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ctx = sim.seq_ctx();
        let grid = ctx.alloc(cfg.cells());
        for i in 0..cfg.cells() {
            let v = if rng.gen_range(0..100) < cfg.wall_pct { WALL } else { FREE };
            sim.write_word(grid.offset(i), v);
        }
        // Distinct free endpoints for every request.
        let mut taken = std::collections::HashSet::new();
        let mut pick_free = |rng: &mut SmallRng, sim: &Sim| loop {
            let i = rng.gen_range(0..cfg.cells());
            if sim.read_word(grid.offset(i)) == FREE && taken.insert(i) {
                return i;
            }
        };
        let queue = ctx.atomic(TmQueue::create);
        let mut requests = Vec::new();
        for _ in 0..cfg.n_requests {
            let src = pick_free(&mut rng, sim);
            let dst = pick_free(&mut rng, sim);
            let req = ctx.alloc(REQ_WORDS);
            sim.write_word(req.offset(REQ_SRC), src as u64);
            sim.write_word(req.offset(REQ_DST), dst as u64);
            sim.write_word(req.offset(REQ_LEN), 0);
            ctx.atomic(|tx| queue.push(tx, req.to_repr()));
            requests.push(req);
        }
        self.shared.set(Shared { grid, queue, requests }).ok().expect("setup ran twice");
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let cells = cfg.cells();
        let mut snapshot = vec![0u64; cells as usize];
        let mut dist = vec![u32::MAX; cells as usize];

        while let Some(req) = ctx.atomic(|tx| sh.queue.pop(tx)) {
            let req = WordAddr::from_repr(req);
            let routed_len = ctx.atomic(|tx| {
                let src = tx.load(req.offset(REQ_SRC))? as u32;
                let dst = tx.load(req.offset(REQ_DST))? as u32;
                // Snapshot the whole grid inside the transaction (STAMP's
                // grid_copy): the entire grid joins the read set.
                for i in 0..cells {
                    snapshot[i as usize] = tx.load(sh.grid.offset(i))?;
                }
                // Endpoints may have been covered by an earlier path since
                // the request was generated; such a request is unroutable.
                if snapshot[src as usize] != FREE || snapshot[dst as usize] != FREE {
                    return Ok(0u64);
                }
                // Lee's algorithm (BFS) on the private snapshot.
                dist.fill(u32::MAX);
                dist[src as usize] = 0;
                let mut frontier = std::collections::VecDeque::new();
                frontier.push_back(src);
                let mut expanded = 0u64;
                while let Some(c) = frontier.pop_front() {
                    if c == dst {
                        break;
                    }
                    expanded += 1;
                    for n in self.neighbors(c) {
                        if snapshot[n as usize] == FREE && dist[n as usize] == u32::MAX {
                            dist[n as usize] = dist[c as usize] + 1;
                            frontier.push_back(n);
                        }
                    }
                }
                tx.tick(expanded * 4);
                if dist[dst as usize] == u32::MAX {
                    return Ok(0u64); // unroutable in this snapshot
                }
                // Trace back and write the path.
                let id = req.to_repr(); // unique nonzero path id
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    let d = dist[cur as usize];
                    let prev = self
                        .neighbors(cur)
                        .find(|&n| dist[n as usize] == d.wrapping_sub(1))
                        .expect("broken BFS parent chain");
                    path.push(prev);
                    cur = prev;
                }
                for &c in &path {
                    tx.store(sh.grid.offset(c), id)?;
                }
                tx.store(req.offset(REQ_LEN), path.len() as u64)?;
                Ok(path.len() as u64)
            });
            if routed_len > 0 {
                self.routed.fetch_add(1, Ordering::Relaxed);
            } else {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn verify(&self, sim: &Sim) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        assert_eq!(
            self.routed.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed),
            cfg.n_requests as u64,
            "requests lost"
        );
        // Count grid cells per path id and check endpoints.
        let mut marked = std::collections::HashMap::new();
        for i in 0..cfg.cells() {
            let v = sim.read_word(sh.grid.offset(i));
            if v != FREE && v != WALL {
                *marked.entry(v).or_insert(0u64) += 1;
            }
        }
        let mut total_marked = 0u64;
        for req in &sh.requests {
            let len = sim.read_word(req.offset(REQ_LEN));
            let id = req.to_repr();
            if len > 0 {
                assert_eq!(
                    marked.get(&id).copied().unwrap_or(0),
                    len,
                    "path {id} cell count mismatch"
                );
                let src = sim.read_word(req.offset(REQ_SRC)) as u32;
                let dst = sim.read_word(req.offset(REQ_DST)) as u32;
                assert_eq!(sim.read_word(sh.grid.offset(src)), id, "path {id} lost its source");
                assert_eq!(sim.read_word(sh.grid.offset(dst)), id, "path {id} lost its target");
                total_marked += len;
            } else {
                assert!(!marked.contains_key(&id), "unrouted request {id} left marks");
            }
        }
        assert_eq!(
            total_marked,
            marked.values().sum::<u64>(),
            "grid contains cells of unknown paths"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, run_parallel, BenchParams};
    use htm_machine::Platform;

    #[test]
    fn labyrinth_routes_and_verifies_on_all_platforms() {
        for p in Platform::ALL {
            let r = measure(
                &|| Labyrinth::new(LabyrinthConfig::at(Scale::Tiny), 17),
                &p.config(),
                &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
            );
            assert!(r.stats.committed_blocks() > 0, "{p}");
        }
    }

    #[test]
    fn whole_grid_snapshot_overflows_power8() {
        // 24×24×2 cells = 9 KB of snapshot reads = 72 lines of 128 B, past
        // the 64-entry TMCAM: every hardware attempt capacity-aborts and
        // routing serializes on the lock.
        let cfg = LabyrinthConfig { x: 24, y: 24, z: 2, n_requests: 6, wall_pct: 5 };
        let stats = run_parallel(
            &|| Labyrinth::new(cfg, 17),
            &Platform::Power8.config(),
            &BenchParams { threads: 2, seed: 17, ..Default::default() },
        );
        assert!(
            stats.irrevocable_commits() > 0,
            "grid snapshots cannot fit the TMCAM; must fall back"
        );
    }

    #[test]
    fn routing_is_exact_sequentially() {
        let cycles = crate::common::run_sequential(
            &|| Labyrinth::new(LabyrinthConfig::at(Scale::Tiny), 17),
            &Platform::BlueGeneQ.config(),
            17,
        );
        assert!(cycles > 0);
    }
}
