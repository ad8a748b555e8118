//! Seeded random generation of valid two-phase transaction programs.
//!
//! Programs are deadlock-prone by construction: entities are locked in
//! random (not globally ordered) sequence, which is exactly the regime the
//! paper targets ("systems which use no a priori information about
//! transaction behavior"). Every generated program passes
//! `pr_model::validate`.

use pr_model::{EntityId, Expr, Op, TransactionProgram, Value, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Write placement (§5 / Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clustering {
    /// Every write to an entity happens immediately after the entity is
    /// locked — no lock states lie between a write and its entity's lock
    /// state, so no well-defined states are destroyed (the `T2` shape of
    /// Figure 5).
    Clustered,
    /// With probability `spread_prob`, a write targets a *previously*
    /// locked entity instead of the most recent one, destroying the lock
    /// states in between (the `T1` shape of Figure 4).
    Spread {
        /// Probability (×1000) that a write revisits an earlier entity.
        spread_per_mille: u16,
    },
    /// All writes are deferred past the last lock request: the strict
    /// three-phase structure of §5 (acquire / update / release). The
    /// system may stop monitoring such transactions after their declared
    /// last lock.
    ThreePhase,
}

/// Knobs for the program generator.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Number of distinct entities in the database.
    pub num_entities: u32,
    /// Minimum entities locked per transaction.
    pub min_locks: usize,
    /// Maximum entities locked per transaction.
    pub max_locks: usize,
    /// Per-mille chance a locked entity is locked exclusively (the rest
    /// are shared read-only locks).
    pub exclusive_per_mille: u16,
    /// Number of write operations per exclusively locked entity (0 makes
    /// the entity update-less; ≥2 exercises version stacking).
    pub writes_per_entity: usize,
    /// Padding computations between a lock and the next operation,
    /// inflating state indices so rollback costs differ.
    pub pad_between: usize,
    /// Zipf exponent *s* ×100 (0 = uniform): entity rank `k` is drawn
    /// with probability ∝ `(k+1)^(−s)`. Higher values focus accesses on
    /// low-numbered entities, raising contention; values ≥ 100 (s ≥ 1)
    /// give the heavy hotspot regime the throughput harness sweeps.
    pub skew_centi: u16,
    /// Write placement.
    pub clustering: Clustering,
    /// Whether to emit explicit `U(...)` unlock operations (otherwise
    /// commit releases everything).
    pub explicit_unlocks: bool,
    /// Whether each program acquires its locks in ascending entity order.
    /// A workload whose every transaction respects one global lock order
    /// cannot deadlock, so this produces the deadlock-free baseline the
    /// static lint (`pr-analyze`) and the experiments compare against.
    pub ordered_locks: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_entities: 32,
            min_locks: 2,
            max_locks: 5,
            exclusive_per_mille: 700,
            writes_per_entity: 1,
            pad_between: 2,
            skew_centi: 0,
            clustering: Clustering::Spread { spread_per_mille: 400 },
            explicit_unlocks: true,
            ordered_locks: false,
        }
    }
}

/// Seeded generator of transaction programs.
///
/// ```
/// use pr_sim::generator::{GeneratorConfig, ProgramGenerator};
///
/// let mut generator = ProgramGenerator::new(GeneratorConfig::default(), 42);
/// let workload = generator.generate_workload(8);
/// assert_eq!(workload.len(), 8);
/// assert!(workload.iter().all(pr_model::validate::is_valid));
/// ```
#[derive(Clone, Debug)]
pub struct ProgramGenerator {
    config: GeneratorConfig,
    rng: SmallRng,
    /// Cumulative Zipf weights (`rank k ↦ Σ_{j≤k} (j+1)^(−s)`), built at
    /// construction when `skew_centi > 0`. Exact inverse-CDF sampling for
    /// any exponent, including s ≥ 1 where the old continuous power-law
    /// approximation saturated.
    zipf_cdf: Vec<f64>,
}

impl ProgramGenerator {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        let zipf_cdf = if config.skew_centi > 0 {
            let s = f64::from(config.skew_centi) / 100.0;
            let mut acc = 0.0;
            (1..=config.num_entities.max(1))
                .map(|k| {
                    acc += f64::from(k).powf(-s);
                    acc
                })
                .collect()
        } else {
            Vec::new()
        };
        ProgramGenerator { config, rng: SmallRng::seed_from_u64(seed), zipf_cdf }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Samples an entity id with the configured skew: Zipf-distributed
    /// ranks when `skew_centi > 0`, uniform otherwise.
    fn sample_entity(&mut self) -> EntityId {
        let n = self.config.num_entities.max(1);
        if self.zipf_cdf.is_empty() {
            return EntityId::new(self.rng.gen_range(0..n));
        }
        let total = *self.zipf_cdf.last().expect("non-empty table");
        let u: f64 = self.rng.gen_range(0.0f64..total);
        let rank = self.zipf_cdf.partition_point(|&c| c <= u);
        EntityId::new((rank as u32).min(n - 1))
    }

    /// Picks `k` distinct entities in random lock order.
    fn pick_entities(&mut self, k: usize) -> Vec<EntityId> {
        let mut chosen: Vec<EntityId> = Vec::with_capacity(k);
        let mut attempts = 0;
        while chosen.len() < k && attempts < 64 * k {
            attempts += 1;
            let e = self.sample_entity();
            if !chosen.contains(&e) {
                chosen.push(e);
            }
        }
        // Fall back to a linear scan if the hot set is too small.
        let mut next = 0u32;
        while chosen.len() < k {
            let e = EntityId::new(next % self.config.num_entities.max(1));
            next += 1;
            if !chosen.contains(&e) {
                chosen.push(e);
            }
        }
        if self.config.ordered_locks {
            chosen.sort_unstable();
        }
        chosen
    }

    /// Generates one valid two-phase program.
    pub fn generate(&mut self) -> TransactionProgram {
        let cfg = self.config;
        let k = self.rng.gen_range(cfg.min_locks..=cfg.max_locks.max(cfg.min_locks));
        let entities = self.pick_entities(k);
        let exclusive: Vec<bool> = entities
            .iter()
            .map(|_| self.rng.gen_range(0..1000) < cfg.exclusive_per_mille)
            .collect();
        // Guarantee at least one exclusive lock so writes exist.
        let exclusive = if exclusive.iter().any(|&x| x) {
            exclusive
        } else {
            let mut v = exclusive;
            v[0] = true;
            v
        };
        // One local variable per locked entity: each variable is written
        // exactly once (by its read), so local-variable writes never
        // destroy well-defined states and the clustering knob controls the
        // state-dependency structure through entity writes alone.
        let var_of = |i: usize| VarId::new(i as u16);

        let three_phase = matches!(cfg.clustering, Clustering::ThreePhase);
        let mut ops: Vec<Op> = Vec::new();
        let mut pending_reads: Vec<(EntityId, usize)> = Vec::new(); // (entity, var)
        let mut pending_writes: Vec<(EntityId, usize, usize)> = Vec::new(); // (entity, var, count)
        let mut locked_exclusive: Vec<(EntityId, usize)> = Vec::new(); // (entity, var index)

        let emit_write = |ops: &mut Vec<Op>, entity: EntityId, var: usize, rng: &mut SmallRng| {
            let delta = rng.gen_range(-5i64..=5);
            ops.push(Op::Write {
                entity,
                expr: Expr::add(Expr::var(var_of(var)), Expr::lit(delta)),
            });
        };

        for (i, (&entity, &is_x)) in entities.iter().zip(&exclusive).enumerate() {
            ops.push(if is_x { Op::LockExclusive(entity) } else { Op::LockShared(entity) });
            if three_phase {
                // Reads are local-variable writes; §5's structure defers
                // them past the last lock request along with the updates.
                pending_reads.push((entity, i));
            } else {
                ops.push(Op::Read { entity, into: var_of(i) });
            }
            for _ in 0..cfg.pad_between {
                ops.push(Op::Compute(Expr::add(Expr::var(var_of(i)), Expr::lit(1))));
            }
            if is_x {
                locked_exclusive.push((entity, i));
                match cfg.clustering {
                    Clustering::Clustered => {
                        for _ in 0..cfg.writes_per_entity {
                            emit_write(&mut ops, entity, i, &mut self.rng);
                        }
                    }
                    Clustering::Spread { spread_per_mille } => {
                        for _ in 0..cfg.writes_per_entity {
                            let revisit = locked_exclusive.len() > 1
                                && self.rng.gen_range(0..1000) < spread_per_mille;
                            let (target, tvar) = if revisit {
                                let j = self.rng.gen_range(0..locked_exclusive.len() - 1);
                                locked_exclusive[j]
                            } else {
                                (entity, i)
                            };
                            emit_write(&mut ops, target, tvar, &mut self.rng);
                        }
                    }
                    Clustering::ThreePhase => {
                        pending_writes.push((entity, i, cfg.writes_per_entity));
                    }
                }
            }
        }
        // Three-phase: all reads and writes after the last lock request.
        for (entity, var) in pending_reads {
            ops.push(Op::Read { entity, into: var_of(var) });
        }
        for (entity, var, count) in pending_writes {
            for _ in 0..count {
                emit_write(&mut ops, entity, var, &mut self.rng);
            }
        }
        if cfg.explicit_unlocks {
            for &entity in &entities {
                ops.push(Op::Unlock(entity));
            }
        }
        ops.push(Op::Commit);

        let program = TransactionProgram::from_parts(ops, vec![Value::ZERO; entities.len()]);
        debug_assert!(
            pr_model::validate::is_valid(&program),
            "generator produced an invalid program: {:?}\n{}",
            pr_model::validate::violations(&program),
            program.render(),
        );
        program
    }

    /// Generates a workload of `n` programs.
    pub fn generate_workload(&mut self, n: usize) -> Vec<TransactionProgram> {
        (0..n).map(|_| self.generate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::analysis;

    fn gen(cfg: GeneratorConfig, seed: u64) -> ProgramGenerator {
        ProgramGenerator::new(cfg, seed)
    }

    #[test]
    fn generated_programs_are_always_valid() {
        for seed in 0..20 {
            let mut g = gen(GeneratorConfig::default(), seed);
            for p in g.generate_workload(20) {
                assert!(
                    pr_model::validate::is_valid(&p),
                    "seed {seed}: {:?}",
                    pr_model::validate::violations(&p)
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = gen(GeneratorConfig::default(), 7);
        let mut b = gen(GeneratorConfig::default(), 7);
        assert_eq!(a.generate_workload(5), b.generate_workload(5));
        let mut c = gen(GeneratorConfig::default(), 8);
        assert_ne!(a.generate_workload(5), c.generate_workload(5));
    }

    #[test]
    fn lock_counts_respect_bounds() {
        let cfg = GeneratorConfig { min_locks: 3, max_locks: 6, ..Default::default() };
        let mut g = gen(cfg, 1);
        for p in g.generate_workload(30) {
            let n = p.num_lock_requests();
            assert!((3..=6).contains(&n), "got {n} locks");
        }
    }

    #[test]
    fn three_phase_programs_have_three_phase_structure() {
        let cfg = GeneratorConfig {
            clustering: Clustering::ThreePhase,
            pad_between: 0,
            ..Default::default()
        };
        let mut g = gen(cfg, 2);
        for p in g.generate_workload(20) {
            let a = analysis::analyze(&p);
            assert!(a.writes_after_last_lock, "{}", p.render());
        }
    }

    #[test]
    fn clustered_writes_destroy_no_states() {
        // Reads into locals still create edges, but entity writes are
        // clustered. Compare penalty against the spread generator.
        let base = GeneratorConfig { pad_between: 0, writes_per_entity: 2, ..Default::default() };
        let mut clustered = gen(GeneratorConfig { clustering: Clustering::Clustered, ..base }, 3);
        let mut spread = gen(
            GeneratorConfig { clustering: Clustering::Spread { spread_per_mille: 1000 }, ..base },
            3,
        );
        let pc: u32 = clustered
            .generate_workload(50)
            .iter()
            .map(|p| analysis::analyze(p).clustering_penalty())
            .sum();
        let ps: u32 = spread
            .generate_workload(50)
            .iter()
            .map(|p| analysis::analyze(p).clustering_penalty())
            .sum();
        assert!(ps > pc, "spread penalty {ps} should exceed clustered {pc}");
    }

    #[test]
    fn skew_concentrates_accesses() {
        let mut uniform = gen(GeneratorConfig { skew_centi: 0, ..Default::default() }, 4);
        let mut skewed = gen(GeneratorConfig { skew_centi: 90, ..Default::default() }, 4);
        let hot = |g: &mut ProgramGenerator| -> usize {
            (0..200).flat_map(|_| g.generate().locked_entities()).filter(|e| e.raw() < 4).count()
        };
        let hu = hot(&mut uniform);
        let hs = hot(&mut skewed);
        assert!(hs > hu * 2, "skewed hot accesses {hs} vs uniform {hu}");
    }

    #[test]
    fn zipf_exponents_at_and_above_one_keep_sharpening() {
        // The exact sampler must distinguish s = 0.8 from s = 1.2 (the old
        // continuous approximation clamped everything at s ≈ 1).
        let hot = |centi: u16| -> usize {
            let mut g = gen(GeneratorConfig { skew_centi: centi, ..Default::default() }, 9);
            (0..300).flat_map(|_| g.generate().locked_entities()).filter(|e| e.raw() < 2).count()
        };
        let h80 = hot(80);
        let h120 = hot(120);
        assert!(h120 > h80, "s=1.2 hot accesses {h120} vs s=0.8 {h80}");
    }

    #[test]
    fn ordered_locks_acquire_in_ascending_entity_order() {
        let cfg = GeneratorConfig { ordered_locks: true, ..Default::default() };
        let mut g = gen(cfg, 11);
        for p in g.generate_workload(30) {
            let order: Vec<u32> = p.lock_requests().iter().map(|(_, e, _)| e.raw()).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "{}", p.render());
        }
    }

    #[test]
    fn shared_fraction_produces_shared_locks() {
        let cfg = GeneratorConfig { exclusive_per_mille: 200, ..Default::default() };
        let mut g = gen(cfg, 5);
        let mut shared = 0;
        let mut exclusive = 0;
        for p in g.generate_workload(50) {
            for op in p.ops() {
                match op {
                    Op::LockShared(_) => shared += 1,
                    Op::LockExclusive(_) => exclusive += 1,
                    _ => {}
                }
            }
        }
        assert!(shared > exclusive, "shared {shared} vs exclusive {exclusive}");
    }
}
