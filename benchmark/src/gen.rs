//! The benchmark's own traffic: a splitmix64-seeded generator that builds
//! `pr_model` programs directly.
//!
//! It deliberately does not call `pr_sim::generator` or
//! `pr_server::load::client_programs`: an edit to either would silently
//! change what every committed baseline was measured on. The shape is the
//! default `pr-sim` shape — 2 to 5 locks in random (not globally ordered)
//! sequence, 700 ‰ exclusive, a read and `pad_between` computations after
//! each lock, one write per exclusively locked entity that with 400 ‰
//! probability revisits an earlier exclusive entity, explicit unlocks.
//!
//! Every write publishes `value read from that entity + constant`, so a
//! program's net effect on an entity is the constant of its *last* write
//! there, whatever the interleaving. [`Deltas`] records that net effect;
//! the O(n) output check of every timed run is
//! `final == init + Σ committed deltas`.

use pr_model::{EntityId, Expr, Op, TransactionProgram, Value, VarId};
use pr_storage::Snapshot;

const MIN_LOCKS: u64 = 2;
const MAX_LOCKS: u64 = 5;
const EXCLUSIVE_PER_MILLE: u64 = 700;
const SPREAD_PER_MILLE: u64 = 400;
const MAX_ABS_DELTA: u64 = 5;

/// Sebastiano Vigna's splitmix64: 64 bits of state, passes BigCrush, and
/// short enough to own.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2⁻³² for the small
    /// `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The input properties the system's behaviour depends on.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Entity universe size; entities are `0..entities`.
    pub entities: u32,
    /// Zipf exponent over entity rank (0 = uniform).
    pub zipf: f64,
    /// Computations after each lock: lengthens lock-hold windows and
    /// spreads state indices so rollback targets differ in cost.
    pub pad_between: usize,
}

/// Net effect of each generated program: `(entity, delta)` pairs, stored
/// flat.
#[derive(Default)]
pub struct Deltas {
    ends: Vec<u32>,
    entries: Vec<(u32, i64)>,
}

impl Deltas {
    fn push(&mut self, program_deltas: &[(u32, i64)]) {
        self.entries.extend_from_slice(program_deltas);
        self.ends.push(self.entries.len() as u32);
    }

    /// The net effect of program `i`.
    pub fn of(&self, i: usize) -> &[(u32, i64)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.entries[start..self.ends[i] as usize]
    }
}

pub struct Generator {
    rng: SplitMix64,
    shape: Shape,
    /// Cumulative Zipf weights; empty for the uniform shape.
    zipf_cdf: Vec<f64>,
}

impl Generator {
    /// `stream` separates the program streams of workload families that
    /// share a `--seed`; workloads that must see identical programs (the
    /// four `par-hot-*`) pass the same stream.
    pub fn new(shape: Shape, seed: u64, stream: u64) -> Self {
        let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let rng = SplitMix64::new(mix.next_u64());
        let zipf_cdf = if shape.zipf > 0.0 {
            let mut acc = 0.0;
            (1..=shape.entities)
                .map(|k| {
                    acc += f64::from(k).powf(-shape.zipf);
                    acc
                })
                .collect()
        } else {
            Vec::new()
        };
        Generator { rng, shape, zipf_cdf }
    }

    fn sample_entity(&mut self) -> u32 {
        match self.zipf_cdf.last() {
            None => self.rng.below(u64::from(self.shape.entities)) as u32,
            Some(&total) => {
                let u = self.rng.unit() * total;
                (self.zipf_cdf.partition_point(|&c| c <= u) as u32).min(self.shape.entities - 1)
            }
        }
    }

    /// Returns one validated program and appends its net effect to
    /// `deltas`.
    pub fn generate(&mut self, deltas: &mut Deltas) -> TransactionProgram {
        let locks = (MIN_LOCKS + self.rng.below(MAX_LOCKS - MIN_LOCKS + 1)) as usize;
        assert!(locks <= self.shape.entities as usize, "universe smaller than a lock set");
        let mut entities: Vec<u32> = Vec::with_capacity(locks);
        while entities.len() < locks {
            let e = self.sample_entity();
            if !entities.contains(&e) {
                entities.push(e);
            }
        }
        let mut exclusive: Vec<bool> =
            entities.iter().map(|_| self.rng.below(1000) < EXCLUSIVE_PER_MILLE).collect();
        if !exclusive.contains(&true) {
            exclusive[0] = true;
        }

        // One local variable per locked entity, written once by its read.
        let var = |i: usize| VarId::new(i as u16);
        let mut ops: Vec<Op> = Vec::new();
        let mut locked_exclusive: Vec<usize> = Vec::new();
        let mut net: Vec<(u32, i64)> = Vec::new();
        for (i, (&e, &is_x)) in entities.iter().zip(&exclusive).enumerate() {
            let entity = EntityId::new(e);
            ops.push(if is_x { Op::LockExclusive(entity) } else { Op::LockShared(entity) });
            ops.push(Op::Read { entity, into: var(i) });
            for _ in 0..self.shape.pad_between {
                ops.push(Op::Compute(Expr::add(Expr::var(var(i)), Expr::lit(1))));
            }
            if is_x {
                locked_exclusive.push(i);
                let revisit = locked_exclusive.len() > 1 && self.rng.below(1000) < SPREAD_PER_MILLE;
                let target = if revisit {
                    locked_exclusive[self.rng.below(locked_exclusive.len() as u64 - 1) as usize]
                } else {
                    i
                };
                let delta = self.rng.below(2 * MAX_ABS_DELTA + 1) as i64 - MAX_ABS_DELTA as i64;
                ops.push(Op::Write {
                    entity: EntityId::new(entities[target]),
                    expr: Expr::add(Expr::var(var(target)), Expr::lit(delta)),
                });
                match net.iter_mut().find(|(t, _)| *t == entities[target]) {
                    Some(slot) => slot.1 = delta,
                    None => net.push((entities[target], delta)),
                }
            }
        }
        ops.extend(entities.iter().map(|&e| Op::Unlock(EntityId::new(e))));
        ops.push(Op::Commit);

        let program = TransactionProgram::from_parts(ops, vec![Value::ZERO; locks]);
        pr_model::validate::validate(&program).expect("generator emitted an invalid program");
        deltas.push(&net);
        program
    }
}

/// `init + Σ count[i] × deltas.of(i)` per entity — what the store must
/// hold once every counted execution has committed.
pub fn expected_values(
    entities: u32,
    init: i64,
    deltas: &Deltas,
    counts: impl Iterator<Item = (usize, u64)>,
) -> Vec<i64> {
    let mut values = vec![init; entities as usize];
    for (program, count) in counts {
        for &(entity, delta) in deltas.of(program) {
            values[entity as usize] += delta * count as i64;
        }
    }
    values
}

/// The first entity of `got` that does not hold its expected value, in
/// words; `None` when the snapshot is as expected.
pub fn snapshot_problem(what: &str, got: &Snapshot, expected: &[i64]) -> Option<String> {
    expected.iter().enumerate().find_map(|(entity, want)| {
        let have = got.get(EntityId::new(entity as u32)).map(Value::raw);
        (have != Some(*want))
            .then(|| format!("{what}: entity {entity} holds {have:?}, expected {want}"))
    })
}
