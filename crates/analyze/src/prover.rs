//! The orderability prover: certify a workload deadlock-free by total
//! acquisition order, or exhibit the minimal infeasible core.
//!
//! The decision procedure lives in `pr_lock::order::derive_order`: the
//! workload's acquisition-precedence graph (an arc `a → b` for every
//! pair of requests adjacent in some program's lock sequence) either
//! admits a topological order — in which case *every* program acquires
//! in strictly ascending rank and a [`Certificate`] is emitted with a
//! per-program proof — or contains cycles, in which case no total order
//! exists and each cycle becomes a `PR-D002` diagnostic whose spans
//! point at the acquisitions to reorder.
//!
//! The prover is **sound but not complete**: a certificate implies the
//! workload cannot deadlock under 2PL (ranks strictly increase along any
//! hold-and-wait chain among covered transactions, so no chain closes),
//! but an unorderable workload is not necessarily deadlock-prone — mode
//! compatibility can make every cycle of the precedence graph harmless
//! (e.g. two shared-only programs visiting two entities in opposite
//! orders). Those workloads simply keep the paper's partial-rollback
//! machinery; the certificate fast path is an optimisation the prover
//! must never grant unsoundly, and incompleteness is the safe direction.
//!
//! S→X upgrades and re-locks — which `hold_requests` models carefully
//! for deadlock *detection* — need no special case here: a repeated
//! entity repeats its rank, so the strict-ascending proof obligation
//! fails and the program is simply not certifiable. (`validate` already
//! rejects such programs from admission; the prover stays sound even on
//! `from_parts` programs that bypass it.)

use crate::diag::{Diagnostic, LintCode, Span};
use crate::lock_order::{CycleWitness, HoldRequest};
use pr_lock::{derive_order, EntityOrder};
use pr_model::{EntityId, TransactionProgram};

/// One certified lock request: at `pc`, the program requests `entity`,
/// whose certified rank is `rank`. A program's proof is its full request
/// sequence with strictly ascending ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProofStep {
    /// Program counter of the request op.
    pub pc: usize,
    /// The requested entity.
    pub entity: EntityId,
    /// The entity's rank in the certified order.
    pub rank: u32,
}

/// The per-transaction proof that a program's lock sequence is
/// consistent with the certified order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProgramProof {
    /// Workload index of the program.
    pub txn: usize,
    /// FNV-1a hash of the program's content key, tying the proof to the
    /// exact program text it was computed for.
    pub content_hash: u64,
    /// The lock requests in program order, ranks strictly ascending.
    pub sequence: Vec<ProofStep>,
}

/// A deadlock-freedom certificate: the total entity acquisition order
/// plus one [`ProgramProof`] per program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Name of the certified workload.
    pub workload: String,
    /// The certified total order, ascending rank.
    pub order: Vec<EntityId>,
    /// Per-program proofs, in workload order.
    pub programs: Vec<ProgramProof>,
}

/// Stable schema marker for the certificate JSON.
pub const CERTIFICATE_SCHEMA: &str = "pr-certificate-v1";

/// What the prover decided for a workload.
#[derive(Clone, Debug)]
pub enum ProverOutcome {
    /// A total order exists; the certificate covers every program.
    Certified(Certificate),
    /// No total order exists: the minimal infeasible core, one witness
    /// per precedence cycle.
    Unorderable(Vec<CycleWitness>),
}

impl ProverOutcome {
    /// The certificate, if the workload was certified.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            ProverOutcome::Certified(c) => Some(c),
            ProverOutcome::Unorderable(_) => None,
        }
    }
}

/// FNV-1a over the program's content key.
fn content_hash(program: &TransactionProgram) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in program.content_key().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every acquisition-precedence edge of the workload: for each pair of
/// requests adjacent in a program's lock sequence, a [`HoldRequest`]
/// whose `held` is the earlier entity and `requested` the later (with
/// the *request pc* of the later). This is the statically-possible
/// lock-order graph the prover decides over — a superset of the
/// runtime hold-and-wait edges, since ordering constrains the full
/// sequence whether or not the earlier lock is still held.
pub fn precedence_edges(programs: &[TransactionProgram]) -> Vec<HoldRequest> {
    let mut out = Vec::new();
    for (txn, p) in programs.iter().enumerate() {
        let reqs = p.lock_requests();
        for pair in reqs.windows(2) {
            let (_, held, held_mode) = pair[0];
            let (pc, requested, requested_mode) = pair[1];
            out.push(HoldRequest {
                txn,
                held,
                held_mode,
                requested,
                requested_mode,
                request_pc: pc,
            });
        }
    }
    out
}

/// Decides orderability for the workload.
pub fn prove(workload: &str, programs: &[TransactionProgram]) -> ProverOutcome {
    match derive_order(programs) {
        Ok(order) => {
            let proofs = programs
                .iter()
                .enumerate()
                .map(|(txn, p)| ProgramProof {
                    txn,
                    content_hash: content_hash(p),
                    sequence: p
                        .lock_requests()
                        .into_iter()
                        .map(|(pc, entity, _)| ProofStep {
                            pc,
                            entity,
                            rank: order.rank(entity).expect("derived order ranks every entity"),
                        })
                        .collect(),
                })
                .collect();
            ProverOutcome::Certified(Certificate {
                workload: workload.to_string(),
                order: order.entities().to_vec(),
                programs: proofs,
            })
        }
        Err(cycles) => {
            let edges = precedence_edges(programs);
            let witnesses = cycles
                .iter()
                .map(|cycle| {
                    let hops = cycle
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &a)| {
                            let b = cycle[(i + 1) % cycle.len()];
                            edges.iter().find(|e| e.held == a && e.requested == b).copied()
                        })
                        .collect();
                    CycleWitness { edges: hops }
                })
                .collect();
            ProverOutcome::Unorderable(witnesses)
        }
    }
}

/// Renders the infeasible core as `PR-D002` diagnostics, one per
/// precedence cycle, each with the spans of the acquisitions that close
/// it and the single-transaction reorderings that would break it.
pub fn diagnose_unorderable(
    programs: &[TransactionProgram],
    core: &[CycleWitness],
) -> Vec<Diagnostic> {
    core.iter()
        .map(|w| {
            let hops: Vec<String> = w
                .edges
                .iter()
                .map(|e| format!("T{} acquires {} before {}", e.txn + 1, e.held, e.requested))
                .collect();
            let entities: Vec<String> = w.entities().iter().map(|e| e.to_string()).collect();
            let message = format!(
                "no total acquisition order exists: entity precedence cycle {{{}}} — {}",
                entities.join(" -> "),
                hops.join("; "),
            );
            let fixes: Vec<String> = w
                .edges
                .iter()
                .map(|e| format!("T{}: acquire {} before {}", e.txn + 1, e.requested, e.held))
                .collect();
            let spans: Vec<Span> =
                w.edges.iter().map(|e| Span::at(programs, e.txn, e.request_pc)).collect();
            Diagnostic::new(LintCode::UnorderableWorkload, message)
                .with_witness(w.txns())
                .with_spans(spans)
                .with_advice(format!(
                    "break the precedence cycle with any one of: {}",
                    fixes.join(", or ")
                ))
        })
        .collect()
}

impl Certificate {
    /// The runtime form of the certified order.
    pub fn entity_order(&self) -> EntityOrder {
        EntityOrder::new(self.order.clone()).expect("certified order has no duplicates")
    }

    /// Re-checks the certificate against a workload: every program must
    /// hash to its proof's content hash and follow its proof's request
    /// sequence, and every sequence must strictly ascend in rank. This
    /// is the offline half of the runtime checker (`pr-core` re-derives
    /// coverage independently when the certificate is installed).
    pub fn verify(&self, programs: &[TransactionProgram]) -> Result<(), String> {
        let order = EntityOrder::new(self.order.clone())
            .ok_or_else(|| "certificate order repeats an entity".to_string())?;
        if self.programs.len() != programs.len() {
            return Err(format!(
                "certificate covers {} programs, workload has {}",
                self.programs.len(),
                programs.len()
            ));
        }
        for (proof, program) in self.programs.iter().zip(programs) {
            if proof.content_hash != content_hash(program) {
                return Err(format!(
                    "T{}: program text differs from the certified one",
                    proof.txn + 1
                ));
            }
            let reqs = program.lock_requests();
            if reqs.len() != proof.sequence.len() {
                return Err(format!("T{}: proof sequence length mismatch", proof.txn + 1));
            }
            let mut prev: Option<u32> = None;
            for (step, (pc, entity, _)) in proof.sequence.iter().zip(reqs) {
                if step.pc != pc || step.entity != entity {
                    return Err(format!("T{}: proof step diverges at pc {pc}", proof.txn + 1));
                }
                if order.rank(entity) != Some(step.rank) {
                    return Err(format!(
                        "T{}: rank of {entity} is not {}",
                        proof.txn + 1,
                        step.rank
                    ));
                }
                if prev.is_some_and(|p| step.rank <= p) {
                    return Err(format!(
                        "T{}: rank not strictly ascending at pc {pc}",
                        proof.txn + 1
                    ));
                }
                prev = Some(step.rank);
            }
        }
        Ok(())
    }

    /// Serializes to the stable `pr-certificate-v1` JSON: header line,
    /// then one program proof per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{}\",\"workload\":\"{}\",\"order\":[{}],\"programs\":[\n",
            CERTIFICATE_SCHEMA,
            escape(&self.workload),
            self.order.iter().map(|e| e.raw().to_string()).collect::<Vec<_>>().join(","),
        ));
        for (i, p) in self.programs.iter().enumerate() {
            let steps: Vec<String> = p
                .sequence
                .iter()
                .map(|s| format!("[{},{},{}]", s.pc, s.entity.raw(), s.rank))
                .collect();
            out.push_str(&format!(
                "{{\"txn\":{},\"content_hash\":\"{:016x}\",\"sequence\":[{}]}}{}\n",
                p.txn,
                p.content_hash,
                steps.join(","),
                if i + 1 < self.programs.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Parses the JSON emitted by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Certificate, String> {
        let mut lines = json.lines();
        let header = lines.next().ok_or("empty certificate")?;
        if !header.contains(&format!("\"schema\":\"{CERTIFICATE_SCHEMA}\"")) {
            return Err(format!("missing schema marker {CERTIFICATE_SCHEMA}"));
        }
        let workload = json_str(header, "workload").ok_or("missing workload")?;
        let order_raw = json_array(header, "order").ok_or("missing order")?;
        let mut order = Vec::new();
        for tok in order_raw.split(',').filter(|t| !t.is_empty()) {
            order.push(EntityId::new(tok.trim().parse::<u32>().map_err(|e| e.to_string())?));
        }
        let mut programs = Vec::new();
        for line in lines {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') {
                continue; // closing "]}"
            }
            let txn = json_str_or_num(line, "txn")?.parse::<usize>().map_err(|e| e.to_string())?;
            let hash_hex = json_str(line, "content_hash").ok_or("missing content_hash")?;
            let content_hash =
                u64::from_str_radix(&hash_hex, 16).map_err(|e| format!("bad hash: {e}"))?;
            let seq_raw = json_array(line, "sequence").ok_or("missing sequence")?;
            let mut sequence = Vec::new();
            for triple in seq_raw.split("],[").filter(|t| !t.is_empty()) {
                let triple = triple.trim_start_matches('[').trim_end_matches(']');
                let nums: Vec<&str> = triple.split(',').collect();
                if nums.len() != 3 {
                    return Err(format!("malformed proof step: {triple}"));
                }
                sequence.push(ProofStep {
                    pc: nums[0].trim().parse().map_err(|e| format!("bad pc: {e}"))?,
                    entity: EntityId::new(
                        nums[1].trim().parse().map_err(|e| format!("bad entity: {e}"))?,
                    ),
                    rank: nums[2].trim().parse().map_err(|e| format!("bad rank: {e}"))?,
                });
            }
            programs.push(ProgramProof { txn, content_hash, sequence });
        }
        Ok(Certificate { workload, order, programs })
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Extracts the string value of `"key":"..."` from a JSON line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts the numeric value of `"key":123` from a JSON line.
fn json_str_or_num(line: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).ok_or_else(|| format!("missing {key}"))? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].trim().to_string())
}

/// Extracts the raw interior of `"key":[ ... ]` (bracket-balanced).
fn json_array(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":[");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut depth = 1i32;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::ProgramBuilder;

    fn e(c: char) -> EntityId {
        EntityId::new(c as u32 - 'a' as u32)
    }

    fn xprog(seq: &str) -> TransactionProgram {
        let mut b = ProgramBuilder::new();
        for c in seq.chars() {
            b = b.lock_exclusive(e(c));
        }
        b.pad(1).build_unchecked()
    }

    #[test]
    fn orderable_workload_is_certified_with_strict_proofs() {
        let programs = [xprog("ab"), xprog("bc"), xprog("ac")];
        let outcome = prove("unit", &programs);
        let cert = outcome.certificate().expect("orderable");
        assert_eq!(cert.order, vec![e('a'), e('b'), e('c')]);
        assert_eq!(cert.programs.len(), 3);
        for proof in &cert.programs {
            let ranks: Vec<u32> = proof.sequence.iter().map(|s| s.rank).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
        }
        cert.verify(&programs).unwrap();
    }

    #[test]
    fn unorderable_workload_yields_core_witnesses() {
        let programs = [xprog("ab"), xprog("ba")];
        let ProverOutcome::Unorderable(core) = prove("unit", &programs) else {
            panic!("inverted pair must be unorderable");
        };
        assert_eq!(core.len(), 1);
        assert_eq!(core[0].edges.len(), 2);
        let diags = diagnose_unorderable(&programs, &core);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::UnorderableWorkload);
        assert_eq!(diags[0].spans.len(), 2);
        assert!(diags[0].advice.as_deref().unwrap().contains("acquire a before b"));
    }

    /// Soundness is one-way: SX(a,b) + XS(b,a) cannot deadlock (the S+S
    /// side never blocks a cycle closed), yet it is unorderable — the
    /// prover must refuse to certify rather than special-case modes.
    #[test]
    fn mode_blind_prover_refuses_deadlock_free_but_unorderable() {
        let p1 = ProgramBuilder::new()
            .lock_shared(e('a'))
            .lock_exclusive(e('b'))
            .pad(1)
            .build_unchecked();
        let p2 = ProgramBuilder::new()
            .lock_shared(e('b'))
            .lock_exclusive(e('a'))
            .pad(1)
            .build_unchecked();
        // No runtime deadlock is possible... (S holders never both block)
        // ...actually this pair CAN deadlock (S then X). Use the truly
        // harmless pair: both shared-only.
        let s1 =
            ProgramBuilder::new().lock_shared(e('a')).lock_shared(e('b')).pad(1).build_unchecked();
        let s2 =
            ProgramBuilder::new().lock_shared(e('b')).lock_shared(e('a')).pad(1).build_unchecked();
        assert!(crate::lock_order::find_cycles(&[s1.clone(), s2.clone()]).is_empty());
        assert!(matches!(prove("unit", &[s1, s2]), ProverOutcome::Unorderable(_)));
        // And the S/X mix is both unorderable and deadlock-prone.
        assert!(matches!(prove("unit", &[p1, p2]), ProverOutcome::Unorderable(_)));
    }

    #[test]
    fn certificate_json_round_trips() {
        let programs = [xprog("abd"), xprog("bd"), xprog("ad")];
        let cert = prove("roundtrip", &programs).certificate().cloned().expect("orderable");
        let json = cert.to_json();
        assert!(json.contains(CERTIFICATE_SCHEMA));
        let parsed = Certificate::from_json(&json).unwrap();
        assert_eq!(parsed, cert);
        parsed.verify(&programs).unwrap();
    }

    /// Certificates outlive the process that issued them, and their
    /// `content_hash` is a hash of `Debug` output: this one was serialized
    /// while `Expr` still boxed its operands (leaf, `var ± const` and
    /// depth-3 nested expressions), and must verify for ever.
    #[test]
    fn certificate_from_the_boxed_representation_still_verifies() {
        use pr_model::{Expr, Op, VarId};
        const ISSUED: &str = concat!(
            r#"{"schema":"pr-certificate-v1","workload":"pinned","order":[0,1,2],"programs":["#,
            "\n",
            r#"{"txn":0,"content_hash":"3378331c70f42349","sequence":[[0,0,0],[3,1,1]]},"#,
            "\n",
            r#"{"txn":1,"content_hash":"46cfbd465872eb70","sequence":[[0,1,1],[2,2,2]]}"#,
            "\n]}\n",
        );
        let v = VarId::new;
        let e = EntityId::new;
        let programs = [
            TransactionProgram::try_from(vec![
                Op::LockExclusive(e(0)),
                Op::Read { entity: e(0), into: v(0) },
                Op::Compute(Expr::add(Expr::var(v(0)), Expr::lit(1))),
                Op::LockShared(e(1)),
                Op::Read { entity: e(1), into: v(1) },
                Op::Assign {
                    var: v(2),
                    expr: Expr::mul(
                        Expr::sub(Expr::add(Expr::var(v(1)), Expr::lit(2)), Expr::var(v(0))),
                        Expr::add(Expr::lit(-3), Expr::mul(Expr::var(v(2)), Expr::var(v(2)))),
                    ),
                },
                Op::Write { entity: e(0), expr: Expr::sub(Expr::var(v(2)), Expr::lit(-4)) },
                Op::Unlock(e(0)),
                Op::Unlock(e(1)),
                Op::Commit,
            ])
            .unwrap(),
            TransactionProgram::try_from(vec![
                Op::LockExclusive(e(1)),
                Op::Write { entity: e(1), expr: Expr::lit(9) },
                Op::LockExclusive(e(2)),
                Op::Write {
                    entity: e(2),
                    expr: Expr::mul(Expr::lit(3), Expr::add(Expr::lit(1), Expr::lit(2))),
                },
                Op::Commit,
            ])
            .unwrap(),
        ];
        Certificate::from_json(ISSUED).unwrap().verify(&programs).unwrap();
        assert_eq!(prove("pinned", &programs).certificate().unwrap().to_json(), ISSUED);
    }

    #[test]
    fn verify_rejects_tampering() {
        let programs = [xprog("ab"), xprog("bc")];
        let cert = prove("tamper", &programs).certificate().cloned().unwrap();
        // Tampered order: swap two entities.
        let mut forged = cert.clone();
        forged.order.swap(0, 1);
        assert!(forged.verify(&programs).is_err());
        // Tampered program: certificate for a different workload text.
        let other = [xprog("ab"), xprog("bd")];
        assert!(cert.verify(&other).is_err());
        // Wrong cardinality.
        assert!(cert.verify(&programs[..1]).is_err());
    }

    #[test]
    fn figure_workloads_are_unorderable_generated_ordered_is_certified() {
        // The paper's Figure 1 workload deadlocks, so it must also be
        // unorderable (orderability implies deadlock-freedom).
        let fig1 = pr_sim::scenarios::figure1_workload();
        assert!(matches!(prove("figure1", &fig1), ProverOutcome::Unorderable(_)));
        let mut gen = pr_sim::ProgramGenerator::new(
            pr_sim::GeneratorConfig { ordered_locks: true, ..Default::default() },
            42,
        );
        let workload = gen.generate_workload(12);
        let outcome = prove("ordered", &workload);
        let cert = outcome.certificate().expect("ordered generator output is certifiable");
        cert.verify(&workload).unwrap();
    }
}
