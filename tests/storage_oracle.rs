//! Differential oracle for the pluggable relation-storage backends: under
//! arbitrary insert/remove churn and probing, a [`FactStore`] on the spill
//! backend must be observationally identical to one on the in-memory
//! backend — same novelty/presence results, same candidate sets, same
//! ordered iteration, read after every write as well as at the end.  The
//! spill store runs with a deliberately tiny residency budget so relations
//! keep getting paged out and faulted back *between* the probes that compare
//! them.
//!
//! Seeds are pinned (`SEED_BASE` + case index) so failures reproduce;
//! `HILOG_STORAGE_ORACLE_CASES` scales the case count up in CI.

use hilog_engine::{FactStore, StorageConfig};
use hilog_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const SEED_BASE: u64 = 0x5709_4A6E;

/// Residency budget in facts — far below the stores' sizes, so cold
/// relations spill continuously: the churn of each of the first 1,000 seeds
/// outgrows it.
const TINY_BUDGET: usize = 20;

fn cases() -> u64 {
    std::env::var("HILOG_STORAGE_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

const FUNCTORS: &[&str] = &["move", "edge", "game", "winning", "p", "q"];
const CONSTANTS: &[&str] = &["a", "b", "c", "d", "e", "hub", "n1", "n2"];

/// A random ground atom: first-order (`f(c, ...)`) with arity 0..=3, a bare
/// symbol, or HiLog-shaped (`winning(g)(c)` — a compound predicate name).
fn random_atom(rng: &mut StdRng) -> Term {
    let constant = |rng: &mut StdRng| -> Term {
        if rng.gen_bool(0.2) {
            Term::int(rng.gen_range(0..5))
        } else {
            Term::sym(CONSTANTS[rng.gen_range(0..CONSTANTS.len())])
        }
    };
    match rng.gen_range(0..10u32) {
        0 => Term::sym(FUNCTORS[rng.gen_range(0..FUNCTORS.len())]),
        1 | 2 => {
            let name = Term::apps(
                FUNCTORS[rng.gen_range(0..FUNCTORS.len())],
                vec![constant(rng)],
            );
            Term::app(name, vec![constant(rng)])
        }
        _ => {
            let arity = rng.gen_range(0..4usize);
            Term::apps(
                FUNCTORS[rng.gen_range(0..FUNCTORS.len())],
                (0..arity).map(|_| constant(rng)).collect(),
            )
        }
    }
}

/// A random pattern: take an atom shape and open a random subset of
/// argument positions (sometimes the predicate name too) to variables.
fn random_pattern(rng: &mut StdRng, population: &[Term]) -> Term {
    let template = if population.is_empty() || rng.gen_bool(0.3) {
        random_atom(rng)
    } else {
        population[rng.gen_range(0..population.len())].clone()
    };
    let name = if rng.gen_bool(0.15) {
        Term::var("P")
    } else {
        template.name().clone()
    };
    if template.args().is_empty() && template.arity().is_none() {
        return template;
    }
    let args: Vec<Term> = template
        .args()
        .iter()
        .enumerate()
        .map(|(i, arg)| {
            if rng.gen_bool(0.5) {
                Term::var(format!("X{i}"))
            } else {
                arg.clone()
            }
        })
        .collect();
    Term::app(name, args)
}

/// The *matches* of `pattern` in `store` — candidates are only required to
/// be a superset restricted by the backend's access path, so the comparable
/// set is candidates filtered through the matcher.
fn matches_of(store: &FactStore, pattern: &Term) -> Vec<Term> {
    let mut out: Vec<Term> = store
        .collect_candidates(pattern)
        .into_iter()
        .filter(|c| {
            let mut theta = Substitution::new();
            hilog_core::unify::match_with(pattern, c, &mut theta)
        })
        .collect();
    out.sort();
    out
}

fn compare_probes(mem: &FactStore, spill: &FactStore, rng: &mut StdRng, pop: &[Term], seed: u64) {
    let pattern = random_pattern(rng, pop);
    assert_eq!(
        matches_of(mem, &pattern),
        matches_of(spill, &pattern),
        "seed {seed}: candidate matches diverge for `{pattern}`"
    );
    if let Some(atom) = pop.get(rng.gen_range(0..pop.len().max(1))) {
        assert_eq!(
            mem.contains(atom),
            spill.contains(atom),
            "seed {seed}: containment diverges for `{atom}`"
        );
    }
}

#[test]
fn spill_store_is_observationally_identical_to_in_memory_under_churn() {
    for case in 0..cases() {
        let seed = SEED_BASE + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = FactStore::new(&StorageConfig::InMemory);
        let mut spill = FactStore::new(&StorageConfig::Spill {
            dir: None,
            resident_budget: TINY_BUDGET,
        });
        let mut population: Vec<Term> = (0..60).map(|_| random_atom(&mut rng)).collect();
        for step in 0..120 {
            let atom = population[rng.gen_range(0..population.len())].clone();
            if rng.gen_bool(0.65) {
                assert_eq!(
                    mem.insert(atom.clone()),
                    spill.insert(atom.clone()),
                    "seed {seed} step {step}: insert novelty diverged for `{atom}`"
                );
            } else {
                assert_eq!(
                    mem.remove(&atom),
                    spill.remove(&atom),
                    "seed {seed} step {step}: remove presence diverged for `{atom}`"
                );
            }
            if rng.gen_bool(0.15) {
                population.push(random_atom(&mut rng));
            }
            assert_eq!(mem.len(), spill.len(), "seed {seed} step {step}: len");
            // Probing *during* the churn is the point: a probe faults cold
            // relations back in, and the next mutations must keep the
            // paged-out copies coherent with what the probe re-heated.
            compare_probes(&mem, &spill, &mut rng, &population, seed);
        }
        // Full ordered iteration must agree exactly (spilled rows decode
        // back into the same term order).
        assert_eq!(
            mem.collect_atoms(),
            spill.collect_atoms(),
            "seed {seed}: ordered iteration diverged"
        );
        // With a 20-fact budget and ~60+ atoms across churn, the spill
        // store must actually have exercised the paging path — rows paged
        // out, and probes faulting them back in.
        let stats = spill.storage_stats();
        assert!(
            stats.spill_writes > 0 && stats.residency_faults > 0,
            "seed {seed}: nothing ever spilled and faulted back ({stats:?}) — the oracle \
             tested nothing"
        );
    }
}

#[test]
fn both_backends_visit_the_set_in_term_order_after_every_write() {
    // The in-memory backend sorts on the first ordered read after a write
    // and caches that order; the spill backend sorts on every read.  Reads
    // interleaved with the churn catch an order cached past a write.
    for case in 0..cases() {
        let seed = SEED_BASE ^ (0x0DE5 << 20) ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = FactStore::new(&StorageConfig::InMemory);
        let mut spill = FactStore::new(&StorageConfig::Spill {
            dir: None,
            resident_budget: TINY_BUDGET,
        });
        let mut mirror: BTreeSet<Term> = BTreeSet::new();
        let mut population: Vec<Term> = (0..40).map(|_| random_atom(&mut rng)).collect();
        for step in 0..80 {
            let atom = population[rng.gen_range(0..population.len())].clone();
            if rng.gen_bool(0.65) {
                assert_eq!(mem.insert(atom.clone()), mirror.insert(atom.clone()));
                spill.insert(atom);
            } else {
                assert_eq!(mem.remove(&atom), mirror.remove(&atom));
                spill.remove(&atom);
            }
            if rng.gen_bool(0.15) {
                population.push(random_atom(&mut rng));
            }
            let want: Vec<Term> = mirror.iter().cloned().collect();
            assert_eq!(
                mem.collect_atoms(),
                want,
                "seed {seed} step {step}: in memory"
            );
            assert_eq!(
                spill.collect_atoms(),
                want,
                "seed {seed} step {step}: spill"
            );
        }
    }
}

#[test]
fn spill_store_survives_heavy_single_relation_skew() {
    // All facts in one relation: the relation itself is bigger than the
    // budget, so it pages out and back as a unit around each probe.
    let seed = SEED_BASE ^ 0x5EED;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mem = FactStore::new(&StorageConfig::InMemory);
    let mut spill = FactStore::new(&StorageConfig::Spill {
        dir: None,
        resident_budget: TINY_BUDGET,
    });
    let mut population = Vec::new();
    for i in 0..200 {
        let atom = Term::apps("edge", vec![Term::int(i % 97), Term::int((i * 7) % 89)]);
        population.push(atom.clone());
        assert_eq!(mem.insert(atom.clone()), spill.insert(atom));
        if i % 17 == 0 {
            compare_probes(&mem, &spill, &mut rng, &population, seed);
        }
    }
    for i in (0..200).step_by(3) {
        let atom: &Term = &population[i];
        assert_eq!(mem.remove(atom), spill.remove(atom));
    }
    assert_eq!(mem.collect_atoms(), spill.collect_atoms());
    assert!(spill.storage_stats().spill_writes > 0);
}
