//! Builders for the win/move game programs of Examples 6.1 and 6.3.

use crate::graphs::{chain, edges_to_facts, random_dag, Edge};
use hilog_core::Program;
use hilog_syntax::parse_program;

/// The normal win/move program of Example 6.1 over the given move edges:
///
/// ```text
/// winning(X) :- move(X, Y), not winning(Y).
/// move(p0, p1). ...
/// ```
pub fn normal_game_program(edges: &[Edge]) -> Program {
    let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
    text.push_str(&edges_to_facts("move", edges));
    parse_program(&text).expect("generated game program parses")
}

/// The HiLog win/move program of Example 6.3, parameterised by the game:
///
/// ```text
/// winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
/// game(move1). move1(p0, p1). ...
/// ```
///
/// `games` maps a move-relation name to its edge list.
pub fn hilog_game_program(games: &[(&str, Vec<Edge>)]) -> Program {
    let mut text = String::from("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n");
    for (name, edges) in games {
        text.push_str(&format!("game({name}).\n"));
        text.push_str(&edges_to_facts(name, edges));
    }
    parse_program(&text).expect("generated HiLog game program parses")
}

/// The source text of a *sharded* win/move database: `shards` independent
/// games of `per_shard` positions each, shard `s` over its own predicates
/// `winning{s}` / `move{s}` with moves from a random DAG seeded with
/// `seed + s`:
///
/// ```text
/// winning0(X) :- move0(X, Y), not winning0(Y).
/// move0(s0n0, s0n1). ...
/// winning1(X) :- move1(X, Y), not winning1(Y).
/// ...
/// ```
///
/// The shards share no atoms, so the dependency condensation splits into
/// `shards` independent blocks: a wide condensation of many small
/// components.
pub fn sharded_game_text(shards: usize, per_shard: usize, seed: u64) -> String {
    let mut text = String::new();
    for s in 0..shards {
        text.push_str(&format!(
            "winning{s}(X) :- move{s}(X, Y), not winning{s}(Y).\n"
        ));
        for (u, v) in random_dag(per_shard, 2.0, seed + s as u64) {
            text.push_str(&format!("move{s}(s{s}n{u}, s{s}n{v}).\n"));
        }
    }
    text
}

/// [`sharded_game_text`], parsed.
pub fn sharded_game_program(shards: usize, per_shard: usize, seed: u64) -> Program {
    parse_program(&sharded_game_text(shards, per_shard, seed))
        .expect("generated sharded game program parses")
}

/// The source text of a sharded *chain* win/move database: `shards`
/// independent games, each played on a single path of `len` moves
/// (`move{s}(p0, p1). move{s}(p1, p2). ...`).
///
/// The chain is the deep end of the win/move family.  Position `p{u}` is
/// winning exactly when `len - u` is odd, and deciding `p{u}` requires the
/// entire settled suffix below it, so the game's remoteness — and with it
/// the number of global alternating iterations a whole-program well-founded
/// evaluator performs — grows linearly with `len`.  A component-at-a-time
/// schedule settles each position exactly once instead, so chains expose
/// what component-by-component evaluation saves.
pub fn sharded_chain_game_text(shards: usize, len: usize) -> String {
    let mut text = String::new();
    for s in 0..shards {
        text.push_str(&format!(
            "winning{s}(X) :- move{s}(X, Y), not winning{s}(Y).\n"
        ));
        text.push_str(&edges_to_facts(&format!("move{s}"), &chain(len)));
    }
    text
}

/// [`sharded_chain_game_text`], parsed.
pub fn sharded_chain_game_program(shards: usize, len: usize) -> Program {
    parse_program(&sharded_chain_game_text(shards, len))
        .expect("generated sharded chain game program parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::chain;
    use hilog_core::{is_range_restricted_normal, is_strongly_range_restricted};

    #[test]
    fn normal_game_is_range_restricted() {
        let p = normal_game_program(&chain(4));
        assert!(p.is_normal());
        assert!(is_range_restricted_normal(&p));
        assert_eq!(p.len(), 1 + 4);
    }

    #[test]
    fn hilog_game_is_strongly_range_restricted_but_not_normal() {
        let p = hilog_game_program(&[("move1", chain(3)), ("move2", chain(2))]);
        assert!(!p.is_normal());
        assert!(is_strongly_range_restricted(&p));
        // 1 rule + 2 game facts + 3 + 2 move facts.
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn empty_game_list_still_parses() {
        let p = hilog_game_program(&[]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn sharded_chain_game_has_one_rule_and_len_moves_per_shard() {
        let p = sharded_chain_game_program(3, 5);
        assert!(p.is_normal());
        assert!(is_range_restricted_normal(&p));
        // Per shard: the winning rule plus `len` move facts.
        assert_eq!(p.len(), 3 * (1 + 5));
        // Shards are disjoint: shard 0 of a wider database is unchanged.
        let narrow = sharded_chain_game_text(1, 5);
        assert!(sharded_chain_game_text(3, 5).starts_with(&narrow));
    }

    #[test]
    fn sharded_game_scales_with_the_shard_count() {
        let small = sharded_game_program(1, 8, 7);
        let large = sharded_game_program(4, 8, 7);
        assert!(is_range_restricted_normal(&large));
        // One game rule per shard plus that shard's move facts.
        assert!(large.len() > small.len());
        let edges = |s: u64| random_dag(8, 2.0, 7 + s).len();
        assert_eq!(large.len(), 4 + (0..4).map(edges).sum::<usize>());
        // Same seed, same prefix: shard 0 is identical in both programs.
        assert!(sharded_game_text(4, 8, 7).starts_with(&sharded_game_text(1, 8, 7)));
    }
}
