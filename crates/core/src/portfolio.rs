//! The solver portfolio: every engine raced under one anytime contract.
//!
//! Per request the [`Portfolio`] runs its members **in a fixed cheap-first
//! order**, so an incumbent exists almost immediately and every later
//! member only has to beat it:
//!
//! 1. the constructive algorithms (`lpl`, `lpl-pl`, `minwidth`,
//!    `minwidth-pl`, `ns`), the early incumbents, each through its own
//!    `solve` under the request's deadline. At 250 nodes they take about
//!    3.5 ms together. `ns` checks the clock once per pivot and answers
//!    with its current feasible ranking when the deadline passes; the
//!    four single-pass members ignore the clock, and the two `-pl` ones
//!    take seconds at 10⁴ nodes;
//! 2. the caller's warm seed, when one is supplied — it competes as the
//!    member `seed`;
//! 3. the exact branch and bound, only under the size cap — when its
//!    search completes the optimum is *certified* and the race can stop
//!    (nothing can beat a proven optimum);
//! 4. the ant colony, warm-started from the best incumbent so far, with
//!    whatever deadline budget remains.
//!
//! The winner is the member with the lowest cost `H + W` (ties go to the
//! earlier, cheaper member), and the returned [`Solution`] carries a
//! [`RaceReport`] with each member's cost, wall time, and flags. Because
//! members run sequentially with deadline checks between them, an
//! expired deadline still returns the best constructive incumbent with
//! `stopped_early = true` — the portfolio never answers empty-handed.

use crate::{AcoLayering, AcoParams};
use antlayer_graph::Dag;
use antlayer_layering::{
    solution_cost, Exact, Layering, LayeringAlgorithm, LongestPath, MemberStats, MinWidth,
    NetworkSimplex, Promote, RaceReport, Refined, Solution, WidthModel,
};
use std::time::Instant;

/// Races the constructive solvers, the size-capped exact search, and a
/// warm-started colony; see the module docs for the exact order
/// and semantics.
pub struct Portfolio {
    /// Parameters for the ant-colony member (seed, colony size, …).
    pub params: AcoParams,
    /// The exact member, with its node cap and expansion budget; the
    /// member is skipped entirely for graphs above the cap.
    pub exact: Exact,
}

impl Portfolio {
    /// A portfolio whose ACO member runs under `params`, with the
    /// default exact member ([`Exact::default`]).
    pub fn new(params: AcoParams) -> Portfolio {
        Portfolio {
            params,
            exact: Exact::default(),
        }
    }

    fn race(
        &self,
        dag: &Dag,
        wm: &WidthModel,
        seed: Option<&Layering>,
        deadline: Option<Instant>,
    ) -> Solution {
        let expired = |now: Instant| deadline.is_some_and(|d| now >= d);
        let mut members: Vec<MemberStats> = Vec::new();
        // The incumbent: (layering, cost, winning member index).
        let mut best: Option<(Layering, f64, usize)> = None;
        let mut stopped_early = false;

        let consider = |members: &mut Vec<MemberStats>,
                        best: &mut Option<(Layering, f64, usize)>,
                        stats: MemberStats,
                        layering: Layering| {
            let beats = best.as_ref().is_none_or(|(_, c, _)| stats.cost < *c - 1e-9);
            if beats {
                *best = Some((layering, stats.cost, members.len()));
            }
            members.push(stats);
        };

        // 1. The constructive incumbents — always run; they are the cheap
        // answers the portfolio exists to have on hand. A member the
        // deadline truncated (`ns`) still answers, and the race reports
        // the truncation.
        let constructives: [(&str, Box<dyn LayeringAlgorithm>); 5] = [
            ("lpl", Box::new(LongestPath)),
            (
                "lpl-pl",
                Box::new(Refined::new(LongestPath, Promote::new())),
            ),
            ("minwidth", Box::new(MinWidth::new())),
            (
                "minwidth-pl",
                Box::new(Refined::new(MinWidth::new(), Promote::new())),
            ),
            ("ns", Box::new(NetworkSimplex)),
        ];
        for (name, algo) in constructives {
            let t0 = Instant::now();
            let s = algo.solve(dag, wm, deadline);
            stopped_early |= s.stopped_early;
            let stats = MemberStats {
                solver: name.to_string(),
                cost: s.cost,
                micros: t0.elapsed().as_micros() as u64,
                stopped_early: s.stopped_early,
                certified: false,
            };
            consider(&mut members, &mut best, stats, s.layering);
        }

        // 2. The caller's warm seed competes like any other member.
        if let Some(seed) = seed {
            if seed.validate(dag).is_ok() {
                let stats = MemberStats {
                    solver: "seed".to_string(),
                    cost: solution_cost(dag, seed, wm),
                    micros: 0,
                    stopped_early: false,
                    certified: false,
                };
                consider(&mut members, &mut best, stats, seed.clone());
            }
        }

        // 3. The exact member, only under its cap: a completed search
        // certifies the optimum. The flag transfers to the returned
        // solution even when a constructive member tied it (a tie with
        // a proven optimum is itself optimal).
        let mut certified_cost: Option<f64> = None;
        if dag.node_count() <= self.exact.node_cap && !expired(Instant::now()) {
            let t0 = Instant::now();
            let s = self.exact.solve(dag, wm, deadline);
            // The exact solver falls back to LPL when truncated before
            // any incumbent; either way it returns a layering to race.
            let stats = MemberStats {
                solver: "exact".to_string(),
                cost: s.cost,
                micros: t0.elapsed().as_micros() as u64,
                stopped_early: s.stopped_early,
                certified: s.certified,
            };
            if s.certified {
                certified_cost = Some(s.cost);
            }
            consider(&mut members, &mut best, stats, s.layering);
        }

        // 4. The colony refines the best incumbent — unless the optimum
        // is already certified (nothing can beat it) or the clock ran
        // out (report truncation instead of burning the caller's time).
        if certified_cost.is_none() {
            if expired(Instant::now()) {
                stopped_early = true;
            } else {
                let t0 = Instant::now();
                let incumbent = best.as_ref().map(|(l, _, _)| l.clone());
                let s = match &incumbent {
                    Some(l) => self.params_solver().solve_seeded(dag, wm, l, deadline),
                    None => self.params_solver().solve(dag, wm, deadline),
                };
                stopped_early |= s.stopped_early;
                let stats = MemberStats {
                    solver: "aco".to_string(),
                    cost: s.cost,
                    micros: t0.elapsed().as_micros() as u64,
                    stopped_early: s.stopped_early,
                    certified: false,
                };
                consider(&mut members, &mut best, stats, s.layering);
            }
        }

        let (layering, cost, winner_idx) =
            best.expect("constructive members always produce an incumbent");
        let certified = certified_cost.is_some_and(|c| cost <= c + 1e-9);
        Solution {
            layering,
            cost,
            stopped_early,
            certified,
            seeded: seed.is_some(),
            race: Some(RaceReport {
                winner: members[winner_idx].solver.clone(),
                members,
            }),
        }
    }

    fn params_solver(&self) -> AcoLayering {
        AcoLayering::new(self.params.clone())
    }
}

impl LayeringAlgorithm for Portfolio {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn layer(&self, dag: &Dag, wm: &WidthModel) -> Layering {
        self.solve(dag, wm, None).layering
    }

    fn solve(&self, dag: &Dag, wm: &WidthModel, deadline: Option<Instant>) -> Solution {
        self.race(dag, wm, None, deadline)
    }

    fn solve_seeded(
        &self,
        dag: &Dag,
        wm: &WidthModel,
        seed: &Layering,
        deadline: Option<Instant>,
    ) -> Solution {
        self.race(dag, wm, Some(seed), deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> AcoParams {
        AcoParams::default().with_colony(5, 8).with_seed(11)
    }

    #[test]
    fn small_graphs_come_back_certified() {
        let mut rng = StdRng::seed_from_u64(3);
        let dag = generate::gnp_dag(8, 0.3, &mut rng);
        let wm = WidthModel::unit();
        let s = Portfolio::new(params()).solve(&dag, &wm, None);
        s.layering.validate(&dag).unwrap();
        assert!(s.certified, "under the exact cap the optimum is certified");
        assert!(!s.stopped_early);
        let race = s.race.as_ref().unwrap();
        assert!(race
            .members
            .iter()
            .any(|m| m.solver == "exact" && m.certified));
        // The certified cost is never beaten by any member.
        for m in &race.members {
            assert!(
                m.cost >= s.cost - 1e-9,
                "{} beat the certified optimum",
                m.solver
            );
        }
        assert_eq!(
            race.members
                .iter()
                .find(|m| m.solver == race.winner)
                .map(|m| m.cost),
            Some(s.cost)
        );
    }

    #[test]
    fn large_graphs_race_constructives_and_colony() {
        let mut rng = StdRng::seed_from_u64(5);
        let dag = generate::random_dag_with_edges(60, 100, &mut rng);
        let wm = WidthModel::unit();
        let s = Portfolio::new(params()).solve(&dag, &wm, None);
        s.layering.validate(&dag).unwrap();
        assert!(!s.certified, "no exact member above the cap");
        let race = s.race.as_ref().unwrap();
        assert!(!race.members.iter().any(|m| m.solver == "exact"));
        assert!(race.members.iter().any(|m| m.solver == "aco"));
        // The returned cost is the members' minimum.
        let min = race
            .members
            .iter()
            .map(|m| m.cost)
            .fold(f64::INFINITY, f64::min);
        assert!((s.cost - min).abs() < 1e-9);
    }

    #[test]
    fn expired_deadline_returns_constructive_incumbent_truncated() {
        let mut rng = StdRng::seed_from_u64(9);
        let dag = generate::random_dag_with_edges(40, 70, &mut rng);
        let wm = WidthModel::unit();
        let s = Portfolio::new(params()).solve(&dag, &wm, Some(Instant::now()));
        s.layering.validate(&dag).unwrap();
        assert!(s.stopped_early, "expired deadline must report truncation");
        let race = s.race.as_ref().unwrap();
        // The colony never ran; constructives still answered.
        assert!(!race.members.iter().any(|m| m.solver == "aco"));
        assert!(race.members.iter().any(|m| m.solver == "lpl"));
    }

    #[test]
    fn seed_competes_as_a_member_and_marks_the_solution_seeded() {
        let mut rng = StdRng::seed_from_u64(13);
        let dag = generate::random_dag_with_edges(30, 50, &mut rng);
        let wm = WidthModel::unit();
        let seed = LongestPath.layer(&dag, &wm);
        let s = Portfolio::new(params()).solve_seeded(&dag, &wm, &seed, None);
        assert!(s.seeded);
        let race = s.race.as_ref().unwrap();
        assert!(race.members.iter().any(|m| m.solver == "seed"));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(17);
        let dag = generate::random_dag_with_edges(25, 40, &mut rng);
        let wm = WidthModel::unit();
        let p = Portfolio::new(params());
        let a = p.solve(&dag, &wm, None);
        let b = p.solve(&dag, &wm, None);
        assert_eq!(a.layering, b.layering);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(
            a.race.as_ref().unwrap().winner,
            b.race.as_ref().unwrap().winner
        );
    }

    #[test]
    fn portfolio_never_loses_to_cold_aco_with_the_same_params() {
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..3 {
            let dag = generate::random_dag_with_edges(30, 50, &mut rng);
            let wm = WidthModel::unit();
            let p = Portfolio::new(params()).solve(&dag, &wm, None);
            let cold = AcoLayering::new(params()).solve(&dag, &wm, None);
            assert!(
                p.cost <= cold.cost + 1e-9,
                "portfolio {} lost to cold aco {}",
                p.cost,
                cold.cost
            );
        }
    }
}
