//! Incremental re-alignment on KB deltas.
//!
//! A converged PARIS run is a fixed point of the instance / sub-relation
//! equations. When the underlying KBs change by a small
//! [`KbDelta`], almost all of that fixed point
//! is still valid: only score entries whose *support sets* were touched
//! can move. This module re-runs the fixpoint **warm-started** from the
//! previous scores and **dirty-set driven** — each iteration rescores only
//! the instances and relations that could have changed, and changes
//! propagate along the dependency edges of the equations:
//!
//! * an instance row (Eq. 13) depends on the instance's own facts, the
//!   candidate rows of its neighbours, the sub-relation scores of its
//!   relations, and the target-KB adjacency around its neighbours'
//!   candidates;
//! * a sub-relation row (Eq. 12) depends on the relation's pair list and
//!   the candidate rows of those pairs' endpoints.
//!
//! The dirty seeds come straight from
//! [`AppliedDelta`]; propagation then
//! follows changed rows. Two thresholds bound the cascade (see
//! [`IncrementalOptions`]): an instance row or relation row whose scores
//! moved less than the corresponding epsilon does not re-dirty its
//! dependents. This makes incremental re-alignment an *approximation* of
//! the from-scratch run whose error is bounded by the epsilons — in
//! practice (and in `tests/incremental_realign.rs`) the
//! resulting scores agree with a full re-alignment to well within
//! alignment-decision tolerance, at a fraction of the cost.
//!
//! The top-level entry point is [`update_snapshot`], which takes a loaded
//! [`AlignedPairSnapshot`], applies deltas to either side, re-aligns
//! incrementally, and returns a new self-contained snapshot. The
//! lower-level [`realign_incremental`] works on borrowed KBs for callers
//! that manage their own storage.

use paris_kb::delta::{apply_owned, AppliedDelta, DeltaError, KbDelta};
use paris_kb::{EntityId, EntityKind, FxHashSet, Kb, RelationId};

use crate::config::ParisConfig;
use crate::equiv::{Assignment, CandidateView};
use crate::image::PairSide;
use crate::instance::instance_pass_subset;
use crate::iteration::{AlignmentResult, IterationStats};
use crate::literal_bridge::LiteralBridge;
use crate::owned::{AlignedPairSnapshot, OwnedAlignment};
use crate::subclass::subclass_pass;
use crate::subrel::score_relation;

/// Thresholds bounding dirty-set propagation.
#[derive(Clone, Debug)]
pub struct IncrementalOptions {
    /// An instance row whose candidate probabilities all moved by less
    /// than this does not re-dirty its neighbours (the refreshed row is
    /// still stored). Eq. 13's evidence factors attenuate a neighbour's
    /// score change, so ripples decay geometrically with distance from
    /// the delta — this threshold is where the ripple is declared dead.
    /// It must also absorb the sub-convergence drift a "converged" run's
    /// scores still carry, or every rescoring would fan out to its whole
    /// neighbourhood.
    pub instance_epsilon: f64,
    /// A sub-relation row whose scores all moved by less than this does
    /// not re-dirty the instances using the relation. Relation scores
    /// aggregate over *all* pairs of a relation, so a delta of a few
    /// percent of the facts legitimately shifts every relation's score by
    /// a comparable few percent; re-dirtying every user of every
    /// slightly-shifted relation would cascade to a full recompute for a
    /// score difference bounded by this epsilon. Only a *semantic* shift
    /// (a relation whose meaning changed) exceeds it.
    pub relation_epsilon: f64,
}

impl Default for IncrementalOptions {
    fn default() -> Self {
        IncrementalOptions {
            instance_epsilon: 0.01,
            relation_epsilon: 0.05,
        }
    }
}

/// What the incremental run actually did, for reporting and benches.
#[derive(Clone, Debug, Default)]
pub struct IncrementalReport {
    /// Instances in the initial dirty set.
    pub seeded_instances: usize,
    /// Instance rows rescored, summed over all iterations.
    pub rescored_rows: usize,
    /// Sub-relation rows rescored, summed over all iterations.
    pub rescored_relation_rows: usize,
    /// Total KB-1 instances (for context: a full run rescores all of them
    /// every iteration).
    pub total_instances: usize,
}

/// Dirty seeds for [`realign_incremental`], normally taken from the
/// [`AppliedDelta`]s of the two sides.
#[derive(Clone, Debug, Default)]
pub struct DirtySeeds {
    /// Touched KB-1 entities.
    pub entities1: Vec<EntityId>,
    /// Touched KB-1 base relations (forward ids).
    pub relations1: Vec<RelationId>,
    /// Touched KB-2 entities.
    pub entities2: Vec<EntityId>,
    /// Touched KB-2 entities whose *resource* adjacency changed (see
    /// [`AppliedDelta::resource_touched`]): the only KB-2 instances whose
    /// changes can alter a KB-1 row through Eq. 13's candidate walk.
    pub resource_entities2: Vec<EntityId>,
    /// Touched KB-2 base relations (forward ids).
    pub relations2: Vec<RelationId>,
}

impl DirtySeeds {
    /// Seeds from the applied deltas of either side (pass `None` for an
    /// unchanged side).
    pub fn from_applied(
        applied1: Option<&AppliedDelta>,
        applied2: Option<&AppliedDelta>,
    ) -> DirtySeeds {
        let mut seeds = DirtySeeds::default();
        if let Some(a) = applied1 {
            seeds.entities1 = a.touched_entities.clone();
            seeds.relations1 = a.touched_relations.clone();
        }
        if let Some(a) = applied2 {
            seeds.entities2 = a.touched_entities.clone();
            seeds.resource_entities2 = a.resource_touched.clone();
            seeds.relations2 = a.touched_relations.clone();
        }
        seeds
    }
}

/// An incremental run: the full result plus the work accounting.
pub struct IncrementalRun<'a> {
    /// The re-aligned result (same shape as a full [`Aligner`] run).
    ///
    /// [`Aligner`]: crate::Aligner
    pub result: AlignmentResult<'a>,
    /// What was actually recomputed.
    pub report: IncrementalReport,
}

/// Re-aligns two (already delta-updated) KBs, warm-started from the
/// previous alignment and rescoring only dirty score entries.
///
/// `previous` must have been computed for KBs whose entity/relation ids
/// are a prefix of `kb1`/`kb2`'s — which is exactly what
/// [`apply`](paris_kb::delta::apply) guarantees. The progressive-damping
/// setting of `config` is ignored (the warm start plays that role).
pub fn realign_incremental<'a>(
    kb1: &'a Kb,
    kb2: &'a Kb,
    previous: &OwnedAlignment,
    seeds: &DirtySeeds,
    config: &ParisConfig,
    options: &IncrementalOptions,
) -> IncrementalRun<'a> {
    let bridge = LiteralBridge::build(kb1, kb2, &config.literal_similarity);
    let literal_pairs = bridge.num_pairs();
    let mut equiv = previous
        .instances
        .expanded(kb1.num_entities(), kb2.num_entities());
    let mut subrel = previous
        .subrelations
        .expanded(kb1.num_directed_relations(), kb2.num_directed_relations());
    let informed = !subrel.is_bootstrap();

    // ---- seed the dirty sets from the delta's touched ids --------------
    // Eq. 13 reads, for a KB-1 instance x: x's own fact list, the
    // candidate rows of x's neighbours, the sub-relation scores, and the
    // KB-2 adjacency around the neighbours' candidates. So:
    //
    // * a touched KB-1 entity dirties only *itself* — neighbours see it
    //   exclusively through its candidate row, which propagation
    //   re-dirties once that row actually changes;
    // * a touched KB-2 *literal* dirties the KB-1 entities bridged to it
    //   and their neighbours (the bridge row is part of the candidate
    //   view);
    // * a KB-2 instance whose *resource* adjacency changed dirties the
    //   KB-1 entities holding it as a candidate and their neighbours
    //   (their products walk its changed adjacency). Literal-attribute
    //   changes on a KB-2 instance cannot alter any KB-1 row directly —
    //   Eq. 13 skips non-instance candidates — so they seed nothing here.
    let mut dirty_instances: FxHashSet<EntityId> = FxHashSet::default();
    let seed_entity = |e: EntityId, dirty: &mut FxHashSet<EntityId>| {
        if kb1.kind(e) == EntityKind::Instance {
            dirty.insert(e);
        }
        for &(_, y) in kb1.facts(e) {
            if kb1.kind(y) == EntityKind::Instance {
                dirty.insert(y);
            }
        }
    };
    for &e in &seeds.entities1 {
        if kb1.kind(e) == EntityKind::Instance {
            dirty_instances.insert(e);
        }
    }
    for &z in &seeds.entities2 {
        if kb2.kind(z) == EntityKind::Literal {
            for &(y1, _) in bridge.candidates_rev(z) {
                seed_entity(y1, &mut dirty_instances);
            }
        }
    }
    for &z in &seeds.resource_entities2 {
        for &(y1, _) in equiv.candidates_rev(z) {
            seed_entity(y1, &mut dirty_instances);
        }
    }

    // Relations whose pair lists changed, in both directions — plus, for a
    // touched entity on either side, the relations around it and around
    // its cross-KB candidates (their Eq. 12 numerators walk the touched
    // adjacency).
    let mut dirty_rel1: FxHashSet<RelationId> = FxHashSet::default();
    let mut dirty_rel2: FxHashSet<RelationId> = FxHashSet::default();
    for &r in &seeds.relations1 {
        dirty_rel1.insert(r);
        dirty_rel1.insert(r.inverse());
    }
    for &r in &seeds.relations2 {
        dirty_rel2.insert(r);
        dirty_rel2.insert(r.inverse());
    }
    // A relation's Eq. 12 row also walks the *destination* KB's adjacency
    // around its pairs' candidates, so a touched entity dirties the
    // opposite side's relations around its cross-KB candidates — again
    // proportionally (see `dirty_by_ratio`). Its own side's relations are
    // dirty only if their pair lists changed (exactly `seeds.relations*`)
    // or once candidate rows move, which the in-loop extension covers.
    let cross2 = seeds
        .entities1
        .iter()
        .flat_map(|&e| equiv.candidates(e).iter().chain(bridge.candidates(e)))
        .map(|&(z, _)| (z, 1.0));
    dirty_by_ratio(kb2, cross2, options.relation_epsilon, &mut dirty_rel2);
    let cross1 = seeds
        .entities2
        .iter()
        .flat_map(|&z| {
            equiv
                .candidates_rev(z)
                .iter()
                .chain(bridge.candidates_rev(z))
        })
        .map(|&(y1, _)| (y1, 1.0));
    dirty_by_ratio(kb1, cross1, options.relation_epsilon, &mut dirty_rel1);

    let mut report = IncrementalReport {
        seeded_instances: dirty_instances.len(),
        total_instances: kb1.instances().count(),
        ..IncrementalReport::default()
    };

    // ---- the warm fixpoint loop ----------------------------------------
    // The maximal assignment, the assigned-instance count and the
    // candidate views over it are carried across iterations and
    // re-derived only at the rows that moved. The reverse view (for the
    // KB-2 sub-relation direction) is built whole, O(KB-2), once: in the
    // first iteration that rescores a KB-2 relation; it is kept current
    // from then on. Every other iteration is O(dirty), not O(KB).
    let mut iterations: Vec<IterationStats> = Vec::new();
    let mut assignment = Assignment::of(&equiv);
    let mut cand = assignment.view(PairSide::Kb1, &equiv, &bridge, config, informed);
    let mut cand_rev: Option<CandidateView> = None;
    let mut assigned = assignment.assigned();
    let mut settled = false;
    for iteration in 1..=config.max_iterations {
        if dirty_instances.is_empty() && dirty_rel1.is_empty() && dirty_rel2.is_empty() {
            break;
        }

        // Instance pass over the dirty set only.
        let t0 = paris_obs::span::now_ns();
        let mut subset: Vec<EntityId> = dirty_instances.iter().copied().collect();
        subset.sort_unstable();
        let partial = instance_pass_subset(kb1, kb2, &subset, &cand, &subrel, config);
        report.rescored_rows += partial.len();

        // Keep only materially changed rows: a sub-epsilon move keeps the
        // stored score (the error is bounded by `instance_epsilon`), and
        // a change-free pass then leaves the store, the assignment and
        // the views untouched. Each change is remembered with its
        // magnitude — the relation-dirtying bound below weighs by it.
        let mut changed_rows: Vec<(EntityId, Vec<(EntityId, f64)>)> = Vec::new();
        let mut deltas1: Vec<(EntityId, f64)> = Vec::new();
        let mut changed2: paris_kb::FxHashMap<EntityId, f64> = paris_kb::FxHashMap::default();
        for (x, row) in partial {
            let old = equiv.candidates(x);
            let delta = row_delta(old, &row);
            if delta >= options.instance_epsilon {
                for &(z, _) in old.iter().chain(&row) {
                    let w = changed2.entry(z).or_insert(0.0);
                    *w = w.max(delta);
                }
                deltas1.push((x, delta));
                changed_rows.push((x, row));
            }
        }
        let changed1: Vec<EntityId> = changed_rows.iter().map(|&(x, _)| x).collect();
        equiv.replace_rows(changed_rows);
        let (changed, moved) = assignment.refresh(&equiv, &changed1, changed2.keys().copied());
        assigned = assigned.saturating_add_signed(moved);
        for &x in &changed1 {
            let row = assignment.view_row(PairSide::Kb1, x, &equiv, &bridge, config);
            cand.set_row(x, row);
        }
        if let Some(cand_rev) = &mut cand_rev {
            for &z in changed2.keys() {
                let row = assignment.view_row(PairSide::Kb2, z, &equiv, &bridge, config);
                cand_rev.set_row(z, row);
            }
        }
        let instance_seconds = paris_obs::span::seconds_since(t0);

        // Sub-relation passes over the dirty relations only, with the
        // fresh equalities — mirroring the full loop's ordering. Changed
        // candidate rows dirty the relations incident to them first —
        // *proportionally*: Eq. 12 averages over a relation's pairs, so
        // endpoints whose rows moved by Σδ can shift the score by at most
        // ~Σδ / #pairs; below `relation_epsilon` the rescoring could not
        // produce a material change and is skipped.
        let t1 = paris_obs::span::now_ns();
        dirty_by_ratio(
            kb1,
            deltas1.iter().copied(),
            options.relation_epsilon,
            &mut dirty_rel1,
        );
        dirty_by_ratio(
            kb2,
            changed2.iter().map(|(&z, &w)| (z, w)),
            options.relation_epsilon,
            &mut dirty_rel2,
        );
        let mut changed_rel1: Vec<RelationId> = Vec::new();
        let mut changed_rel2: Vec<RelationId> = Vec::new();
        for &r in &dirty_rel1 {
            let row = score_relation(kb1, kb2, &cand, config, r);
            if !rows_close(subrel.row_1to2(r), &row, options.relation_epsilon) {
                changed_rel1.push(r);
            }
            subrel.set_row_1to2(r, row);
        }
        if !dirty_rel2.is_empty() {
            let cand_rev = cand_rev.get_or_insert_with(|| {
                assignment.view(PairSide::Kb2, &equiv, &bridge, config, informed)
            });
            for &r2 in &dirty_rel2 {
                let row = score_relation(kb2, kb1, cand_rev, config, r2);
                if !rows_close(subrel.row_2to1(r2), &row, options.relation_epsilon) {
                    changed_rel2.push(r2);
                }
                subrel.set_row_2to1(r2, row);
            }
        }
        report.rescored_relation_rows += dirty_rel1.len() + dirty_rel2.len();
        let subrelation_seconds = paris_obs::span::seconds_since(t1);

        let stats = IterationStats {
            iteration,
            changed,
            changed_fraction: changed as f64 / assigned.max(1) as f64,
            instance_equivalences: equiv.num_pairs(),
            assigned_instances: assigned,
            subrelation_entries: subrel.num_entries(),
            instance_seconds,
            subrelation_seconds,
        };
        // The full loop's convergence criterion, applicable from the very
        // first iteration here because the warm start is already informed:
        // stop once the maximal assignment is stable and no relation row
        // moved materially. (A converged snapshot's scores are one iterate
        // short of an *exact* fixpoint — the full run stops on assignment
        // stability too — so sub-threshold drift must not keep the dirty
        // set alive.)
        settled = stats.changed_fraction < config.convergence_change
            && changed_rel1.is_empty()
            && changed_rel2.is_empty();
        iterations.push(stats);
        if settled {
            break;
        }

        // ---- next iteration's dirty sets --------------------------------
        // Materially changed instance rows dirty their KB-1 neighbours;
        // materially changed relation rows dirty the instances whose
        // Eq. 13 products consume them (their pairs' endpoints, and the
        // KB-1 entities candidate-linked to a changed KB-2 relation's
        // endpoints).
        dirty_instances.clear();
        dirty_rel1.clear();
        dirty_rel2.clear();
        for &e in &changed1 {
            for &(_, y) in kb1.facts(e) {
                if kb1.kind(y) == EntityKind::Instance {
                    dirty_instances.insert(y);
                }
            }
        }
        for &r in &changed_rel1 {
            for (x, y) in kb1.pairs(r).take(config.max_pairs) {
                if kb1.kind(x) == EntityKind::Instance {
                    dirty_instances.insert(x);
                }
                if kb1.kind(y) == EntityKind::Instance {
                    dirty_instances.insert(y);
                }
            }
        }
        for &r2 in &changed_rel2 {
            for (x2, y2) in kb2.pairs(r2).take(config.max_pairs) {
                for z in [x2, y2] {
                    for &(y1, _) in equiv
                        .candidates_rev(z)
                        .iter()
                        .chain(bridge.candidates_rev(z))
                    {
                        seed_entity(y1, &mut dirty_instances);
                    }
                }
            }
        }
    }

    // Converged: the last iteration settled or left nothing dirty.
    let converged =
        settled || (dirty_instances.is_empty() && dirty_rel1.is_empty() && dirty_rel2.is_empty());

    // ---- final class pass (same as the full loop's last step) -----------
    let t2 = paris_obs::span::now_ns();
    let classes = subclass_pass(kb1, kb2, &assignment, config);
    let class_seconds = paris_obs::span::seconds_since(t2);

    IncrementalRun {
        result: AlignmentResult {
            kb1,
            kb2,
            instances: equiv,
            subrelations: subrel,
            classes,
            iterations,
            literal_pairs,
            class_seconds,
            converged,
            config: config.clone(),
        },
        report,
    }
}

/// True when two sorted candidate rows have the same keys and every
/// probability moved by less than `epsilon`.
fn rows_close<K: Copy + Eq>(a: &[(K, f64)], b: &[(K, f64)], epsilon: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(ka, pa), &(kb, pb))| ka == kb && (pa - pb).abs() < epsilon)
}

/// Marks the relations around the given weighted endpoints dirty — but
/// only when the accumulated weight could move the relation's Eq. 12
/// score materially. The score averages over the relation's pairs, so
/// endpoints whose candidate rows moved by `δ` each shift it by at most
/// `~Σδ / #pairs`; relations with `Σδ / #pairs < epsilon` are skipped
/// (their rescoring could not clear the material-change threshold
/// anyway). Adjacency-level changes carry full weight `1.0`.
fn dirty_by_ratio(
    kb: &Kb,
    endpoints: impl Iterator<Item = (EntityId, f64)>,
    epsilon: f64,
    dirty: &mut paris_kb::FxHashSet<RelationId>,
) {
    let mut weights: paris_kb::FxHashMap<RelationId, f64> = paris_kb::FxHashMap::default();
    for (e, w) in endpoints {
        for &(r, _) in kb.facts(e) {
            *weights
                .entry(if r.is_inverse() { r.inverse() } else { r })
                .or_insert(0.0) += w;
        }
    }
    for (r, w) in weights {
        if w >= epsilon * kb.num_pairs(r) as f64 {
            dirty.insert(r);
            dirty.insert(r.inverse());
        }
    }
}

/// Largest per-candidate probability move between two sorted rows (a
/// candidate present on only one side contributes its full probability).
fn row_delta(a: &[(EntityId, f64)], b: &[(EntityId, f64)]) -> f64 {
    let (mut i, mut j, mut delta) = (0usize, 0usize, 0.0f64);
    loop {
        match (a.get(i), b.get(j)) {
            (Some(&(ea, pa)), Some(&(eb, pb))) => {
                if ea == eb {
                    delta = delta.max((pa - pb).abs());
                    i += 1;
                    j += 1;
                } else if ea < eb {
                    delta = delta.max(pa);
                    i += 1;
                } else {
                    delta = delta.max(pb);
                    j += 1;
                }
            }
            (Some(&(_, pa)), None) => {
                delta = delta.max(pa);
                i += 1;
            }
            (None, Some(&(_, pb))) => {
                delta = delta.max(pb);
                j += 1;
            }
            (None, None) => return delta,
        }
    }
}

/// Report of one [`update_snapshot`] call.
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Facts actually added / removed on the KB-1 side.
    pub added1: usize,
    /// Facts actually removed on the KB-1 side.
    pub removed1: usize,
    /// Facts actually added on the KB-2 side.
    pub added2: usize,
    /// Facts actually removed on the KB-2 side.
    pub removed2: usize,
    /// Fixpoint iterations the warm restart needed.
    pub iterations: usize,
    /// Whether the warm fixpoint settled before the iteration cap.
    pub converged: bool,
    /// Work accounting of the incremental run.
    pub incremental: IncrementalReport,
}

/// Applies deltas to either side of a loaded aligned-pair snapshot,
/// re-aligns incrementally, and returns the updated snapshot (ready to
/// [`save_v2`](crate::view::MappedPairSnapshot::save_v2) and hot-reload
/// into a server).
///
/// Functionality refresh of touched relations uses the paper's default
/// harmonic-mean definition. KBs built with another Appendix-A variant
/// (the ablation path via
/// [`Kb::set_functionality_variant`](paris_kb::Kb::set_functionality_variant))
/// are not supported here — apply the delta with
/// [`apply_owned_with_functionality`](paris_kb::delta::apply_owned_with_functionality)
/// and call [`realign_incremental`] directly instead; the snapshot format
/// does not record which variant produced the stored values.
pub fn update_snapshot(
    snapshot: AlignedPairSnapshot,
    delta1: Option<&KbDelta>,
    delta2: Option<&KbDelta>,
    config: &ParisConfig,
    options: &IncrementalOptions,
) -> Result<(AlignedPairSnapshot, UpdateReport), DeltaError> {
    let AlignedPairSnapshot {
        kb1,
        kb2,
        alignment,
    } = snapshot;

    // The snapshot's KBs are owned, so deltas apply in place — no clone.
    let mut report = UpdateReport::default();
    let mut seeds = DirtySeeds::default();
    let kb1 = match delta1 {
        Some(d) => {
            let applied = apply_owned(kb1, d)?;
            report.added1 = applied.added;
            report.removed1 = applied.removed;
            seeds.entities1 = applied.touched_entities;
            seeds.relations1 = applied.touched_relations;
            applied.kb
        }
        None => kb1,
    };
    let kb2 = match delta2 {
        Some(d) => {
            let applied = apply_owned(kb2, d)?;
            report.added2 = applied.added;
            report.removed2 = applied.removed;
            seeds.entities2 = applied.touched_entities;
            seeds.resource_entities2 = applied.resource_touched;
            seeds.relations2 = applied.touched_relations;
            applied.kb
        }
        None => kb2,
    };

    let run = realign_incremental(&kb1, &kb2, &alignment, &seeds, config, options);
    report.iterations = run.result.iterations.len();
    report.converged = run.result.converged();
    report.incremental = run.report.clone();
    let owned = run.result.detach();
    drop(run);

    Ok((AlignedPairSnapshot::new(kb1, kb2, owned), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iteration::Aligner;
    use crate::view::MappedPairSnapshot;
    use paris_kb::delta::apply;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    /// A pair with aligned people, shared e-mails, and a friendship ring.
    fn ring_pair(n: usize) -> (Kb, Kb) {
        let mut a = KbBuilder::new("left");
        let mut b = KbBuilder::new("right");
        for i in 0..n {
            a.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/email",
                Literal::plain(format!("p{i}@x.org")),
            );
            a.add_fact(
                format!("http://a/p{i}"),
                "http://a/friend",
                format!("http://a/p{}", (i + 1) % n),
            );
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(format!("p{i}@x.org")),
            );
            b.add_fact(
                format!("http://b/q{i}"),
                "http://b/knows",
                format!("http://b/q{}", (i + 1) % n),
            );
        }
        (a.build(), b.build())
    }

    fn aligned_snapshot(kb1: Kb, kb2: Kb, config: &ParisConfig) -> AlignedPairSnapshot {
        let owned = {
            let result = Aligner::new(&kb1, &kb2, config.clone()).run();
            OwnedAlignment::from_result(&result)
        };
        AlignedPairSnapshot::new(kb1, kb2, owned)
    }

    /// Incremental re-alignment after a delta must agree with a full
    /// from-scratch run on the updated KBs.
    #[test]
    fn incremental_matches_full_realignment() {
        let config = ParisConfig::default().with_threads(1);
        let (kb1, kb2) = ring_pair(12);
        let snap = aligned_snapshot(kb1, kb2, &config);

        // A small delta on the left side: one new person (with matching
        // e-mail on the right via a right-side delta) and one removed
        // friendship edge.
        let mut d1 = KbDelta::new("left");
        d1.add_literal_fact(
            "http://a/p12",
            "http://a/email",
            Literal::plain("p12@x.org"),
        );
        d1.add_fact("http://a/p12", "http://a/friend", "http://a/p0");
        d1.remove_fact("http://a/p3", "http://a/friend", "http://a/p4");
        let mut d2 = KbDelta::new("right");
        d2.add_literal_fact("http://b/q12", "http://b/mail", Literal::plain("p12@x.org"));
        d2.add_fact("http://b/q12", "http://b/knows", "http://b/q0");

        let (updated, report) = update_snapshot(
            snap,
            Some(&d1),
            Some(&d2),
            &config,
            &IncrementalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.added1, 2);
        assert_eq!(report.removed1, 1);
        assert!(report.converged, "warm restart must settle: {report:?}");

        // Full from-scratch run on equivalent KBs.
        let (mut kb1_full, mut kb2_full) = ring_pair(12);
        let mut d1_full = KbDelta::new("left");
        d1_full.add_literal_fact(
            "http://a/p12",
            "http://a/email",
            Literal::plain("p12@x.org"),
        );
        d1_full.add_fact("http://a/p12", "http://a/friend", "http://a/p0");
        d1_full.remove_fact("http://a/p3", "http://a/friend", "http://a/p4");
        kb1_full = apply(&kb1_full, &d1_full).unwrap().kb;
        let mut d2_full = KbDelta::new("right");
        d2_full.add_literal_fact("http://b/q12", "http://b/mail", Literal::plain("p12@x.org"));
        d2_full.add_fact("http://b/q12", "http://b/knows", "http://b/q0");
        kb2_full = apply(&kb2_full, &d2_full).unwrap().kb;
        let full = Aligner::new(&kb1_full, &kb2_full, config.clone()).run();

        // Same maximal assignment, scores within tolerance.
        let incr_pairs = updated.alignment.instance_pairs(&updated.kb1);
        let full_pairs = full.instance_pairs();
        let full_map: std::collections::HashMap<EntityId, (EntityId, f64)> =
            full_pairs.iter().map(|&(x, x2, p)| (x, (x2, p))).collect();
        assert_eq!(incr_pairs.len(), full_pairs.len());
        for (x, x2, p) in incr_pairs {
            let &(fx2, fp) = full_map.get(&x).expect("instance aligned in full run");
            assert_eq!(x2, fx2, "assignment of {x:?} differs");
            assert!(
                (p - fp).abs() < 0.05,
                "score of {x:?}: incremental {p} vs full {fp}"
            );
        }
        // The new person is aligned.
        assert_eq!(
            updated
                .alignment
                .instance_alignment_by_iri(&updated.kb1, &updated.kb2, "http://a/p12")
                .unwrap()
                .as_str(),
            "http://b/q12"
        );
    }

    /// An empty delta is a fixed point: nothing is rescored, nothing moves.
    #[test]
    fn empty_delta_is_noop() {
        let config = ParisConfig::default().with_threads(1);
        let (kb1, kb2) = ring_pair(8);
        let snap = aligned_snapshot(kb1, kb2, &config);
        let before = snap.alignment.instance_pairs(&snap.kb1);
        let empty = KbDelta::new("left");
        let (updated, report) = update_snapshot(
            snap,
            Some(&empty),
            None,
            &config,
            &IncrementalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.incremental.seeded_instances, 0);
        assert_eq!(report.incremental.rescored_rows, 0);
        assert_eq!(report.iterations, 0);
        assert_eq!(updated.alignment.instance_pairs(&updated.kb1), before);
    }

    /// Removing the only evidence for a match must drop the alignment.
    #[test]
    fn removal_drops_the_alignment() {
        let config = ParisConfig::default().with_threads(1);
        let (kb1, kb2) = ring_pair(6);
        let snap = aligned_snapshot(kb1, kb2, &config);
        assert!(snap
            .alignment
            .instance_alignment_by_iri(&snap.kb1, &snap.kb2, "http://a/p2")
            .is_some());

        let mut d1 = KbDelta::new("left");
        d1.remove_literal_fact("http://a/p2", "http://a/email", Literal::plain("p2@x.org"));
        d1.remove_fact("http://a/p1", "http://a/friend", "http://a/p2");
        d1.remove_fact("http://a/p2", "http://a/friend", "http://a/p3");
        let (updated, _) = update_snapshot(
            snap,
            Some(&d1),
            None,
            &config,
            &IncrementalOptions::default(),
        )
        .unwrap();
        assert_eq!(
            updated
                .alignment
                .instance_alignment_by_iri(&updated.kb1, &updated.kb2, "http://a/p2"),
            None,
            "p2 lost every piece of evidence"
        );
    }

    /// The updated snapshot round-trips through the binary format.
    #[test]
    fn updated_snapshot_round_trips() {
        let config = ParisConfig::default().with_threads(1);
        let (kb1, kb2) = ring_pair(6);
        let snap = aligned_snapshot(kb1, kb2, &config);
        let mut d1 = KbDelta::new("left");
        d1.add_literal_fact("http://a/p6", "http://a/email", Literal::plain("p0@x.org"));
        let (updated, _) = update_snapshot(
            snap,
            Some(&d1),
            None,
            &config,
            &IncrementalOptions::default(),
        )
        .unwrap();
        let loaded = MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&updated))
            .unwrap()
            .hydrate();
        assert_eq!(
            loaded.alignment.instance_pairs(&loaded.kb1),
            updated.alignment.instance_pairs(&updated.kb1)
        );
    }
}
