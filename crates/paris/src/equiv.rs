//! Sparse storage of instance-equivalence probabilities.
//!
//! §5.2 of the paper: the model distinguishes *true* equivalences
//! (`Pr > 0`), *false* ones (`Pr = 0`), and *unknown* ones (never
//! computed) — and since every equation consumes probabilities through
//! `∏ (1 − P)`, unknown and false coincide, so zeros are simply not
//! stored. Each KB-1 entity holds a short sorted row of
//! `(KB-2 entity, probability)` candidates.

use paris_kb::{EntityId, FxHashMap};

use crate::config::ParisConfig;
use crate::image::PairSide;
use crate::literal_bridge::LiteralBridge;

/// One candidate row per source entity: `(target entity, probability)`
/// pairs, sorted by entity id. The common currency between the passes.
pub type CandidateRows = Vec<Vec<(EntityId, f64)>>;

/// A sparse `Pr(x ≡ x′)` matrix between the entities of two KBs.
#[derive(Clone, Debug, Default)]
pub struct EquivStore {
    /// Row per KB-1 entity: candidates in KB-2, sorted by entity id.
    forward: Vec<Vec<(EntityId, f64)>>,
    /// Row per KB-2 entity: candidates in KB-1, derived from `forward`.
    backward: Vec<Vec<(EntityId, f64)>>,
}

impl EquivStore {
    /// An empty store sized for `n1` KB-1 entities and `n2` KB-2 entities.
    pub fn new(n1: usize, n2: usize) -> Self {
        EquivStore {
            forward: vec![Vec::new(); n1],
            backward: vec![Vec::new(); n2],
        }
    }

    /// Builds a store from per-KB-1-entity rows, deriving the backward
    /// index. Rows need not be sorted; zero and sub-threshold entries
    /// should already have been dropped by the caller.
    pub fn from_rows(rows: Vec<Vec<(EntityId, f64)>>, n2: usize) -> Self {
        let mut forward = rows;
        let mut backward: Vec<Vec<(EntityId, f64)>> = vec![Vec::new(); n2];
        for (i, row) in forward.iter_mut().enumerate() {
            row.sort_unstable_by_key(|&(e, _)| e);
            let x1 = EntityId::from_index(i);
            for &(x2, p) in row.iter() {
                backward[x2.index()].push((x1, p));
            }
        }
        for row in &mut backward {
            row.sort_unstable_by_key(|&(e, _)| e);
        }
        EquivStore { forward, backward }
    }

    /// A copy of this store covering `n1 × n2` entities (entities beyond
    /// the old bounds start with no candidates). This is how the
    /// incremental re-aligner warm-starts from a snapshot's scores after a
    /// delta appended entities.
    pub fn expanded(&self, n1: usize, n2: usize) -> EquivStore {
        assert!(
            n1 >= self.forward.len() && n2 >= self.backward.len(),
            "expanded() cannot shrink a store ({}×{} → {n1}×{n2})",
            self.forward.len(),
            self.backward.len(),
        );
        let mut forward = self.forward.clone();
        forward.resize(n1, Vec::new());
        let mut backward = self.backward.clone();
        backward.resize(n2, Vec::new());
        EquivStore { forward, backward }
    }

    /// A copy of all forward rows (one per KB-1 entity), the format
    /// [`from_rows`](Self::from_rows) consumes.
    pub fn to_rows(&self) -> CandidateRows {
        self.forward.clone()
    }

    /// Replaces the rows of the given KB-1 entities in place, maintaining
    /// the backward index — O(changed rows × row length) instead of the
    /// full-store rebuild of [`from_rows`](Self::from_rows). Rows need
    /// not be sorted. This is what keeps an incremental re-alignment
    /// iteration at O(dirty) when only a handful of rows moved.
    pub fn replace_rows(
        &mut self,
        changes: impl IntoIterator<Item = (EntityId, Vec<(EntityId, f64)>)>,
    ) {
        for (x, mut row) in changes {
            row.sort_unstable_by_key(|&(e, _)| e);
            let old = std::mem::replace(&mut self.forward[x.index()], row);
            for (z, _) in old {
                let back = &mut self.backward[z.index()];
                if let Ok(pos) = back.binary_search_by_key(&x, |&(e, _)| e) {
                    back.remove(pos);
                }
            }
            for &(z, p) in &self.forward[x.index()] {
                let back = &mut self.backward[z.index()];
                match back.binary_search_by_key(&x, |&(e, _)| e) {
                    Ok(pos) => back[pos].1 = p,
                    Err(pos) => back.insert(pos, (x, p)),
                }
            }
        }
    }

    /// The number of KB-1 rows.
    pub fn len_kb1(&self) -> usize {
        self.forward.len()
    }

    /// The number of KB-2 rows.
    pub fn len_kb2(&self) -> usize {
        self.backward.len()
    }

    /// Candidates of a KB-1 entity, sorted by KB-2 entity id.
    #[inline]
    pub fn candidates(&self, x: EntityId) -> &[(EntityId, f64)] {
        &self.forward[x.index()]
    }

    /// Candidates of a KB-2 entity, sorted by KB-1 entity id.
    #[inline]
    pub fn candidates_rev(&self, x2: EntityId) -> &[(EntityId, f64)] {
        &self.backward[x2.index()]
    }

    /// `Pr(x ≡ x′)`, zero if unknown.
    pub fn prob(&self, x: EntityId, x2: EntityId) -> f64 {
        match self.forward[x.index()].binary_search_by_key(&x2, |&(e, _)| e) {
            Ok(i) => self.forward[x.index()][i].1,
            Err(_) => 0.0,
        }
    }

    /// Total number of stored (non-zero) equivalences.
    pub fn num_pairs(&self) -> usize {
        self.forward.iter().map(Vec::len).sum()
    }

    /// The maximal assignment (§4.2): for each KB-1 entity, the KB-2
    /// candidate with the maximum score, by [`argmax`].
    pub fn maximal_assignment(&self) -> Vec<Option<(EntityId, f64)>> {
        best_per_row(&self.forward)
    }
}

fn best_per_row(rows: &[Vec<(EntityId, f64)>]) -> Vec<Option<(EntityId, f64)>> {
    rows.iter().map(|row| argmax(row.iter().copied())).collect()
}

/// The workspace's one tie rule: a row's highest probability, its earliest
/// (smallest-id) entry on a tie; a NaN is never the maximum.
#[inline]
pub fn argmax(row: impl IntoIterator<Item = (EntityId, f64)>) -> Option<(EntityId, f64)> {
    let mut best: Option<(EntityId, f64)> = None;
    for (e, p) in row {
        match best {
            Some((_, bp)) if p <= bp => {}
            _ if p.is_nan() => {}
            _ => best = Some((e, p)),
        }
    }
    best
}

/// The maximal assignment of an [`EquivStore`], both directions: what the
/// fixpoint iterates on "until the entity pairs under the maximal
/// assignments change no more" (§5.1), and the equalities §5.2 propagates.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// Per KB-1 entity: its best KB-2 candidate.
    pub fwd: Vec<Option<(EntityId, f64)>>,
    /// Per KB-2 entity: its best KB-1 candidate.
    pub rev: Vec<Option<(EntityId, f64)>>,
}

impl Assignment {
    /// The maximal assignment of `store`, both directions.
    pub fn of(store: &EquivStore) -> Assignment {
        Assignment {
            fwd: best_per_row(&store.forward),
            rev: best_per_row(&store.backward),
        }
    }

    /// KB-1 entities whose target differs from `prev`'s (assigned in only
    /// one counts) — the paper's convergence measure.
    pub fn changes(&self, prev: &Assignment) -> usize {
        self.fwd
            .iter()
            .zip(&prev.fwd)
            .filter(|(a, b)| a.map(|a| a.0) != b.map(|b| b.0))
            .count()
    }

    /// The number of assigned KB-1 entities.
    pub fn assigned(&self) -> usize {
        self.fwd.iter().flatten().count()
    }

    /// The sum of the KB-1 → KB-2 assignment scores.
    pub fn score_sum(&self) -> f64 {
        self.fwd.iter().flatten().map(|&(_, p)| p).sum()
    }

    /// Re-derives the KB-1 rows `xs` and KB-2 rows `zs` that
    /// [`EquivStore::replace_rows`] moved; returns how many `xs` changed
    /// target and the change in [`assigned`](Self::assigned).
    pub fn refresh(
        &mut self,
        store: &EquivStore,
        xs: &[EntityId],
        zs: impl IntoIterator<Item = EntityId>,
    ) -> (usize, isize) {
        let (mut changed, mut assigned) = (0, 0);
        for &x in xs {
            let best = argmax(store.candidates(x).iter().copied());
            let old = std::mem::replace(&mut self.fwd[x.index()], best);
            changed += usize::from(best.map(|b| b.0) != old.map(|b| b.0));
            assigned += best.is_some() as isize - old.is_some() as isize;
        }
        for z in zs {
            self.rev[z.index()] = argmax(store.candidates_rev(z).iter().copied());
        }
        (changed, assigned)
    }

    /// The candidate view keyed by `side`'s entities: the previous
    /// instance equalities (this assignment unless
    /// `propagate_all_equalities`, §5.2) merged with the literal bridge.
    pub(crate) fn view(
        &self,
        side: PairSide,
        equiv: &EquivStore,
        bridge: &LiteralBridge,
        config: &ParisConfig,
        informed: bool,
    ) -> CandidateView {
        let n = match side {
            PairSide::Kb1 => self.fwd.len(),
            PairSide::Kb2 => self.rev.len(),
        };
        let rows = (0..n)
            .map(|i| self.view_row(side, EntityId::from_index(i), equiv, bridge, config))
            .collect();
        CandidateView { rows, informed }
    }

    /// One row of [`view`](Self::view): a literal's bridge candidates when
    /// it has any (only literals do), else the stored or assigned ones.
    pub(crate) fn view_row(
        &self,
        side: PairSide,
        e: EntityId,
        equiv: &EquivStore,
        bridge: &LiteralBridge,
        config: &ParisConfig,
    ) -> Vec<(EntityId, f64)> {
        let i = e.index();
        let (stored, literal, best) = match side {
            PairSide::Kb1 => (equiv.candidates(e), bridge.candidates(e), self.fwd[i]),
            PairSide::Kb2 => (
                equiv.candidates_rev(e),
                bridge.candidates_rev(e),
                self.rev[i],
            ),
        };
        if !literal.is_empty() {
            literal.to_vec()
        } else if config.propagate_all_equalities {
            stored.to_vec()
        } else {
            best.into_iter().collect()
        }
    }
}

/// A per-pass, read-only view of "which KB-2 entities may `y` equal, with
/// what probability" — the previous iteration's equalities (§5.2: "our
/// algorithm considers only the equalities of the previous maximal
/// assignment"), merged with the clamped literal equivalences.
#[derive(Clone, Debug, Default)]
pub struct CandidateView {
    rows: Vec<Vec<(EntityId, f64)>>,
    informed: bool,
}

impl CandidateView {
    /// Builds the view for one direction.
    ///
    /// The rows combine the previous iteration's [`EquivStore`] (already
    /// reduced to the maximal assignment unless
    /// `propagate_all_equalities` is set) with the clamped literal bridge
    /// (never reduced: a literal may legitimately equal several literals
    /// on the other side). A view built this way is *informed*: its
    /// probabilities reflect computed sub-relation scores.
    pub fn new(rows: Vec<Vec<(EntityId, f64)>>) -> Self {
        CandidateView {
            rows,
            informed: true,
        }
    }

    /// A view whose instance probabilities are still θ-scaled (they come
    /// from the bootstrap iteration). Negative evidence (Eq. 14) must not
    /// consume such probabilities: `1 − Pr` would read a correctly
    /// matched neighbour as ~80 % *mismatched* and destroy every
    /// candidate.
    pub fn uninformed(rows: Vec<Vec<(EntityId, f64)>>) -> Self {
        CandidateView {
            rows,
            informed: false,
        }
    }

    /// Whether the instance probabilities in this view were computed with
    /// informed (non-bootstrap) sub-relation scores.
    pub fn is_informed(&self) -> bool {
        self.informed
    }

    /// An empty view over `n` entities.
    pub fn empty(n: usize) -> Self {
        CandidateView {
            rows: vec![Vec::new(); n],
            informed: false,
        }
    }

    /// Candidates of entity `y`.
    #[inline]
    pub fn candidates(&self, y: EntityId) -> &[(EntityId, f64)] {
        &self.rows[y.index()]
    }

    /// Replaces the candidates of entity `y`.
    pub(crate) fn set_row(&mut self, y: EntityId, row: Vec<(EntityId, f64)>) {
        self.rows[y.index()] = row;
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the view covers no entities.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Probability lookup by a linear scan of `y`'s row (0 when `y2` is
    /// not a candidate).
    pub fn prob(&self, y: EntityId, y2: EntityId) -> f64 {
        self.rows[y.index()]
            .iter()
            .find(|&&(e, _)| e == y2)
            .map_or(0.0, |&(_, p)| p)
    }

    /// Builds a hash-map snapshot of one row (used by the sub-relation
    /// pass, which probes the same row many times).
    pub fn row_map(&self, y: EntityId) -> FxHashMap<EntityId, f64> {
        self.rows[y.index()].iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EntityId {
        EntityId::from_index(i)
    }

    #[test]
    fn from_rows_builds_backward_index() {
        let rows = vec![vec![(e(1), 0.9), (e(0), 0.3)], vec![], vec![(e(1), 0.5)]];
        let s = EquivStore::from_rows(rows, 2);
        assert_eq!(s.prob(e(0), e(1)), 0.9);
        assert_eq!(s.prob(e(0), e(0)), 0.3);
        assert_eq!(s.prob(e(1), e(0)), 0.0);
        assert_eq!(s.candidates_rev(e(1)), &[(e(0), 0.9), (e(2), 0.5)]);
        assert_eq!(s.num_pairs(), 3);
    }

    #[test]
    fn maximal_assignment_picks_best() {
        let rows = vec![vec![(e(0), 0.3), (e(1), 0.9)], vec![(e(0), 0.2)], vec![]];
        let s = EquivStore::from_rows(rows, 2);
        let m = s.maximal_assignment();
        assert_eq!(m[0], Some((e(1), 0.9)));
        assert_eq!(m[1], Some((e(0), 0.2)));
        assert_eq!(m[2], None);
    }

    #[test]
    fn ties_break_to_smallest_id() {
        let rows = vec![vec![(e(0), 0.5), (e(1), 0.5)]];
        let s = EquivStore::from_rows(rows, 2);
        assert_eq!(s.maximal_assignment()[0], Some((e(0), 0.5)));
    }

    #[test]
    fn argmax_skips_nan_and_keeps_the_first_of_a_tie() {
        assert_eq!(argmax([(e(0), f64::NAN), (e(2), 0.5)]), Some((e(2), 0.5)));
        assert_eq!(argmax([(e(0), 0.5), (e(2), f64::NAN)]), Some((e(0), 0.5)));
        assert_eq!(argmax([(e(1), f64::NAN)]), None);
        assert_eq!(argmax([(e(1), 0.5), (e(3), 0.5)]), Some((e(1), 0.5)));
        assert_eq!(argmax([]), None);
    }

    #[test]
    fn changes_count_target_diffs() {
        let a = EquivStore::from_rows(vec![vec![(e(0), 0.9)], vec![(e(1), 0.8)], vec![]], 2);
        let b = EquivStore::from_rows(vec![vec![(e(1), 0.9)], vec![(e(1), 0.3)], vec![]], 2);
        let (a, b) = (Assignment::of(&a), Assignment::of(&b));
        // row 0 changed target, row 1 same target (different score), row 2 same (none)
        assert_eq!(a.changes(&b), 1);
        assert_eq!(a.changes(&a), 0);
        assert_eq!(a.assigned(), 2);
        assert!((a.score_sum() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn changes_count_appearing_and_disappearing() {
        let a = EquivStore::from_rows(vec![vec![(e(0), 0.9)], vec![]], 1);
        let b = EquivStore::from_rows(vec![vec![], vec![(e(0), 0.9)]], 1);
        assert_eq!(Assignment::of(&a).changes(&Assignment::of(&b)), 2);
    }

    #[test]
    fn reverse_maximal_assignment() {
        let rows = vec![vec![(e(0), 0.9)], vec![(e(0), 0.95)]];
        let s = EquivStore::from_rows(rows, 1);
        assert_eq!(Assignment::of(&s).rev[0], Some((e(1), 0.95)));
    }

    #[test]
    fn refresh_matches_a_fresh_assignment() {
        let rows = vec![
            vec![(e(1), 0.9), (e(0), 0.3)],
            vec![],
            vec![(e(1), 0.5)],
            vec![(e(0), 0.4)],
        ];
        let mut s = EquivStore::from_rows(rows, 3);
        let mut a = Assignment::of(&s);
        // Retarget one row, fill an empty one, leave one with only a NaN
        // entry (stored, but not assigned), and clear one.
        let changes = vec![
            (e(0), vec![(e(2), 0.95)]),
            (e(1), vec![(e(1), 0.6)]),
            (e(2), vec![(e(0), f64::NAN)]),
            (e(3), vec![]),
        ];
        let touched: Vec<EntityId> = changes
            .iter()
            .flat_map(|(x, row)| s.candidates(*x).iter().chain(row).map(|&(z, _)| z))
            .collect();
        let xs: Vec<EntityId> = changes.iter().map(|&(x, _)| x).collect();
        s.replace_rows(changes);
        let before = a.assigned();
        let moved = a.refresh(&s, &xs, touched);
        let fresh = Assignment::of(&s);
        assert_eq!(moved, (4, -1));
        assert_eq!(before - 1, fresh.assigned());
        assert_eq!((a.fwd, a.rev), (fresh.fwd, fresh.rev));
    }

    /// The update driver's upkeep: after `refresh`, re-deriving the view
    /// rows of the changed KB-1 rows and of the KB-2 rows they touched
    /// gives both views exactly as a rebuild from a fresh assignment.
    #[test]
    fn views_kept_at_changed_rows_match_a_full_rebuild() {
        use paris_kb::KbBuilder;
        use paris_rdf::Literal;
        let (mut b1, mut b2) = (KbBuilder::new("a"), KbBuilder::new("b"));
        for i in 0..4 {
            let name = Literal::plain(format!("n{}", i % 2));
            b1.add_literal_fact(format!("http://a/s{i}"), "http://a/name", name.clone());
            b2.add_literal_fact(format!("http://b/s{i}"), "http://b/name", name);
        }
        let (kb1, kb2) = (b1.build(), b2.build());
        let bridge = LiteralBridge::build(&kb1, &kb2, &ParisConfig::default().literal_similarity);
        let s1 = |i: usize| kb1.entity_by_iri(&format!("http://a/s{i}")).unwrap();
        let s2 = |i: usize| kb2.entity_by_iri(&format!("http://b/s{i}")).unwrap();
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..4 {
            rows[s1(i).index()] = vec![(s2(i), 0.8), (s2(3 - i), 0.4)];
        }
        let changes = vec![
            (s1(0), vec![(s2(3), 0.9)]),
            (s1(1), vec![]),
            (s1(2), vec![(s2(2), 0.8), (s2(1), 0.8)]),
        ];
        for propagate_all_equalities in [false, true] {
            let config = ParisConfig {
                propagate_all_equalities,
                ..ParisConfig::default()
            };
            let mut s = EquivStore::from_rows(rows.clone(), kb2.num_entities());
            let mut a = Assignment::of(&s);
            let mut views = [PairSide::Kb1, PairSide::Kb2]
                .map(|side| (side, a.view(side, &s, &bridge, &config, true)));
            let xs: Vec<EntityId> = changes.iter().map(|&(x, _)| x).collect();
            let zs: Vec<EntityId> = changes
                .iter()
                .flat_map(|(x, row)| s.candidates(*x).iter().chain(row).map(|&(z, _)| z))
                .collect();
            s.replace_rows(changes.clone());
            a.refresh(&s, &xs, zs.iter().copied());
            for (side, view) in &mut views {
                let kept = if *side == PairSide::Kb1 { &xs } else { &zs };
                for &e in kept {
                    view.set_row(e, a.view_row(*side, e, &s, &bridge, &config));
                }
                let full = Assignment::of(&s).view(*side, &s, &bridge, &config, true);
                for i in 0..full.len() {
                    let e = EntityId::from_index(i);
                    assert_eq!(view.candidates(e), full.candidates(e), "{side:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn replace_rows_matches_full_rebuild() {
        let rows = vec![vec![(e(1), 0.9), (e(0), 0.3)], vec![], vec![(e(1), 0.5)]];
        let mut s = EquivStore::from_rows(rows, 3);
        // Replace one row (dropping a candidate, adding one, rescoring
        // one), clear another, and fill a previously empty one.
        let changes = vec![
            (e(0), vec![(e(2), 0.7), (e(1), 0.4)]),
            (e(1), vec![(e(0), 0.2)]),
            (e(2), vec![]),
        ];
        s.replace_rows(changes.clone());

        let mut rebuilt_rows = vec![vec![(e(1), 0.9), (e(0), 0.3)], vec![], vec![(e(1), 0.5)]];
        for (x, row) in changes {
            rebuilt_rows[x.index()] = row;
        }
        let rebuilt = EquivStore::from_rows(rebuilt_rows, 3);
        for i in 0..3 {
            assert_eq!(s.candidates(e(i)), rebuilt.candidates(e(i)), "fwd {i}");
            assert_eq!(
                s.candidates_rev(e(i)),
                rebuilt.candidates_rev(e(i)),
                "bwd {i}"
            );
        }
        assert_eq!(s.num_pairs(), rebuilt.num_pairs());
    }

    #[test]
    fn candidate_view_lookups() {
        let v = CandidateView::new(vec![vec![(e(3), 0.7)], vec![]]);
        assert_eq!(v.candidates(e(0)), &[(e(3), 0.7)]);
        assert_eq!(v.prob(e(0), e(3)), 0.7);
        assert_eq!(v.prob(e(0), e(2)), 0.0);
        assert_eq!(v.prob(e(1), e(3)), 0.0);
        assert_eq!(v.row_map(e(0)).len(), 1);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }
}
