//! Edit-distance primitives.
//!
//! §5.3: "The probability that two strings are equal can be inverse
//! proportional to their edit distance." We provide one Levenshtein
//! dynamic program, bounded by a maximum distance `k` (Ukkonen 1985): it
//! strips the shared prefix and suffix, gives up at once when the lengths
//! differ by more than `k`, fills only the cells at most `k` off the
//! diagonal of one reused row (O(min(n, m)) memory, O(k·min(n, m)) time)
//! and stops as soon as a whole row exceeds `k`. The unbounded distance is
//! the case `k = max(n, m)`; the clamped similarity builds its threshold
//! into `k`.

/// Levenshtein distance between two strings, by Unicode scalar values.
///
/// Strings are compared by `char`, so multi-byte characters count as
/// single edits.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let max_len = a.len().max(b.len());
    // The distance never exceeds the longer length, so the bound never bites.
    bounded_levenshtein(&a, &b, max_len).unwrap_or(max_len)
}

/// Similarity in `[0, 1]`: `1 − lev(a, b) / max(|a|, |b|)`.
///
/// Empty-vs-empty is 1 (identical); empty-vs-nonempty is 0.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// The clamped edit-distance probability of two pre-normalized strings:
/// `1 − lev(a, b) / max(|a|, |b|)` when that is at least `min_similarity`,
/// else 0 (empty-vs-empty has similarity 1).
///
/// Bit-identical to thresholding [`levenshtein_similarity`], but the
/// threshold bounds the dynamic program: pairs that cannot reach it are
/// rejected on their lengths or after the first row that exceeds the
/// largest admissible distance.
pub fn levenshtein_similarity_at_least(a: &[char], b: &[char], min_similarity: f64) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return if 1.0 >= min_similarity { 1.0 } else { 0.0 };
    }
    let similarity = |d: usize| 1.0 - d as f64 / max_len as f64;
    // Even d = 0 fails an unreachable (or NaN) threshold.
    if min_similarity.is_nan() || min_similarity > 1.0 {
        return 0.0;
    }
    // k = the largest d with similarity(d) ≥ min_similarity, evaluated with
    // the very expression returned below (it is monotone in d). Start from
    // the real-valued bound and correct for its rounding.
    let guess = ((1.0 - min_similarity) * max_len as f64).floor();
    let mut k = if guess >= max_len as f64 {
        max_len
    } else if guess > 0.0 {
        guess as usize
    } else {
        0
    };
    while k < max_len && similarity(k + 1) >= min_similarity {
        k += 1;
    }
    while k > 0 && similarity(k) < min_similarity {
        k -= 1;
    }
    bounded_levenshtein(a, b, k).map_or(0.0, similarity)
}

/// `Some(lev(a, b))` if it is at most `k`, else `None`.
fn bounded_levenshtein(a: &[char], b: &[char], k: usize) -> Option<usize> {
    // A shared prefix or suffix never changes the distance.
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);

    // Rows run over the longer string, columns over the shorter.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (short.len(), long.len());
    if m - n > k {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    // row[j] = lev(long[..i], short[..j]) capped at k + 1. Only the cells
    // with |i − j| ≤ k are computed; those outside the band are ≥ k + 1
    // and read as k + 1 (the initial value beyond column k).
    let over = k + 1;
    let mut row: Vec<usize> = (0..=n).map(|j| j.min(over)).collect();
    for (i, &lc) in (1usize..).zip(long) {
        let lo = i.saturating_sub(k);
        let hi = n.min(i + k);
        // Column 0 is in the band only while i ≤ k; past it, the cell left
        // of the band reads as k + 1.
        let (start, mut diag, mut left) = if lo == 0 {
            let diag = row[0];
            row[0] = i;
            (1, diag, i)
        } else {
            (lo, row[lo - 1], over)
        };
        let mut row_min = left;
        for j in start..=hi {
            let up = row[j];
            let cell = (diag + usize::from(lc != short[j - 1]))
                .min(up + 1)
                .min(left + 1)
                .min(over);
            diag = up;
            row[j] = cell;
            left = cell;
            row_min = row_min.min(cell);
        }
        // Every later cell descends from this row: none can come back.
        if row_min > k {
            return None;
        }
    }
    Some(row[n]).filter(|&d| d <= k)
}

/// Jaccard similarity of the two token multisets (as sets).
pub fn token_jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::BTreeSet<&str> = a.iter().map(String::as_str).collect();
    let sb: std::collections::BTreeSet<&str> = b.iter().map(String::as_str).collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic unbounded two-row dynamic program: the oracle the
    /// bounded one is checked against.
    fn full_dp(a: &[char], b: &[char]) -> usize {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut current = vec![0usize; short.len() + 1];
        for (i, &lc) in long.iter().enumerate() {
            current[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let substitution = prev[j] + usize::from(lc != sc);
                current[j + 1] = substitution.min(prev[j + 1] + 1).min(current[j] + 1);
            }
            std::mem::swap(&mut prev, &mut current);
        }
        prev[short.len()]
    }

    /// The oracle's clamped similarity: full DP, then the threshold.
    fn oracle_similarity(a: &[char], b: &[char], min_similarity: f64) -> f64 {
        let max_len = a.len().max(b.len());
        let sim = if max_len == 0 {
            1.0
        } else {
            1.0 - full_dp(a, b) as f64 / max_len as f64
        };
        if sim >= min_similarity {
            sim
        } else {
            0.0
        }
    }

    /// SplitMix64: a seeded generator for the property test.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const THRESHOLDS: [f64; 5] = [0.0, 0.5, 0.8, 0.9, 1.0];

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn assert_matches_oracle(a: &[char], b: &[char]) {
        for min in THRESHOLDS {
            let got = levenshtein_similarity_at_least(a, b, min);
            let want = oracle_similarity(a, b, min);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{a:?} / {b:?} at {min}: banded {got}, full {want}"
            );
        }
    }

    #[test]
    fn banded_matches_full_dp_on_random_strings() {
        // A small alphabet makes near-duplicates (and so every band width)
        // common; the multi-byte chars check that lengths count scalars.
        const ALPHABET: [char; 6] = ['a', 'b', 'c', 'é', '日', '1'];
        let mut rng = SplitMix(0x5EED_0001);
        let random_string = |rng: &mut SplitMix| -> Vec<char> {
            let len = rng.below(25);
            (0..len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                .collect()
        };
        for _ in 0..4000 {
            let a = random_string(&mut rng);
            // Half the pairs are a few random edits apart.
            let b = if rng.below(2) == 0 {
                random_string(&mut rng)
            } else {
                let mut b = a.clone();
                for _ in 0..rng.below(4) {
                    let c = ALPHABET[rng.below(ALPHABET.len())];
                    match rng.below(3) {
                        0 => b.insert(rng.below(b.len() + 1), c),
                        1 if !b.is_empty() => {
                            b.remove(rng.below(b.len()));
                        }
                        _ if !b.is_empty() => {
                            let i = rng.below(b.len());
                            b[i] = c;
                        }
                        _ => b.push(c),
                    }
                }
                b
            };
            assert_matches_oracle(&a, &b);
            assert_eq!(
                bounded_levenshtein(&a, &b, a.len().max(b.len())),
                Some(full_dp(&a, &b))
            );
        }
    }

    #[test]
    fn banded_matches_full_dp_at_the_length_prune_boundary() {
        // max_len 10 at 0.8 admits k = 2: |Δlen| = k is scored, k + 1 is
        // pruned on lengths alone.
        let a = chars("abcdefghij");
        assert_matches_oracle(&a, &chars("abcdefgh"));
        assert_matches_oracle(&a, &chars("abcdefg"));
        assert_eq!(
            levenshtein_similarity_at_least(&a, &chars("abcdefgh"), 0.8),
            0.8
        );
        assert_eq!(
            levenshtein_similarity_at_least(&a, &chars("abcdefg"), 0.8),
            0.0
        );
        // Same boundary with edits in the middle and multi-byte chars.
        let b = chars("日bcdé");
        assert_matches_oracle(&b, &chars("日bcdéxy"));
        assert_matches_oracle(&b, &chars("日bcdéxyz"));
        // Both empty, one empty.
        assert_matches_oracle(&[], &[]);
        assert_matches_oracle(&[], &chars("é"));
        assert_eq!(levenshtein_similarity_at_least(&[], &[], 1.0), 1.0);
        // Thresholds no similarity reaches.
        assert_eq!(levenshtein_similarity_at_least(&a, &a, 1.5), 0.0);
        assert_eq!(levenshtein_similarity_at_least(&a, &a, f64::NAN), 0.0);
    }

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            levenshtein("abcdef", "azced"),
            levenshtein("azced", "abcdef")
        );
    }

    #[test]
    fn unicode_counts_scalars() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本", "日本語"), 1);
    }

    #[test]
    fn similarity_range() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("a", ""), 0.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        let s = levenshtein_similarity("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_cases() {
        let t = |s: &str| crate::normalize::tokens(s);
        assert_eq!(token_jaccard(&t("a b c"), &t("a b c")), 1.0);
        assert_eq!(token_jaccard(&t("a b"), &t("c d")), 0.0);
        assert!((token_jaccard(&t("a b c"), &t("b c d")) - 0.5).abs() < 1e-12);
        assert_eq!(token_jaccard(&t(""), &t("")), 1.0);
    }

    #[test]
    fn triangle_inequality_sample() {
        let (a, b, c) = ("restaurant", "restorant", "resturant");
        assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
    }
}
