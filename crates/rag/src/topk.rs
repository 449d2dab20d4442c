//! Top-k merge utilities shared by every retrieval path.
//!
//! The same merge — rank by score descending, break ties toward the
//! lower chunk id, keep the best `k` — appears at three places in the
//! stack: the batch kernel's per-tile post-processing
//! ([`crate::batch::retrieve_batch`]), the sharded scatter-gather merge
//! ([`crate::ShardedRagServer`]), and the IVF per-cluster rescore merge
//! ([`crate::ivf`]). Centralizing it here keeps the tie-break identical
//! everywhere, which is what makes a sharded or cluster-pruned merge
//! *element-identical* (ids and scores) to the flat single-device scan.

use crate::Hit;

/// Merges candidate hits keeping the `k` best (ties → lower chunk id).
///
/// Degenerate inputs are well-defined: `k == 0` or an empty candidate
/// list returns an empty vector, and `k > hits.len()` returns every
/// candidate (still fully ranked).
pub fn top_k(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.chunk.cmp(&b.chunk)));
    hits.truncate(k);
    hits
}

/// Drops hits whose id appears in `tombstones`, a **sorted** slice of
/// deleted ids. Relative order of the survivors is preserved.
///
/// This is the mutation-aware step of the snapshot scan
/// ([`crate::mutable`]): a segment is scanned for `k +
/// tombstones_in_segment` candidates, the tombstoned ones are dropped
/// here, and at least `k` legitimate survivors remain — so a deleted
/// document can never leak into a result list, and the post-filter
/// top-k equals the top-k of the segment's live documents exactly.
pub fn drop_tombstoned(hits: Vec<Hit>, tombstones: &[u32]) -> Vec<Hit> {
    if tombstones.is_empty() {
        return hits;
    }
    hits.into_iter()
        .filter(|h| tombstones.binary_search(&h.chunk).is_err())
        .collect()
}

/// Merges per-partition top-k lists (already in the global id space)
/// into the global top-k: concatenation followed by [`top_k`]. Because
/// every partition list is itself a superset-of-survivors of its
/// partition, this equals the top-k of the union of the partitions.
pub fn merge_top_k(parts: Vec<Vec<Hit>>, k: usize) -> Vec<Hit> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        all.extend(p);
    }
    top_k(all, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(chunk: u32, score: i32) -> Hit {
        Hit { chunk, score }
    }

    #[test]
    fn ranks_by_score_then_chunk() {
        let t = top_k(vec![h(9, 10), h(2, 10), h(5, 3), h(0, 12)], 3);
        assert_eq!(t, vec![h(0, 12), h(2, 10), h(9, 10)]);
    }

    #[test]
    fn all_tied_scores_order_by_chunk() {
        let t = top_k(vec![h(7, 1), h(3, 1), h(5, 1), h(1, 1)], 3);
        assert_eq!(t, vec![h(1, 1), h(3, 1), h(5, 1)]);
    }

    #[test]
    fn k_larger_than_n_returns_everything_ranked() {
        let t = top_k(vec![h(4, -2), h(1, 7)], 10);
        assert_eq!(t, vec![h(1, 7), h(4, -2)]);
    }

    #[test]
    fn k_zero_and_empty_input_are_empty() {
        assert!(top_k(vec![h(1, 5)], 0).is_empty());
        assert!(top_k(Vec::new(), 4).is_empty());
    }

    #[test]
    fn merge_equals_top_k_of_union() {
        let parts = vec![vec![h(0, 5), h(1, 4)], Vec::new(), vec![h(10, 9), h(11, 4)]];
        let merged = merge_top_k(parts.clone(), 3);
        let union: Vec<Hit> = parts.into_iter().flatten().collect();
        assert_eq!(merged, top_k(union, 3));
        assert_eq!(merged, vec![h(10, 9), h(0, 5), h(1, 4)]);
    }

    #[test]
    fn merge_with_k_past_total_keeps_all_with_ties_ordered() {
        let merged = merge_top_k(vec![vec![h(8, 2)], vec![h(3, 2)]], 99);
        assert_eq!(merged, vec![h(3, 2), h(8, 2)]);
    }

    #[test]
    fn tombstoned_hits_never_survive_the_filter() {
        let hits = vec![h(5, 9), h(2, 8), h(7, 8), h(0, 1)];
        let out = drop_tombstoned(hits, &[2, 7]);
        assert_eq!(out, vec![h(5, 9), h(0, 1)]);
        // An empty tombstone set is the identity.
        let hits = vec![h(3, 4), h(1, 2)];
        assert_eq!(drop_tombstoned(hits.clone(), &[]), hits);
        // Tombstones that match nothing change nothing.
        assert_eq!(drop_tombstoned(hits.clone(), &[99]), hits);
    }

    #[test]
    fn tombstoned_hit_cannot_leak_through_the_merge() {
        // A hit for a document that a newer snapshot tombstoned:
        // filtered, merged — the deleted id must be absent even when it
        // had the top score.
        let filtered = drop_tombstoned(vec![h(102, 50), h(100, 40)], &[102]);
        let merged = merge_top_k(vec![filtered, vec![h(7, 45)]], 2);
        assert_eq!(merged, vec![h(7, 45), h(100, 40)]);
        assert!(merged.iter().all(|m| m.chunk != 102));
    }

    #[test]
    fn all_tombstoned_and_empty_delta_edges_merge_cleanly() {
        // Every hit of one partition tombstoned → the partition
        // contributes nothing; an empty delta partition is a no-op; the
        // merge still ranks the survivors of the other partitions.
        let dead = drop_tombstoned(vec![h(4, 99), h(5, 98)], &[4, 5]);
        assert!(dead.is_empty());
        let empty_delta: Vec<Hit> = Vec::new();
        let merged = merge_top_k(vec![dead, empty_delta, vec![h(1, 3)]], 4);
        assert_eq!(merged, vec![h(1, 3)]);
        // Everything tombstoned everywhere → empty result, not a panic.
        let all_dead = merge_top_k(vec![drop_tombstoned(vec![h(0, 1)], &[0])], 4);
        assert!(all_dead.is_empty());
    }
}
