//! Result checking against the software reference, off the timed path.
//!
//! Each workload cycles through a seeded pool of distinct inputs. During
//! the window a [`Checker`] keeps the first result per pool slot and
//! compares later results for that slot with it; after the window each
//! kept result is compared with the reference, so every result is
//! checked bit-exact while the reference runs once per slot.

/// Per-slot result comparison.
#[derive(Debug)]
pub struct Checker<T> {
    first: Vec<Option<T>>,
    seen: Vec<u64>,
    mismatched: u64,
}

impl<T: PartialEq> Checker<T> {
    pub fn new(slots: usize) -> Self {
        Checker {
            first: (0..slots).map(|_| None).collect(),
            seen: vec![0; slots],
            mismatched: 0,
        }
    }

    /// Records one result for pool slot `slot`.
    pub fn record(&mut self, slot: usize, result: T) {
        self.seen[slot] += 1;
        match &self.first[slot] {
            None => self.first[slot] = Some(result),
            Some(f) if *f == result => {}
            Some(_) => self.mismatched += 1,
        }
    }

    /// Merges another checker over the same pool.
    pub fn merge(&mut self, other: Checker<T>) {
        self.mismatched += other.mismatched;
        for (slot, (f, n)) in other.first.into_iter().zip(other.seen).enumerate() {
            self.seen[slot] += n;
            if let Some(f) = f {
                match &self.first[slot] {
                    None => self.first[slot] = Some(f),
                    Some(mine) if *mine == f => {}
                    // Every result the other side saw for this slot
                    // disagrees with ours; count the smaller side.
                    Some(_) => self.mismatched += n.min(self.seen[slot] - n),
                }
            }
        }
    }

    /// Results recorded so far.
    pub fn total(&self) -> u64 {
        self.seen.iter().sum()
    }

    /// Compares each kept result with `reference(slot)`; returns the
    /// number of wrong results among everything recorded.
    pub fn wrong(&self, mut reference: impl FnMut(usize) -> T) -> u64 {
        let mut wrong = self.mismatched;
        for (slot, f) in self.first.iter().enumerate() {
            if let Some(f) = f {
                if *f != reference(slot) {
                    // The kept result is wrong, and so is every later
                    // result that matched it.
                    wrong += self.seen[slot];
                }
            }
        }
        wrong.min(self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_wrong_results_against_the_reference() {
        let mut c = Checker::new(3);
        c.record(0, 10);
        c.record(0, 10);
        c.record(1, 7);
        c.record(1, 8); // disagrees with the first result for slot 1
        c.record(2, 5);
        assert_eq!(c.total(), 5);
        assert_eq!(c.wrong(|s| [10, 7, 5][s]), 1);
        // Slot 0 wrong at the reference: both results count.
        assert_eq!(c.wrong(|s| [11, 7, 5][s]), 3);
    }

    #[test]
    fn merge_keeps_counts_and_detects_disagreement() {
        let mut a = Checker::new(2);
        a.record(0, 1);
        let mut b = Checker::new(2);
        b.record(0, 1);
        b.record(1, 4);
        a.merge(b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.wrong(|s| [1, 4][s]), 0);
        let mut c = Checker::new(2);
        c.record(1, 9);
        a.merge(c);
        assert_eq!(a.wrong(|s| [1, 4][s]), 1);
    }
}
