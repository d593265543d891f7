//! Summary of one incremental snapshot update
//! ([`crate::Scenario::apply_user_moves`]).
//!
//! Mobility re-derivation used to rebuild the whole snapshot per slot
//! (`with_user_positions`): coverage, allocation, rates and eligibility
//! for all `K` users, even though only the moved users' rows can change.
//! The incremental path recomputes exactly the affected radio state
//! (the eligibility indicator is then re-derived whole, or left to the
//! caller by [`crate::Scenario::update_radio_positions`]) and returns a
//! [`SnapshotDelta`] naming what was touched, so consumers (e.g. the
//! runtime engine's handover accounting) can confine their own refresh
//! work to the same sets.
//!
//! The affected sets nest as follows:
//!
//! * **moved users** — positions changed; their coverage rows and rate
//!   entries are recomputed;
//! * **touched servers** — covered a moved user before or after the
//!   move; their rate rows are recomputed (member sets or member
//!   distances changed);
//! * **reallocated servers** — touched servers whose covered-user count
//!   changed *enough* to move the expected-active-user divisor (the
//!   floor of one active user absorbs small cells): their per-user
//!   bandwidth/power share changed, which changes the rates — and hence
//!   possibly the eligibility — of **every** user they cover;
//! * **refreshed users** — moved users plus all users covered by a
//!   reallocated server: exactly the users whose rate or eligibility
//!   rows could differ from the previous snapshot.

/// What one [`crate::Scenario::apply_user_moves`] call recomputed. See
/// the [module docs](self) for how the sets relate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    moved_users: Vec<usize>,
    touched_servers: Vec<usize>,
    reallocated_servers: Vec<usize>,
    refreshed_users: Vec<usize>,
}

impl SnapshotDelta {
    /// Assembles a delta; every list must be ascending and deduplicated.
    pub(crate) fn new(
        moved_users: Vec<usize>,
        touched_servers: Vec<usize>,
        reallocated_servers: Vec<usize>,
        refreshed_users: Vec<usize>,
    ) -> Self {
        debug_assert!(moved_users.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(touched_servers.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(reallocated_servers.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(refreshed_users.windows(2).all(|w| w[0] < w[1]));
        Self {
            moved_users,
            touched_servers,
            reallocated_servers,
            refreshed_users,
        }
    }

    /// A delta reporting that nothing changed.
    pub(crate) fn empty() -> Self {
        Self::default()
    }

    /// Users whose position changed, ascending.
    pub fn moved_users(&self) -> &[usize] {
        &self.moved_users
    }

    /// Servers that covered a moved user before or after the batch
    /// (their rate rows were recomputed), ascending.
    pub fn touched_servers(&self) -> &[usize] {
        &self.touched_servers
    }

    /// Touched servers whose per-user resource share changed, ascending.
    pub fn reallocated_servers(&self) -> &[usize] {
        &self.reallocated_servers
    }

    /// Users whose rate or eligibility rows could have changed (moved
    /// users plus the users of every reallocated server), ascending. Any
    /// per-user state derived from the snapshot's rates — e.g. the
    /// runtime's primary-server assignment — is unchanged outside this
    /// set. The eligibility indicator is re-derived whole, not by these
    /// rows (see [`crate::Scenario::update_user_positions`]).
    pub fn refreshed_users(&self) -> &[usize] {
        &self.refreshed_users
    }

    /// Whether the update changed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.moved_users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_delta_reports_no_work() {
        let d = SnapshotDelta::empty();
        assert!(d.is_empty());
        assert!(d.moved_users().is_empty());
        assert!(d.touched_servers().is_empty());
        assert!(d.reallocated_servers().is_empty());
        assert!(d.refreshed_users().is_empty());
        assert_eq!(d, SnapshotDelta::default());
    }

    #[test]
    fn accessors_expose_the_sets() {
        let d = SnapshotDelta::new(vec![1, 4], vec![0, 2], vec![2], vec![1, 3, 4]);
        assert!(!d.is_empty());
        assert_eq!(d.moved_users(), &[1, 4]);
        assert_eq!(d.touched_servers(), &[0, 2]);
        assert_eq!(d.reallocated_servers(), &[2]);
        assert_eq!(d.refreshed_users(), &[1, 3, 4]);
    }
}
