//! What one mobility update of a snapshot changed
//! ([`crate::Scenario::update_radio_positions`] and
//! [`crate::Scenario::update_user_positions`]).
//!
//! A mobility update moves every user and recomputes the snapshot's
//! radio state — coverage, per-user allocation and rates — whole,
//! through the same passes as the build (under the paper's mobility mix
//! most users move every slot, so there is little left to skip). It
//! returns a [`SnapshotDelta`] naming what changed, by the sets'
//! definitions, so consumers (e.g. the runtime engine's handover
//! accounting) can confine their own per-user work to them:
//!
//! * **moved users** — users whose position differs;
//! * **reallocated servers** — servers whose per-user bandwidth/power
//!   share differs. A server's share follows its covered-user count, but
//!   the floor of one expected active user absorbs small cells, so not
//!   every count change reallocates. A new share changes the rates — and
//!   hence possibly the eligibility — of **every** user the server
//!   covers;
//! * **refreshed users** — moved users plus all users covered by a
//!   reallocated server after the update: exactly the users whose rate
//!   or eligibility rows could differ from the previous snapshot.

/// What one mobility update changed. See the [module docs](self) for how
/// the sets are defined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    moved_users: Vec<usize>,
    reallocated_servers: Vec<usize>,
    refreshed_users: Vec<usize>,
}

impl SnapshotDelta {
    /// Assembles a delta; every list must be ascending and deduplicated.
    pub(crate) fn new(
        moved_users: Vec<usize>,
        reallocated_servers: Vec<usize>,
        refreshed_users: Vec<usize>,
    ) -> Self {
        debug_assert!(moved_users.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(reallocated_servers.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(refreshed_users.windows(2).all(|w| w[0] < w[1]));
        Self {
            moved_users,
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

    /// Servers whose per-user resource share changed, ascending.
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
        assert!(d.reallocated_servers().is_empty());
        assert!(d.refreshed_users().is_empty());
        assert_eq!(d, SnapshotDelta::default());
    }

    #[test]
    fn accessors_expose_the_sets() {
        let d = SnapshotDelta::new(vec![1, 4], vec![2], vec![1, 3, 4]);
        assert!(!d.is_empty());
        assert_eq!(d.moved_users(), &[1, 4]);
        assert_eq!(d.reallocated_servers(), &[2]);
        assert_eq!(d.refreshed_users(), &[1, 3, 4]);
    }
}
