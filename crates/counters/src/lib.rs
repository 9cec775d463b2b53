//! One declaration per counter.
//!
//! Every stats surface of the runtime is a pair: a struct of `AtomicU64`s
//! that node drivers bump while the host reads it, and a `Copy` snapshot
//! of plain `u64`s.  [`counters!`] generates both from a single list of
//! doc-commented field names, plus:
//!
//! * `snapshot()` on the live struct (relaxed loads, field by field);
//! * `since(&earlier)` on the snapshot — the field-wise window between
//!   two snapshots;
//! * `Add` and `Sum` on the snapshot, to total per-node snapshots.
//!
//! Counters are monotonic: nothing resets them.  A measurement window is
//! two snapshots and a subtraction, so concurrent readers never disturb
//! each other's windows.

/// Declare a live atomic stats struct and its snapshot from one field
/// list; see the crate docs.  Both structs get every field as `pub`, the
/// live one derives `Debug, Default` and the snapshot `Debug, Clone,
/// Copy, Default, PartialEq, Eq`.  Field doc comments go on both.
///
/// ```
/// counters::counters! {
///     /// Live counters.
///     pub struct Stats;
///     /// Plain snapshot of [`Stats`].
///     pub struct StatsSnapshot { sent, recv }
/// }
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $Live:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident {
            $( $(#[$field_meta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $Live {
            $( $(#[$field_meta])* pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        impl $Live {
            /// Point-in-time copy (each field loaded on its own, relaxed).
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        impl $Snap {
            /// Counts accumulated between `earlier` and `self`, field by
            /// field.  Counters never decrease, so for two snapshots of
            /// the same counters taken in order this is exact; a field
            /// that went backwards (snapshots swapped) reads 0.
            pub fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }
        }

        impl ::std::ops::Add for $Snap {
            type Output = $Snap;
            fn add(self, other: $Snap) -> $Snap {
                $Snap {
                    $( $field: self.$field + other.$field, )*
                }
            }
        }

        impl ::std::iter::Sum for $Snap {
            fn sum<I: Iterator<Item = $Snap>>(iter: I) -> $Snap {
                iter.fold($Snap::default(), |acc, s| acc + s)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    counters! {
        /// Test counters.
        struct Probe;
        /// Snapshot of [`Probe`].
        struct ProbeSnapshot {
            /// First counter.
            a,
            /// Second counter.
            b,
            c,
        }
    }

    #[test]
    fn snapshot_reflects_increments() {
        let p = Probe::default();
        assert_eq!(p.snapshot(), ProbeSnapshot::default());
        p.a.fetch_add(1, Ordering::Relaxed);
        p.a.fetch_add(1, Ordering::Relaxed);
        p.c.fetch_add(40, Ordering::Relaxed);
        assert_eq!(p.snapshot(), ProbeSnapshot { a: 2, b: 0, c: 40 });
    }

    #[test]
    fn since_returns_exactly_the_window() {
        let p = Probe::default();
        p.a.fetch_add(5, Ordering::Relaxed);
        p.b.fetch_add(7, Ordering::Relaxed);
        let before = p.snapshot();
        p.a.fetch_add(3, Ordering::Relaxed);
        p.c.fetch_add(1, Ordering::Relaxed);
        let after = p.snapshot();
        assert_eq!(after.since(&before), ProbeSnapshot { a: 3, b: 0, c: 1 });
        assert_eq!(after.since(&after), ProbeSnapshot::default());
        assert_eq!(before.since(&after).a, 0, "swapped: saturates");
    }

    #[test]
    fn sum_over_nodes_is_the_field_wise_total() {
        let nodes: Vec<Probe> = (0..4).map(|_| Probe::default()).collect();
        for (i, n) in nodes.iter().enumerate() {
            n.a.fetch_add(i as u64, Ordering::Relaxed);
            n.b.fetch_add(10 * i as u64 + 1, Ordering::Relaxed);
            n.c.fetch_add(100, Ordering::Relaxed);
        }
        let snap = |a, b, c| ProbeSnapshot { a, b, c };
        let total: ProbeSnapshot = nodes.iter().map(Probe::snapshot).sum();
        assert_eq!(total, snap(6, 64, 400));
        assert_eq!(nodes[1].snapshot() + nodes[2].snapshot(), snap(3, 32, 200));
    }
}
