//! Machine-wide counters read from the public stats snapshots
//! (`node_stats`, `slot_stats`, `net_stats`, `pool_stats`), summed over
//! nodes.  A phase reports the delta between two reads.

use pm2::Machine;

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// Counts accumulated since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }
        }
    };
}

counters! {
    // core: executor
    steps, parks, wakeups,
    // marcel
    spawns,
    // migration
    migrations_out, migrations_failed, trains_out, migration_bytes_out,
    pack_ns, unpack_ns,
    // core::negotiation
    negotiations, negotiation_ns, trades, trade_ns, trade_fallbacks,
    prefetches, prefetch_fills, dup_dropped, ctrl_retries,
    // isoaddr
    cache_hits, cache_misses, negotiation_required,
    // madeleine
    msgs_sent, bytes_sent, batch_msgs_sent, batch_items_sent,
    pool_checkouts, pool_allocs,
}

impl Counters {
    pub fn read(m: &Machine) -> Counters {
        let mut c = Counters::default();
        for n in 0..m.nodes() {
            let s = m.node_stats(n);
            c.steps += s.steps;
            c.parks += s.driver_parks;
            c.wakeups += s.driver_wakeups;
            c.spawns += s.spawns;
            c.migrations_out += s.migrations_out;
            c.migrations_failed += s.migrations_failed;
            c.trains_out += s.trains_out;
            c.migration_bytes_out += s.migration_bytes_out;
            c.pack_ns += s.migration_pack_ns;
            c.unpack_ns += s.migration_unpack_ns;
            c.negotiations += s.negotiations;
            c.negotiation_ns += s.negotiation_ns;
            c.trades += s.trades;
            c.trade_ns += s.trade_ns;
            c.trade_fallbacks += s.trade_fallbacks;
            c.prefetches += s.prefetches;
            c.prefetch_fills += s.prefetch_fills;
            c.dup_dropped += s.dup_dropped;
            c.ctrl_retries += s.ctrl_retries;
            let slots = m.slot_stats(n);
            c.cache_hits += slots.cache_hits;
            c.cache_misses += slots.cache_misses;
            c.negotiation_required += slots.negotiation_required;
            if let Some(net) = m.net_stats(n) {
                c.msgs_sent += net.msgs_sent;
                c.bytes_sent += net.bytes_sent;
                c.batch_msgs_sent += net.batch_msgs_sent;
                c.batch_items_sent += net.batch_items_sent;
            }
            let pool = m.pool_stats(n);
            c.pool_checkouts += pool.checkouts;
            c.pool_allocs += pool.allocs;
        }
        c
    }
}
