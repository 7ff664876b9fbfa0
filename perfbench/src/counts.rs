//! Snapshots of the program's public counters.
//!
//! Every per-layer count the benchmark reports is a difference of two
//! [`Counts`] snapshots. Totem and mechanism counters live in per-node
//! engines that a processor restart replaces, so the workload loop
//! carries what a restart erases.

use eternal::cluster::Cluster;
use std::fmt::Write as _;

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counter values at one instant.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(
                #[allow(missing_docs)]
                pub $field: u64,
            )*
        }

        impl Counts {
            /// Field-wise `self - earlier`, saturating at zero.
            pub fn delta_since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Field-wise sum.
            pub fn plus(&self, other: &Counts) -> Counts {
                Counts { $($field: self.$field + other.$field,)* }
            }

            /// The counters as a JSON object (nonzero fields only).
            pub fn to_json(&self) -> String {
                let mut out = String::from("{");
                $(
                    if self.$field != 0 {
                        if out.len() > 1 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "\"{}\": {}", stringify!($field), self.$field);
                    }
                )*
                out.push('}');
                out
            }
        }
    };
}

counts!(
    events,
    frames,
    wire_bytes,
    broadcasts,
    batches,
    batched_messages,
    token_retransmits,
    reformations,
    dispatched,
    replies_delivered,
    duplicates_suppressed,
    chunks_streamed,
    chunk_duplicates,
    transfer_takeovers,
    checkpoints_logged,
    messages_logged,
    promotions,
    recoveries_completed,
    pool_takes,
    pool_fresh,
    pool_reused,
);

impl Counts {
    /// Reads every counter from the cluster; `events` is the number of
    /// `Cluster::step` calls the caller has made.
    pub fn read(cluster: &Cluster, events: u64) -> Counts {
        let m = cluster.metrics();
        let reg = cluster.metrics_registry();
        let net = cluster.net();
        Counts {
            events,
            frames: net.frames_sent(),
            wire_bytes: net.bytes_sent(),
            broadcasts: reg.counter("totem.broadcasts"),
            batches: reg.counter("totem.batches"),
            batched_messages: reg.counter("totem.batched_messages"),
            token_retransmits: reg.counter("totem.token_retransmits"),
            reformations: reg.counter("totem.reformations"),
            dispatched: m.requests_dispatched,
            replies_delivered: m.replies_delivered,
            duplicates_suppressed: m.duplicates_suppressed,
            chunks_streamed: reg.counter("eternal.chunks_streamed"),
            chunk_duplicates: reg.counter("eternal.chunk_duplicates"),
            transfer_takeovers: reg.counter("eternal.transfer_takeovers"),
            checkpoints_logged: m.checkpoints_logged,
            messages_logged: m.messages_logged,
            promotions: m.promotions,
            recoveries_completed: m.recoveries_completed,
            ..Counts::pool()
        }
    }

    /// Only the encode-buffer pool counters of this thread (for spans
    /// around direct calls into a layer, where there is no cluster).
    pub fn pool() -> Counts {
        let p = eternal_cdr::pool::stats();
        Counts {
            pool_takes: p.takes,
            pool_fresh: p.fresh,
            pool_reused: p.reused,
            ..Counts::default()
        }
    }
}
