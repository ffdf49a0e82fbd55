//! Ablation of the §IV optimizations: each knob toggled individually on a
//! *pipelined* RUBIN channel echo (16 messages outstanding), where
//! per-message overheads land on the critical path.
//!
//! The baseline is [`RubinConfig::future`] — all optimizations including
//! the planned send-side zero copy — so "no zero-copy send" corresponds to
//! the configuration the paper actually evaluated.

use rubin::RubinConfig;
use simnet::Series;

use crate::fig3::channel_echo_pipelined;

/// Payloads probed by the ablation: one inline-eligible size, the 1 KB BFT
/// common case, one mid-range and one large payload.
pub const ABLATION_PAYLOADS: [usize; 4] = [256, 1024, 16 * 1024, 64 * 1024];

/// Outstanding messages during the ablation echo.
pub const ABLATION_WINDOW: usize = 16;

/// The ablation variants: label, configuration, and whether the echo
/// server reads through zero-copy borrowed receives
/// ([`rubin::RdmaChannel::read_borrowed`]) instead of copying out.
pub fn variants() -> Vec<(&'static str, RubinConfig, bool)> {
    let base = RubinConfig::future();
    vec![
        ("all optimizations", base.clone(), true),
        (
            "no inline",
            RubinConfig {
                inline_threshold: 0,
                ..base.clone()
            },
            true,
        ),
        (
            "no selective signaling",
            RubinConfig {
                signal_interval: 1,
                ..base.clone()
            },
            true,
        ),
        (
            "no batched reposting",
            RubinConfig {
                recv_batch: 1,
                ..base.clone()
            },
            true,
        ),
        ("no zero-copy receive", base, false),
        (
            "no zero-copy at all (as evaluated)",
            RubinConfig::paper(),
            false,
        ),
        ("none (naive Send/Recv)", RubinConfig::unoptimized(), false),
    ]
}

/// Runs the ablation; one latency series per variant.
pub fn run(msgs: usize) -> Vec<Series> {
    variants()
        .into_iter()
        .map(|(label, cfg, borrowed)| {
            let mut s = Series::new(label);
            for &p in &ABLATION_PAYLOADS {
                let r = channel_echo_pipelined(p, msgs, ABLATION_WINDOW, cfg.clone(), borrowed);
                s.push(p, r.latency_us);
            }
            s
        })
        .collect()
}
