//! What the benchmark records about the machine it runs on: the run
//! environment, the peak resident set, and how fast the machine runs a
//! fixed reference kernel at the moment.

use crate::workload::mix;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The run environment, recorded with every output.
pub fn environment(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        ("profile", env!("PERFBENCH_PROFILE").to_owned()),
        ("commit", git_commit()),
    ]
}

/// The commit of the source tree, read from `.git` next to the
/// benchmark's directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_owned();
    };
    read(reference)
        .map(|c| c.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))?
                .split(' ')
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steps of the reference kernel (about 0.1 s on a 2-vCPU Xeon).
const REFERENCE_STEPS: u64 = 200_000;
/// Keys of the reference kernel's hash and ordered maps, and the
/// messages and timers it keeps in flight. Together they hold under
/// 1 MB, below every workload's own peak, so the kernel reuses memory
/// the program freed and leaves `peak_rss_mb` alone.
const HASH_KEYS: u64 = 8_192;
const TREE_KEYS: u64 = 4_096;
const IN_FLIGHT: usize = 128;

/// Wall seconds of one run of the reference kernel.
///
/// On a shared host the same repetition's wall time drifts by up to a
/// factor of 1.7 with other tenants' load, in plateaus of seconds to
/// minutes, while a register-only loop moves far less: most of the
/// drift is in the memory hierarchy. The kernel does what the simulator
/// spends its time on (copying message-sized buffers into fresh
/// allocations and freeing them, a timer queue, hash and ordered map
/// lookups), so its time moves with the simulator's, and `run_s` over
/// it cancels most of the drift. It is the benchmark's own code, fixed,
/// and calls nothing in the program.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel());
    start.elapsed().as_secs_f64()
}

fn reference_kernel() -> u64 {
    // A fixed-key hasher: the same table layout on every run.
    let mut hash: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(HASH_KEYS as usize, Default::default());
    let mut tree = BTreeMap::new();
    let mut timers = BinaryHeap::with_capacity(IN_FLIGHT + 1);
    let mut messages = VecDeque::with_capacity(IN_FLIGHT + 1);
    let frame = [0xa5u8; 1_516];
    let mut sum = 0u64;
    for i in 0..REFERENCE_STEPS {
        let x = mix(0x5eed, i);
        messages.push_back(frame[..(x % 1_500) as usize + 16].to_vec());
        if messages.len() > IN_FLIGHT {
            sum += messages.pop_front().map_or(0, |m| m.len() as u64);
        }
        timers.push(Reverse(x >> 16));
        if timers.len() > IN_FLIGHT {
            sum += timers.pop().map_or(0, |Reverse(t)| t & 1);
        }
        hash.insert(x % HASH_KEYS, i);
        tree.insert((x >> 32) % TREE_KEYS, i);
        sum += hash.get(&(mix(x, 1) % HASH_KEYS)).copied().unwrap_or(0);
        sum += tree.get(&(mix(x, 2) % TREE_KEYS)).copied().unwrap_or(0);
    }
    sum
}
