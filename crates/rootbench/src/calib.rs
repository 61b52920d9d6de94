//! A fixed reference kernel that tells how fast the host runs right now.
//!
//! The kernel is the benchmark's own code and never changes with the
//! program, so its CPU time moves only with the machine. On a shared
//! host the machine's speed flips by up to 1.5× for minutes at a time,
//! for the passes and the kernel alike; the kernel is timed between
//! passes and the end-to-end times are scaled by [`NOMINAL_S`] ÷ its
//! median, which cancels that drift. A change to the program still moves
//! the scaled times one for one.
//!
//! What it does mirrors what a pass spends its time on: it builds a
//! random graph the size of a small AS topology and walks it breadth
//! first from many sources, so it is bound by the core and its caches
//! rather than by memory bandwidth (a kernel bound by memory latency was
//! tried and moved against the passes).

use crate::pass::process_cpu_s;
use std::collections::VecDeque;
use std::hint::black_box;

/// CPU seconds of one [`sample`] on the reference box (2-vCPU Xeon VM
/// at 2.1 GHz) in its faster state. It only fixes the unit: scaled times
/// read in seconds at that speed.
pub const NOMINAL_S: f64 = 0.05;

const NODES: usize = 4096;
const DEGREE: usize = 6;
const SOURCES: usize = 384;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One run of the kernel; returns a checksum that depends on all of it.
fn kernel() -> u64 {
    let mut state = 0x5eed_u64;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); NODES];
    for a in 0..NODES {
        for _ in 0..DEGREE / 2 {
            let b = (splitmix(&mut state) % NODES as u64) as usize;
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
    }
    let delay: Vec<f64> = (0..NODES)
        .map(|_| (splitmix(&mut state) % 1000) as f64 * 0.1 + 1.0)
        .collect();
    let mut dist = vec![u32::MAX; NODES];
    let mut rtt = vec![0.0f64; NODES];
    let mut queue = VecDeque::with_capacity(NODES);
    let mut sum = 0u64;
    for s in 0..SOURCES {
        let src = (s * 977) % NODES;
        dist.fill(u32::MAX);
        dist[src] = 0;
        rtt[src] = 0.0;
        queue.push_back(src);
        while let Some(a) = queue.pop_front() {
            for &b in &adj[a] {
                let b = b as usize;
                if dist[b] == u32::MAX {
                    dist[b] = dist[a] + 1;
                    rtt[b] = rtt[a] + delay[b].sqrt();
                    queue.push_back(b);
                }
            }
        }
        for (d, r) in dist.iter().zip(&rtt) {
            sum = sum.rotate_left(3) ^ u64::from(*d) ^ r.to_bits();
        }
    }
    sum
}

/// CPU seconds one run of the kernel takes.
pub fn sample() -> f64 {
    let c0 = process_cpu_s();
    black_box(kernel());
    process_cpu_s() - c0
}
