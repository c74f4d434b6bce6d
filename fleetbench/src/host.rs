//! Host measurements that belong to no layer of the program: the process's
//! memory high-water mark, and a fixed reference kernel that reads the
//! host's current speed.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds [`reference_s`] takes on the host the benchmark was tuned
/// on, a shared 2-vCPU 2.1 GHz Xeon VM, at its fastest. Set-up times
/// measured against the kernel are reported in seconds of that host.
pub const REFERENCE_S: f64 = 0.0125;

/// Host seconds of one run of a fixed kernel of the kind a set-up spends
/// its time in: RK4 sweeps of an interpreted op tape that gathers its
/// inputs by index, as the engine's plan does. The work never changes, so
/// its time tracks only the speed of the host.
pub fn reference_s() -> f64 {
    const STATES: usize = 64;
    const OPS: usize = 192;
    const STEPS: usize = 5_000;
    enum Op {
        Gain { input: usize, gain: f64 },
        Sum { inputs: std::ops::Range<usize> },
        Product { a: usize, b: usize },
    }
    // A fixed tape: each op reads earlier slots, by index.
    let mut z = 0x5EED_u64;
    let mut next = move |n: usize| {
        z = z
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (z >> 33) as usize % n
    };
    let mut wires = Vec::new();
    let tape: Vec<Op> = (0..OPS)
        .map(|i| {
            let slots = STATES + i;
            match next(3) {
                0 => Op::Gain {
                    input: next(slots),
                    gain: 0.5 + 0.001 * next(500) as f64,
                },
                1 => {
                    let start = wires.len();
                    for _ in 0..2 + next(4) {
                        wires.push(next(slots));
                    }
                    Op::Sum {
                        inputs: start..wires.len(),
                    }
                }
                _ => Op::Product {
                    a: next(slots),
                    b: next(slots),
                },
            }
        })
        .collect();
    let taps: Vec<usize> = (0..STATES).map(|_| STATES + next(OPS)).collect();
    let mut values = vec![0.0f64; STATES + OPS];
    let mut rate = |x: &[f64], du: &mut [f64]| {
        values[..STATES].copy_from_slice(x);
        for (i, op) in tape.iter().enumerate() {
            let v = match op {
                Op::Gain { input, gain } => gain * values[*input],
                Op::Sum { inputs } => wires[inputs.clone()].iter().map(|&w| values[w]).sum(),
                Op::Product { a, b } => values[*a] * values[*b],
            };
            values[STATES + i] = v.clamp(-1.0, 1.0);
        }
        for ((d, &tap), &xi) in du.iter_mut().zip(&taps).zip(x) {
            *d = 0.5 + values[tap] - 2.0 * xi;
        }
    };
    let dt = 0.01;
    let start = Instant::now();
    let mut x = black_box(vec![0.0f64; STATES]);
    let (mut k1, mut k2, mut k3, mut k4) = (
        vec![0.0; STATES],
        vec![0.0; STATES],
        vec![0.0; STATES],
        vec![0.0; STATES],
    );
    let mut probe = vec![0.0f64; STATES];
    for _ in 0..STEPS {
        rate(&x, &mut k1);
        for i in 0..STATES {
            probe[i] = x[i] + 0.5 * dt * k1[i];
        }
        rate(&probe, &mut k2);
        for i in 0..STATES {
            probe[i] = x[i] + 0.5 * dt * k2[i];
        }
        rate(&probe, &mut k3);
        for i in 0..STATES {
            probe[i] = x[i] + dt * k3[i];
        }
        rate(&probe, &mut k4);
        for i in 0..STATES {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        black_box(&mut x);
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(x);
    elapsed
}

/// This process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
