//! The water-filling rate kernel against the progressive-filling sweep
//! it replaced, bit for bit.
//!
//! `naive_sweep` is the per-activity formulation both engines used to run
//! inline: every round raises each unfrozen activity by `delta`, subtracts
//! it from each of the activity's resources, and re-checks every activity
//! for its cap or a saturated resource. It lives only here, as the oracle.

use gpsim_cluster::resources::{fill_rates, Demand, FillScratch};
use proptest::prelude::*;

fn kernel(caps: &[f64], demands: &[Demand]) -> Vec<f64> {
    let mut rate = Vec::new();
    fill_rates(caps, demands, &mut rate, &mut FillScratch::default());
    rate
}

/// The oracle.
fn naive_sweep(caps: &[f64], demands: &[Demand]) -> Vec<f64> {
    const EPS: f64 = 1e-12;
    let m = demands.len();
    let mut rate = vec![0.0f64; m];
    let mut frozen = vec![false; m];
    let mut remaining = caps.to_vec();
    let mut users = vec![0u32; caps.len()];
    for d in demands {
        for &r in &d.resources[..d.n_resources as usize] {
            users[r] += 1;
        }
    }
    for (i, d) in demands.iter().enumerate() {
        if d.n_resources == 0 {
            rate[i] = if d.cap.is_finite() { d.cap } else { 1.0 };
            frozen[i] = true;
        }
    }
    loop {
        let mut delta = f64::INFINITY;
        for (r, &rem) in remaining.iter().enumerate() {
            if users[r] > 0 {
                delta = delta.min(rem / users[r] as f64);
            }
        }
        for (i, d) in demands.iter().enumerate() {
            if !frozen[i] {
                delta = delta.min(d.cap - rate[i]);
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            break;
        }
        for (i, d) in demands.iter().enumerate() {
            if !frozen[i] {
                rate[i] += delta;
                for &r in &d.resources[..d.n_resources as usize] {
                    remaining[r] -= delta;
                }
            }
        }
        for (i, d) in demands.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let capped = rate[i] >= d.cap - EPS;
            let saturated = d.resources[..d.n_resources as usize]
                .iter()
                .any(|&r| remaining[r] <= EPS * caps[r].max(1.0));
            if capped || saturated {
                frozen[i] = true;
                for &r in &d.resources[..d.n_resources as usize] {
                    users[r] -= 1;
                }
            }
        }
        if frozen.iter().all(|&f| f) {
            break;
        }
    }
    rate
}

/// Resource capacities as the engines see them: node cores, DAS5-like
/// bandwidths in bytes/µs, the same scaled by a slowdown window, zero
/// (a crashed node), values that tie with sums of activity caps, and
/// capacities at and below the saturation threshold `EPS`.
const RES_CAPS: [f64; 13] = [
    0.0,
    1.0,
    2.0,
    8.0,
    16.0,
    24.0,
    125.0,
    1250.0,
    62.5,
    37.5,
    1e-12,
    1e-13,
    1.0 / 3.0,
];
/// Activity caps: uncapped transfers and reads dominate, compute caps
/// tie with each other and with core counts, and a cap of zero models
/// a zero-parallelism compute.
const DEMAND_CAPS: [f64; 10] = [
    f64::INFINITY,
    f64::INFINITY,
    f64::INFINITY,
    1.0,
    2.0,
    4.0,
    8.0,
    24.0,
    0.0,
    1.0 / 3.0,
];

/// One random fill problem: capacities per resource and demands as
/// `(first resource, second resource or none, cap)` picks. Resource 0
/// plays the shared-FS server, so two-resource demands on it are
/// `SharedRead` pairs (server + the reader's NIC-in) that couple many
/// activities through one resource.
fn problem(res: &[(u8, u16)], dem: &[(u8, u8, u8, u16)]) -> (Vec<f64>, Vec<Demand>) {
    let caps: Vec<f64> = res
        .iter()
        .map(|&(pick, x)| match pick as usize % (RES_CAPS.len() + 1) {
            i if i < RES_CAPS.len() => RES_CAPS[i],
            _ => x as f64 / 7.0,
        })
        .collect();
    let n = caps.len();
    let demands = dem
        .iter()
        .map(|&(a, b, c, x)| {
            let r0 = a as usize % n;
            let cap = match c as usize % (DEMAND_CAPS.len() + 1) {
                i if i < DEMAND_CAPS.len() => DEMAND_CAPS[i],
                _ => x as f64 / 3.0,
            };
            match b % 4 {
                // No resource: a delay or a barrier.
                0 if a % 8 == 0 => Demand {
                    resources: [0, 0],
                    n_resources: 0,
                    cap,
                },
                0 | 1 => Demand {
                    resources: [r0, 0],
                    n_resources: 1,
                    cap,
                },
                // SharedRead: the shared server plus a private resource.
                2 if n > 1 => Demand {
                    resources: [0, 1 + (a as usize % (n - 1))],
                    n_resources: 2,
                    cap,
                },
                _ => {
                    let r1 = (r0 + 1 + b as usize % (n - 1).max(1)) % n;
                    if r1 == r0 {
                        Demand {
                            resources: [r0, 0],
                            n_resources: 1,
                            cap,
                        }
                    } else {
                        Demand {
                            resources: [r0, r1],
                            n_resources: 2,
                            cap,
                        }
                    }
                }
            }
        })
        .collect();
    (caps, demands)
}

proptest! {
    /// The water-filling kernel reproduces the per-activity sweep bit
    /// for bit, including with one scratch reused across problems of
    /// different sizes.
    #[test]
    fn kernel_matches_the_sweep_bitwise(
        cases in prop::collection::vec(
            (
                prop::collection::vec((any::<u8>(), any::<u16>()), 1..10),
                prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 0..40),
            ),
            1..4,
        )
    ) {
        let mut scratch = FillScratch::default();
        let mut rate = Vec::new();
        for (res, dem) in &cases {
            let (caps, demands) = problem(res, dem);
            fill_rates(&caps, &demands, &mut rate, &mut scratch);
            let want = naive_sweep(&caps, &demands);
            prop_assert_eq!(rate.len(), want.len());
            for (k, (got, want)) in rate.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "demand {} of {:?} on caps {:?}: {} vs {}",
                    k,
                    demands,
                    caps,
                    got,
                    want
                );
            }
        }
    }
}

#[test]
fn kernel_matches_the_sweep_on_saturation_ties() {
    // Eight cores shared by four computes capped at 2: the resource
    // saturates in the same round the caps bind. A third-capacity
    // resource split three ways leaves a rounding residue just above
    // or below zero; both must freeze its users exactly as the sweep.
    // A resource holding exactly the saturation threshold saturates in
    // a zero-delta round (set by a zero cap) and freezes its uncapped
    // user at 0.
    let caps = [8.0, 1.0 / 3.0, 0.0, 10.0, 1e-12];
    let mut demands = vec![
        Demand {
            resources: [0, 0],
            n_resources: 1,
            cap: 2.0,
        };
        4
    ];
    for _ in 0..3 {
        demands.push(Demand {
            resources: [1, 3],
            n_resources: 2,
            cap: f64::INFINITY,
        });
    }
    demands.push(Demand {
        resources: [2, 3],
        n_resources: 2,
        cap: f64::INFINITY,
    });
    for cap in [0.0, f64::INFINITY] {
        demands.push(Demand {
            resources: [4, 0],
            n_resources: 1,
            cap,
        });
    }
    let got = kernel(&caps, &demands);
    let want = naive_sweep(&caps, &demands);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits(), "{got:?} vs {want:?}");
    }
    assert_eq!(got[0], 2.0);
    assert_eq!(got[7], 0.0, "a zero-capacity resource stalls its user");
    assert_eq!(got[9], 0.0, "a resource at the threshold is saturated");
}
