//! Geo-distributed topology: named regions with pairwise latency matrices.
//!
//! A [`LatencyMatrix`] describes a set of named regions with asymmetric
//! pairwise one-way delay and bandwidth — the shape of real inter-region
//! WAN paths, where the two directions of a route often differ. Builders
//! cover the common experimental shapes (single-region LAN, 3-region and
//! 5-region WAN) plus a coordinate-derived variant whose delays provably
//! respect the triangle inequality. [`LatencyMatrix::wire`] threads the
//! matrix through [`Network`] construction: every host pair gets an
//! asymmetric full-mesh link whose specs come from their regions.

use crate::host::HostId;
use crate::net::{LinkSpec, Network};
use crate::time::{Bandwidth, Nanos};

/// Pairwise region latency/bandwidth matrix with named regions.
///
/// `one_way[src][dst]` is the one-way propagation delay from `src` to
/// `dst`; the diagonal holds the intra-region delay. Bandwidth follows the
/// same indexing. Matrices need not be symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyMatrix {
    regions: Vec<String>,
    one_way: Vec<Vec<Nanos>>,
    bandwidth: Vec<Vec<Bandwidth>>,
    mtu: usize,
    per_segment_overhead: usize,
}

/// One-way delay in microseconds, for matrix literals.
const fn us(n: u64) -> u64 {
    n * 1_000
}

impl LatencyMatrix {
    /// Builds a matrix from explicit delay/bandwidth tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables are not square and matching `regions` in size.
    pub fn from_tables(
        regions: &[&str],
        one_way: Vec<Vec<Nanos>>,
        bandwidth: Vec<Vec<Bandwidth>>,
    ) -> LatencyMatrix {
        let n = regions.len();
        assert!(n > 0, "at least one region");
        assert_eq!(one_way.len(), n, "delay table must be {n}x{n}");
        assert_eq!(bandwidth.len(), n, "bandwidth table must be {n}x{n}");
        for row in &one_way {
            assert_eq!(row.len(), n, "delay table must be {n}x{n}");
        }
        for row in &bandwidth {
            assert_eq!(row.len(), n, "bandwidth table must be {n}x{n}");
        }
        LatencyMatrix {
            regions: regions.iter().map(|s| s.to_string()).collect(),
            one_way,
            bandwidth,
            mtu: 1500,
            per_segment_overhead: 58,
        }
    }

    /// Single-region LAN: every pair gets the paper's 10 GbE link.
    pub fn lan() -> LatencyMatrix {
        LatencyMatrix::from_tables(
            &["lan"],
            vec![vec![Nanos::from_micros(1)]],
            vec![vec![Bandwidth::gbps(10)]],
        )
    }

    /// Three-region WAN (US East, EU West, AP South): one-way delays around
    /// half the public inter-region RTTs, with a few percent of directional
    /// asymmetry, 10 Gbps inside a region and 2 Gbps between regions.
    pub fn three_region_wan() -> LatencyMatrix {
        let delays: [[u64; 3]; 3] = [
            [us(25), us(37_500), us(90_000)],
            [us(39_400), us(25), us(55_000)],
            [us(93_000), us(57_500), us(25)],
        ];
        LatencyMatrix::from_tables(
            &["us-east", "eu-west", "ap-south"],
            delays
                .iter()
                .map(|row| row.iter().map(|&ns| Nanos::from_nanos(ns)).collect())
                .collect(),
            Self::bandwidth_table(3, Bandwidth::gbps(10), Bandwidth::gbps(2)),
        )
    }

    /// Five-region WAN (US East/West, EU West, AP South, AP Northeast),
    /// same conventions as [`three_region_wan`](LatencyMatrix::three_region_wan).
    pub fn five_region_wan() -> LatencyMatrix {
        let delays: [[u64; 5]; 5] = [
            [us(25), us(30_000), us(37_500), us(90_000), us(75_000)],
            [us(31_500), us(25), us(65_000), us(110_000), us(55_000)],
            [us(39_400), us(67_000), us(25), us(55_000), us(105_000)],
            [us(93_000), us(113_000), us(57_500), us(25), us(60_000)],
            [us(77_000), us(56_500), us(108_000), us(62_000), us(25)],
        ];
        LatencyMatrix::from_tables(
            &["us-east", "us-west", "eu-west", "ap-south", "ap-ne"],
            delays
                .iter()
                .map(|row| row.iter().map(|&ns| Nanos::from_nanos(ns)).collect())
                .collect(),
            Self::bandwidth_table(5, Bandwidth::gbps(10), Bandwidth::gbps(2)),
        )
    }

    /// Builds a symmetric matrix from 2-D region coordinates: one-way delay
    /// is the Euclidean distance scaled by `ns_per_unit`, then closed under
    /// min-plus (no direct path slower than any relay), so the delays
    /// respect the triangle inequality *exactly* despite rounding.
    pub fn from_coordinates(
        regions: &[(&str, f64, f64)],
        ns_per_unit: f64,
        intra: Nanos,
        inter_bandwidth: Bandwidth,
    ) -> LatencyMatrix {
        let n = regions.len();
        let mut one_way = vec![vec![Nanos::ZERO; n]; n];
        for (i, &(_, xi, yi)) in regions.iter().enumerate() {
            for (j, &(_, xj, yj)) in regions.iter().enumerate() {
                one_way[i][j] = if i == j {
                    intra
                } else {
                    let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                    Nanos::from_nanos((dist * ns_per_unit).ceil().max(1.0) as u64)
                };
            }
        }
        // Min-plus closure: rounding can leave ceil(d(a,c)) a nanosecond
        // above ceil(d(a,b)) + ceil(d(b,c)) for collinear regions; a routed
        // network would relay, so close the matrix to restore the metric.
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let via = one_way[i][k] + one_way[k][j];
                    if via < one_way[i][j] {
                        one_way[i][j] = via;
                    }
                }
            }
        }
        let names: Vec<&str> = regions.iter().map(|&(name, _, _)| name).collect();
        LatencyMatrix::from_tables(
            &names,
            one_way,
            Self::bandwidth_table(n, Bandwidth::gbps(10), inter_bandwidth),
        )
    }

    fn bandwidth_table(n: usize, intra: Bandwidth, inter: Bandwidth) -> Vec<Vec<Bandwidth>> {
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { intra } else { inter }).collect())
            .collect()
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Name of region `r`.
    pub fn region_name(&self, r: usize) -> &str {
        &self.regions[r]
    }

    /// One-way delay from region `src` to region `dst`.
    pub fn one_way(&self, src: usize, dst: usize) -> Nanos {
        self.one_way[src][dst]
    }

    /// Largest one-way delay anywhere in the matrix.
    pub fn max_one_way(&self) -> Nanos {
        self.one_way
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// A protocol-timeout floor for this topology: consensus timers (view
    /// change, retransmission) must comfortably exceed several WAN
    /// traversals or they fire spuriously.
    pub fn suggested_timeout(&self) -> Nanos {
        Nanos::from_nanos(self.max_one_way().as_nanos() * 8).max(Nanos::from_millis(10))
    }

    /// The link spec for frames from region `src` to region `dst`.
    pub fn link_spec(&self, src: usize, dst: usize) -> LinkSpec {
        LinkSpec {
            bandwidth: self.bandwidth[src][dst],
            propagation: self.one_way[src][dst],
            mtu: self.mtu,
            per_segment_overhead: self.per_segment_overhead,
        }
    }

    /// Round-robin region assignment for `n` hosts: host `i` lands in
    /// region `i % num_regions` — replicas spread as evenly as possible.
    pub fn round_robin(&self, n: usize) -> Vec<usize> {
        (0..n).map(|i| i % self.regions.len()).collect()
    }

    /// Wires `hosts` into a full mesh on `net`, each pair connected with
    /// the (possibly asymmetric) specs of their assigned regions.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` and `hosts` differ in length or any region
    /// index is out of range.
    pub fn wire(&self, net: &Network, hosts: &[HostId], assignment: &[usize]) {
        assert_eq!(hosts.len(), assignment.len(), "one region per host");
        for r in assignment {
            assert!(*r < self.regions.len(), "region index {r} out of range");
        }
        for i in 0..hosts.len() {
            for j in (i + 1)..hosts.len() {
                let (ri, rj) = (assignment[i], assignment[j]);
                net.connect_asymmetric(
                    hosts[i],
                    hosts[j],
                    self.link_spec(ri, rj),
                    self.link_spec(rj, ri),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Addr;
    use crate::host::CpuModel;
    use crate::sim::Simulator;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn builders_have_expected_shapes() {
        assert_eq!(LatencyMatrix::lan().num_regions(), 1);
        let w3 = LatencyMatrix::three_region_wan();
        assert_eq!(w3.num_regions(), 3);
        assert_eq!(w3.region_name(0), "us-east");
        let w5 = LatencyMatrix::five_region_wan();
        assert_eq!(w5.num_regions(), 5);
        // Asymmetry is intentional in the WAN builders.
        assert_ne!(w3.one_way(0, 1), w3.one_way(1, 0));
        assert!(w3.max_one_way() >= Nanos::from_micros(90_000));
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let w3 = LatencyMatrix::three_region_wan();
        let a = w3.round_robin(7);
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn wired_mesh_delivers_with_per_direction_delay() {
        let w3 = LatencyMatrix::three_region_wan();
        let mut sim = Simulator::new(3);
        let net = Network::new();
        let hosts: Vec<HostId> = (0..3)
            .map(|i| net.add_host(format!("r{i}"), 4, CpuModel::xeon_v2()))
            .collect();
        let assignment = w3.round_robin(3);
        w3.wire(&net, &hosts, &assignment);
        // Spec lookup reflects the asymmetric matrix.
        let ab = net.link_spec_between(hosts[0], hosts[1]).unwrap();
        let ba = net.link_spec_between(hosts[1], hosts[0]).unwrap();
        assert_eq!(ab.propagation, w3.one_way(0, 1));
        assert_eq!(ba.propagation, w3.one_way(1, 0));
        assert_ne!(ab.propagation, ba.propagation);
        // A frame in each direction arrives after its direction's delay.
        let times = Rc::new(RefCell::new(Vec::new()));
        for (src, dst) in [(0usize, 1usize), (1, 0)] {
            let t = times.clone();
            let addr = Addr::new(hosts[dst], 5);
            net.bind(addr, Box::new(move |sim, _| t.borrow_mut().push(sim.now())));
            net.send(&mut sim, Addr::new(hosts[src], 5), addr, 100, ());
        }
        sim.run_until_idle();
        let times = times.borrow();
        let base = Nanos::ZERO;
        assert_eq!(times[0], base + ab.serialize_time(100) + ab.propagation);
        assert_eq!(times[1], base + ba.serialize_time(100) + ba.propagation);
    }

    #[test]
    fn coordinates_produce_metric_delays() {
        // Deliberately collinear points — the worst case for rounding.
        let m = LatencyMatrix::from_coordinates(
            &[("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 3.0, 0.0)],
            10_000.0,
            Nanos::from_micros(1),
            Bandwidth::gbps(2),
        );
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    assert!(
                        m.one_way(i, j) <= m.one_way(i, k) + m.one_way(k, j),
                        "triangle violated: {i}->{j} vs via {k}"
                    );
                }
            }
        }
    }
}
