//! The testbed network model.
//!
//! §6.1: "two machines connected via a switched 1 GBit Ethernet network (one
//! hop)".  §6.5: "above 320 client connections, the host's network is squeezed
//! at its capacity of 1 GBps" — the network is what caps native Redis at
//! 1.0–1.2 M IOP/s.  The model is full duplex: requests flow one way,
//! responses the other, so the binding direction is whichever carries more
//! bytes per request.

use serde::{Deserialize, Serialize};
use teemon_frameworks::RequestProfile;
use teemon_sim_core::SimDuration;

/// A symmetric, full-duplex network link between load generator and server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second (per direction).
    pub bandwidth_bps: u64,
    /// Base round-trip time between client and server.
    pub base_rtt: SimDuration,
    /// Fixed per-packet framing overhead in bytes (Ethernet + IP + TCP).
    pub per_packet_overhead_bytes: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self {
            bandwidth_bps: 1_000_000_000,
            base_rtt: SimDuration::from_micros(120),
            per_packet_overhead_bytes: 66,
        }
    }
}

impl NetworkModel {
    /// A network model for a loopback (single-host) benchmark, as used in the
    /// continuous-profiling experiment of §6.4.
    pub fn loopback() -> Self {
        Self {
            bandwidth_bps: 40_000_000_000,
            base_rtt: SimDuration::from_micros(15),
            per_packet_overhead_bytes: 66,
        }
    }

    /// Bytes per second per direction.
    pub(crate) fn bytes_per_second(&self) -> f64 {
        self.bandwidth_bps as f64 / 8.0
    }

    /// The maximum request rate the link sustains for the given request
    /// profile when `pipeline` requests share each packet's framing overhead.
    pub(crate) fn max_requests_per_second(&self, req: &RequestProfile, pipeline: u32) -> f64 {
        let overhead = self.per_packet_overhead_bytes as f64 / pipeline.max(1) as f64;
        let inbound = req.request_bytes as f64 + overhead;
        let outbound = req.response_bytes as f64 + overhead;
        let binding = inbound.max(outbound).max(1.0);
        self.bytes_per_second() / binding
    }

    /// Network transfer time for one batch of `pipeline` requests.
    pub(crate) fn batch_transfer_time(&self, req: &RequestProfile, pipeline: u32) -> SimDuration {
        let bytes =
            (req.network_bytes() * pipeline as u64 + 2 * self.per_packet_overhead_bytes) as f64;
        SimDuration::from_secs_f64(bytes / self.bytes_per_second()) + self.base_rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_req(value: u64) -> RequestProfile {
        RequestProfile::keyvalue_get(value, 20_000)
    }

    #[test]
    fn one_gbit_caps_small_gets_near_paper_numbers() {
        let net = NetworkModel::default();
        let cap32 = net.max_requests_per_second(&get_req(32), 8);
        let cap96 = net.max_requests_per_second(&get_req(96), 8);
        // The paper reports 1.01–1.2 M IOP/s for native Redis at the network
        // limit; the model should land in that ballpark and preserve the
        // "larger values → lower cap" ordering.
        assert!(cap32 > 900_000.0, "32 B cap too low: {cap32}");
        assert!(cap96 < cap32);
        assert!(cap96 > 600_000.0, "96 B cap unexpectedly low: {cap96}");
    }

    #[test]
    fn pipeline_amortises_framing() {
        let net = NetworkModel::default();
        let unpipelined = net.max_requests_per_second(&get_req(32), 1);
        let pipelined = net.max_requests_per_second(&get_req(32), 8);
        assert!(pipelined > unpipelined);
    }

    #[test]
    fn loopback_is_much_faster() {
        let lo = NetworkModel::loopback();
        let net = NetworkModel::default();
        assert!(
            lo.max_requests_per_second(&get_req(32), 8)
                > 10.0 * net.max_requests_per_second(&get_req(32), 8)
        );
        assert!(lo.base_rtt < net.base_rtt);
    }

    #[test]
    fn batch_transfer_time_scales_with_bytes() {
        let net = NetworkModel::default();
        let small = net.batch_transfer_time(&get_req(32), 8);
        let large = net.batch_transfer_time(&get_req(4096), 8);
        assert!(large > small);
        assert!(small >= net.base_rtt);
    }
}
