"""Hardware constants of the evaluated system (paper Tables III & VI).

Every timing/energy model in the repository reads these from one place so
experiments stay mutually consistent.  Values come directly from the
paper: Table III (network and memory), Section VI-B (compute), and the
cited component studies for energy (CACTI/HMC/link models the authors
reference).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareParams:
    """NDP worker and memory-centric network constants."""

    # --- clocks -----------------------------------------------------------
    clock_hz: float = 1.0e9  # router and NDP logic clock (Table III)

    # --- inter-chip links (Table III) --------------------------------------
    #: Full-width link: 16 lanes x 15 Gbps per direction.
    full_link_bytes_per_s: float = 16 * 15e9 / 8
    #: Narrow link: 8 lanes x 10 Gbps per direction (cluster FBFLY).
    narrow_link_bytes_per_s: float = 8 * 10e9 / 8
    #: SerDes latency per hop (2.5 ns serialise + 2.5 ns deserialise).
    serdes_latency_s: float = 5e-9
    #: Router pipeline latency (cycles).
    router_latency_cycles: int = 3

    # --- packets (Section VII-A) -------------------------------------------
    collective_packet_bytes: int = 256
    data_packet_bytes: int = 64
    packet_header_bytes: int = 8

    # --- 3D-stacked memory (Table III) --------------------------------------
    dram_bytes_per_s: float = 320e9
    #: Stack capacity (HMC-class 8 GB module); each worker owns one
    #: stack, so this bounds the per-worker resident working set the
    #: planner's capacity filter checks (``repro.ndp.dram.stack_fits``).
    dram_capacity_bytes: float = 8 * 2**30

    # --- compute (Section VI-B) ---------------------------------------------
    systolic_rows: int = 64
    systolic_cols: int = 64
    #: Vector unit lanes (scratch-pad based, Section VI-B).
    vector_lanes: int = 64

    # --- energy (Section VII-A and cited models) ----------------------------
    fp32_add_pj: float = 0.9
    fp32_mul_pj: float = 3.7
    #: 3D-stacked DRAM access energy (CACTI-3DD-class estimate).
    dram_pj_per_bit: float = 3.7
    #: On-chip SRAM buffer access energy (CACTI 6.5-class estimate).
    sram_pj_per_bit: float = 0.3
    #: High-speed serial link transfer energy.
    link_pj_per_bit: float = 2.0
    #: Idle power of one powered full-width link direction (SerDes idles
    #: hot, Section VII-B: "high-speed serial interface ... consumes
    #: energy even in an idle state").
    full_link_idle_w: float = 0.8
    narrow_link_idle_w: float = 0.27

    @property
    def macs_per_cycle(self) -> int:
        return self.systolic_rows * self.systolic_cols

    @property
    def peak_macs_per_s(self) -> float:
        return self.macs_per_cycle * self.clock_hz

    def link_bytes_per_cycle(self, full: bool = True) -> float:
        rate = self.full_link_bytes_per_s if full else self.narrow_link_bytes_per_s
        return rate / self.clock_hz

    def packet_efficiency(self, packet_bytes: int) -> float:
        """Payload fraction of a packet after the header."""
        return packet_bytes / (packet_bytes + self.packet_header_bytes)


DEFAULT_PARAMS = HardwareParams()


def entire_cnn_params() -> HardwareParams:
    """The configuration of the paper's entire-CNN evaluation (footnote
    16): a 96 x 96 systolic array with FP16 multipliers and FP32
    accumulators, chosen for similar area/power to the 64 x 64 FP32
    array used in the layer-wise study."""
    from dataclasses import replace

    return replace(
        DEFAULT_PARAMS,
        systolic_rows=96,
        systolic_cols=96,
        fp32_mul_pj=1.1,  # FP16 multiply
    )
