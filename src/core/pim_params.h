/**
 * @file
 * Device configuration and DRAM parameters (paper Table II defaults).
 *
 * All timing, current, and geometry parameters used by the performance
 * and energy models live here, with the Table II / DDR4 datasheet
 * values as defaults. Every parameter can be overridden to support the
 * paper's sensitivity analyses (Figs. 6, 12, 13) and the ablation
 * benches.
 */

#ifndef PIMEVAL_CORE_PIM_PARAMS_H_
#define PIMEVAL_CORE_PIM_PARAMS_H_

#include <cstdint>
#include <string>

#include "core/pim_types.h"

namespace pimeval {

/**
 * DDR4 timing and current parameters used by the performance and
 * energy models. Defaults follow the paper's reported numbers plus a
 * representative DDR4-3200 x8 datasheet (Micron power model TN-40-07
 * inputs).
 */
struct PimDramParams
{
    // --- Timing (nanoseconds) ---
    /** Full row read into the local row buffer (paper: 28.5 ns). */
    double row_read_ns = 28.5;
    /** Full row write back from the row buffer (paper: 43.5 ns). */
    double row_write_ns = 43.5;
    /** Column-to-column delay, also the GDL beat time (paper: 3 ns). */
    double tccd_ns = 3.0;
    /** Row active time. */
    double tras_ns = 32.0;
    /** Row precharge time. */
    double trp_ns = 13.75;
    /** Latency of one row-wide bit-serial logic micro-op. */
    double logic_op_ns = 1.0;
    /** LISA row-buffer-movement latency per row (Chang et al.):
     *  links between adjacent subarrays copy a row without a full
     *  read+write round trip. */
    double lisa_row_copy_ns = 18.0;

    // --- Bandwidth ---
    /** Rank interface bandwidth in GB/s (paper: 25.6 GB/s). */
    double rank_bw_gbps = 25.6;

    // --- Currents/voltage for the Micron power model (per x8 chip) ---
    double vdd = 1.2;
    double idd0_ma = 55.0;   ///< one-bank ACT-PRE current
    double idd2n_ma = 34.0;  ///< precharge standby
    double idd3n_ma = 44.0;  ///< active standby
    double idd4r_ma = 150.0; ///< burst read
    double idd4w_ma = 145.0; ///< burst write

    // --- Modeled PE energies (documented substitution; see DESIGN.md) ---
    /** Energy of one row-wide bit-serial logic micro-op, per bit (J). */
    double bitserial_logic_j_per_bit = 10e-15;
    /** Energy of one 32-bit Fulcrum ALU operation (J). */
    double fulcrum_alu_op_j = 10e-12;
    /** Energy of one 128-bit bank-level ALPU operation (J). */
    double bank_alu_op_j = 30e-12;
    /** GDL transfer energy per bit (J), scaled from LISA. */
    double gdl_j_per_bit = 0.5e-12;

    /**
     * Energy of one ACT+PRE pair per chip, joules. Micron TN-40-07
     * Eq. (2): AP = VDD*(IDD0*(tRAS+tRP) - (IDD3N*tRAS + IDD2N*tRP)).
     * Currents in mA and times in ns give 1e-12 A*s.
     */
    double actPreEnergy() const
    {
        const double charge = idd0_ma * (tras_ns + trp_ns) -
            (idd3n_ma * tras_ns + idd2n_ma * trp_ns);
        return vdd * charge * 1e-12;
    }

    /** Read burst power per chip, Micron Eq. (1), watts. */
    double readPower() const
    {
        return vdd * (idd4r_ma - idd3n_ma) * 1e-3;
    }

    /** Write burst power per chip, watts. */
    double writePower() const
    {
        return vdd * (idd4w_ma - idd3n_ma) * 1e-3;
    }

    /** Background power delta (active vs precharged standby), watts. */
    double backgroundPowerDelta() const
    {
        return vdd * (idd3n_ma - idd2n_ma) * 1e-3;
    }
};

/**
 * Geometry and clocking of a simulated PIM device.
 *
 * Defaults correspond to the paper's evaluated configuration: 32 GB
 * DDR4, 32 ranks, 128 banks/rank (8 chips x 16 banks), 32 subarrays
 * per bank, 1024 x 8192 subarrays.
 */
struct PimDeviceConfig
{
    PimDeviceEnum device = PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP;

    uint64_t num_ranks = 32;
    uint64_t num_banks_per_rank = 128;
    uint64_t num_subarrays_per_bank = 32;
    uint64_t num_rows_per_subarray = 1024;
    uint64_t num_cols_per_row = 8192;

    /** Fulcrum / bank-level ALPU clock (paper: 167 MHz). */
    double alu_freq_mhz = 167.0;
    /** Fulcrum ALU width in bits (paper models 32-bit ALPUs). */
    unsigned fulcrum_alu_bits = 32;
    /** Bank-level processing-unit width in bits (paper: 128). */
    unsigned bank_alu_bits = 128;
    /** GDL width in bits (paper assumes 128 to be generous). */
    unsigned gdl_bits = 128;

    /** Independent channels for the cycle/LUT timing backends (0 =
     *  one channel per rank, i.e., the paper's simplification). */
    uint64_t num_channels = 0;

    /**
     * Memory-timing backend for host<->device transfer costing
     * (src/dram/mem_timing_backend.h). DEFAULT resolves at device
     * creation: explicit value > PIMEVAL_MEM_BACKEND env > LUT. CYCLE
     * ("DRAMsim3-lite") times copies on the command-level channel
     * model with ranks sharing num_channels channels, the paper's
     * stated DRAMsim3-integration future work. The LUT fast
     * path — calibrated from the cycle backend, O(1) per costCopy —
     * is the simulator-wide default; ANALYTICAL restores the paper's
     * flat bytes/bandwidth model exactly.
     */
    PimMemBackend mem_backend = PimMemBackend::PIM_MEM_BACKEND_DEFAULT;

    /** Address-interleave order of the cycle-level transfer model
     *  (and the LUT calibrated from it). */
    PimAddrMap addr_map = PimAddrMap::PIM_ADDR_MAP_BANK_FIRST;

    /**
     * LISA inter-subarray links (Chang et al.): Fulcrum assumes
     * adjacent subarrays can exchange rows this way, a feature the
     * paper's benchmarks leave unused ("that is left for future
     * work"). When enabled, device-to-device copies on the
     * subarray-level targets move rows at lisa_row_copy_ns instead
     * of a full read + write.
     */
    bool use_lisa = false;

    PimDramParams dram;

    /** Total subarrays across the device. */
    uint64_t totalSubarrays() const
    {
        return num_ranks * num_banks_per_rank * num_subarrays_per_bank;
    }

    /** Number of PIM cores for the selected device type. */
    uint64_t numCores() const;

    /** Rows available within one PIM core. */
    uint64_t rowsPerCore() const;

    /** Columns (row-buffer bits) within one PIM core. */
    uint64_t colsPerCore() const { return num_cols_per_row; }

    /** Aggregate host<->device bandwidth in bytes/second. The paper
     *  treats ranks as independent channels. */
    double hostBandwidthBytesPerSec() const
    {
        return dram.rank_bw_gbps * 1e9 * static_cast<double>(num_ranks);
    }

    /** ALU cycle time in seconds. */
    double aluPeriodSec() const { return 1e-6 / alu_freq_mhz; }

    /** Total device capacity in bytes. */
    uint64_t capacityBytes() const
    {
        return totalSubarrays() * num_rows_per_subarray *
            num_cols_per_row / 8;
    }

    /** Human-readable one-line summary. */
    std::string summary() const;
};

/**
 * Host baseline parameters (paper Table II) used by the analytical
 * CPU/GPU models.
 */
struct HostParams
{
    // AMD EPYC 9124.
    double cpu_cores = 16.0;
    double cpu_freq_ghz = 3.71;
    double cpu_tdp_w = 200.0;
    double cpu_mem_bw_gbps = 460.8;
    /** SIMD lanes for 32-bit ops (AVX-512 on Zen 4). */
    double cpu_simd_lanes = 8.0;
    /** Idle power while waiting for PIM (paper: 10 W). */
    double cpu_idle_w = 10.0;

    // NVIDIA A100.
    double gpu_tdp_w = 300.0;
    double gpu_mem_bw_gbps = 1935.0;
    double gpu_peak_tflops = 19.5;

    // Achievable fractions of the theoretical peaks. The paper's
    // baselines are measured on real software (OpenMP/OpenBLAS,
    // cuBLAS/Thrust), which sustains well below datasheet peaks;
    // the roofline substitutes use STREAM-style efficiency factors
    // so modeled baselines approximate measured ones (DESIGN.md).
    double cpu_bw_efficiency = 0.65;
    double cpu_compute_efficiency = 0.5;
    double gpu_bw_efficiency = 0.75;
    double gpu_compute_efficiency = 0.6;

    /** Peak CPU 32-bit integer op throughput (ops/s). */
    double cpuPeakOpsPerSec() const
    {
        return cpu_cores * cpu_freq_ghz * 1e9 * cpu_simd_lanes;
    }

    /** Peak GPU op throughput (ops/s). */
    double gpuPeakOpsPerSec() const { return gpu_peak_tflops * 1e12; }
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_PARAMS_H_
