/**
 * @file
 * Fundamental types for the PIMeval reproduction: device targets, data
 * types, allocation strategies, status codes, and command identifiers.
 *
 * Names intentionally mirror the public PIMeval API so that programs
 * written against the original library read the same here.
 */

#ifndef PIMEVAL_CORE_PIM_TYPES_H_
#define PIMEVAL_CORE_PIM_TYPES_H_

#include <cstdint>
#include <optional>
#include <string>

/** Handle for a PIM data object; -1 indicates failure. */
using PimObjId = int32_t;

/** Status code returned by every PIM API call. */
enum class PimStatus {
    PIM_ERROR = 0,
    PIM_OK = 1,
};

/**
 * Simulation targets: the three digital DRAM PIM architectures modeled
 * in the paper (Section IV).
 */
enum class PimDeviceEnum {
    PIM_DEVICE_NONE = 0,
    /** Subarray-level digital bit-serial PIM with associative
     *  processing support ("DRAM-AP" in the paper). */
    PIM_DEVICE_BITSIMD_V_AP,
    /** Subarray-level bit-parallel PIM (Fulcrum adapted to DDR). */
    PIM_DEVICE_FULCRUM,
    /** Bank-level PIM: Fulcrum-style ALPU behind the GDL. */
    PIM_DEVICE_BANK_LEVEL,
    /** Analog bit-serial PIM (Ambit/SIMDRAM-style TRA majority
     *  logic) — the analog-technique extension the paper lists as
     *  in-progress PIMeval work. */
    PIM_DEVICE_SIMDRAM,
};

/** Element data types supported by the simulator. */
enum class PimDataType {
    PIM_BOOL = 0,
    PIM_INT8,
    PIM_INT16,
    PIM_INT32,
    PIM_INT64,
    PIM_UINT8,
    PIM_UINT16,
    PIM_UINT32,
    PIM_UINT64,
};

/** Data layout / allocation strategies. */
enum class PimAllocEnum {
    /** Pick the native layout of the current device: vertical for
     *  bit-serial, horizontal for bit-parallel. */
    PIM_ALLOC_AUTO = 0,
    /** Vertical: element bits laid out down the bitlines. */
    PIM_ALLOC_V,
    /** Horizontal: element bits contiguous within a row. */
    PIM_ALLOC_H,
};

/** Direction of a host<->device or device<->device copy. */
enum class PimCopyEnum {
    PIM_COPY_H2D = 0,
    PIM_COPY_D2H,
    PIM_COPY_D2D,
};

/**
 * Memory-timing backend costing host<->device transfers
 * (PimDeviceConfig::mem_backend, PIMEVAL_MEM_BACKEND).
 *
 * DEFAULT resolves at device creation: an explicit config value wins,
 * then the PIMEVAL_MEM_BACKEND environment variable
 * (cycle|analytical|lut), and finally LUT — the calibrated fast path
 * is the simulator-wide default.
 */
enum class PimMemBackend {
    PIM_MEM_BACKEND_DEFAULT = 0,
    /** Cycle-stepped channel model ("DRAMsim3-lite"): per-bank state
     *  machines, row-buffer policy, shared bus, rank-switch bubbles.
     *  Exact but pays a full channel drain per uncached shape. */
    PIM_MEM_BACKEND_CYCLE,
    /** The paper's flat bytes/bandwidth model (Section V-C),
     *  preserved for reproduction parity. */
    PIM_MEM_BACKEND_ANALYTICAL,
    /** Lookup table calibrated from the cycle backend once per
     *  (timing, topology, mapping) tuple; O(1) lock-free reads,
     *  within a few percent of CYCLE. */
    PIM_MEM_BACKEND_LUT,
};

/**
 * DRAM address-interleave order used by the cycle-level transfer
 * model (and the LUT calibrated from it) when laying a sequential
 * byte stream out as column accesses.
 */
enum class PimAddrMap {
    /** Consecutive 64B blocks rotate across banks; rank switches at
     *  row-group granularity (default; maximizes bank-level
     *  parallelism, amortizes rank-switch bubbles). */
    PIM_ADDR_MAP_BANK_FIRST = 0,
    /** Consecutive blocks rotate across ranks first: exposes the
     *  rank-to-rank data-bus switch penalty on every access. */
    PIM_ADDR_MAP_RANK_FIRST,
    /** Fill a whole row in one bank before advancing: maximal row
     *  hits, but same-bank column timing bounds the stream. */
    PIM_ADDR_MAP_ROW_FIRST,
};

/**
 * Command identifiers for all modeled PIM operations.
 *
 * These drive functional execution, performance costing, energy
 * costing, and the per-command statistics (paper Listing 3 and the
 * Fig. 8 operation-mix analysis).
 */
enum class PimCmdEnum {
    kNone = 0,
    // Two-operand element-wise arithmetic.
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMin,
    kMax,
    // One-operand arithmetic.
    kAbs,
    // Two-operand element-wise logical.
    kAnd,
    kOr,
    kXor,
    kXnor,
    kNot,
    // Comparisons (result element = 0/1).
    kGT,
    kLT,
    kEQ,
    kNE,
    // Scalar-operand variants (scalar broadcast from the controller).
    kAddScalar,
    kSubScalar,
    kMulScalar,
    kDivScalar,
    kMinScalar,
    kMaxScalar,
    kAndScalar,
    kOrScalar,
    kXorScalar,
    kGTScalar,
    kLTScalar,
    kEQScalar,
    // Fused multiply-add with a scalar (AXPY inner op).
    kScaledAdd,
    // Bit shifts by a constant amount.
    kShiftBitsLeft,
    kShiftBitsRight,
    // Element shifts/rotations by one position across the vector.
    kShiftElementsLeft,
    kShiftElementsRight,
    kRotateElementsLeft,
    kRotateElementsRight,
    // Per-element population count.
    kPopCount,
    // Reduction sum (whole object or range).
    kRedSum,
    // Broadcast a scalar to all elements.
    kBroadcast,
    // Data movement (tracked separately in stats, but costed as cmds).
    kCopyH2D,
    kCopyD2H,
    kCopyD2D,
};

/** Bits per element of a data type. */
unsigned pimBitsOfDataType(PimDataType data_type);

/** Whether the data type is signed. */
bool pimIsSigned(PimDataType data_type);

/** Short lowercase name, e.g., "int32". */
std::string pimDataTypeName(PimDataType data_type);

/** Device name string, e.g., "PIM_DEVICE_FULCRUM". */
std::string pimDeviceName(PimDeviceEnum device);

/** Backend name as used by PIMEVAL_MEM_BACKEND: "cycle",
 *  "analytical", "lut" ("default" for the unresolved sentinel). */
std::string pimMemBackendName(PimMemBackend backend);

/** Address-map name: "bank_first", "rank_first", "row_first". */
std::string pimAddrMapName(PimAddrMap map);

/** Command mnemonic, e.g., "add", "redsum". */
std::string pimCmdName(PimCmdEnum cmd);

/** True for commands taking two vector operands. */
bool pimCmdIsTwoOperand(PimCmdEnum cmd);

/** True for commands taking a host scalar operand. */
bool pimCmdHasScalar(PimCmdEnum cmd);

/** The transfer direction of a copy command (kCopyH2D, kCopyD2H,
 *  kCopyD2D); empty for any other command. */
inline std::optional<PimCopyEnum>
pimCopyDirection(PimCmdEnum cmd)
{
    switch (cmd) {
      case PimCmdEnum::kCopyH2D:
        return PimCopyEnum::PIM_COPY_H2D;
      case PimCmdEnum::kCopyD2H:
        return PimCopyEnum::PIM_COPY_D2H;
      case PimCmdEnum::kCopyD2D:
        return PimCopyEnum::PIM_COPY_D2D;
      default:
        return std::nullopt;
    }
}

#endif // PIMEVAL_CORE_PIM_TYPES_H_
