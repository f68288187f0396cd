/**
 * @file
 * Name tables and helpers for PIM fundamental types.
 */

#include "core/pim_types.h"

namespace {

struct CmdInfo
{
    PimCmdEnum cmd;
    const char *name;
    bool two_operand;
    bool has_scalar;
};

const CmdInfo kCmdTable[] = {
    {PimCmdEnum::kNone, "none", false, false},
    {PimCmdEnum::kAdd, "add", true, false},
    {PimCmdEnum::kSub, "sub", true, false},
    {PimCmdEnum::kMul, "mul", true, false},
    {PimCmdEnum::kDiv, "div", true, false},
    {PimCmdEnum::kMin, "min", true, false},
    {PimCmdEnum::kMax, "max", true, false},
    {PimCmdEnum::kAbs, "abs", false, false},
    {PimCmdEnum::kAnd, "and", true, false},
    {PimCmdEnum::kOr, "or", true, false},
    {PimCmdEnum::kXor, "xor", true, false},
    {PimCmdEnum::kXnor, "xnor", true, false},
    {PimCmdEnum::kNot, "not", false, false},
    {PimCmdEnum::kGT, "gt", true, false},
    {PimCmdEnum::kLT, "lt", true, false},
    {PimCmdEnum::kEQ, "eq", true, false},
    {PimCmdEnum::kNE, "ne", true, false},
    {PimCmdEnum::kAddScalar, "add_scalar", false, true},
    {PimCmdEnum::kSubScalar, "sub_scalar", false, true},
    {PimCmdEnum::kMulScalar, "mul_scalar", false, true},
    {PimCmdEnum::kDivScalar, "div_scalar", false, true},
    {PimCmdEnum::kMinScalar, "min_scalar", false, true},
    {PimCmdEnum::kMaxScalar, "max_scalar", false, true},
    {PimCmdEnum::kAndScalar, "and_scalar", false, true},
    {PimCmdEnum::kOrScalar, "or_scalar", false, true},
    {PimCmdEnum::kXorScalar, "xor_scalar", false, true},
    {PimCmdEnum::kGTScalar, "gt_scalar", false, true},
    {PimCmdEnum::kLTScalar, "lt_scalar", false, true},
    {PimCmdEnum::kEQScalar, "eq_scalar", false, true},
    {PimCmdEnum::kScaledAdd, "scaled_add", true, true},
    {PimCmdEnum::kShiftBitsLeft, "shift_bits_l", false, true},
    {PimCmdEnum::kShiftBitsRight, "shift_bits_r", false, true},
    {PimCmdEnum::kShiftElementsLeft, "shift_elem_l", false, false},
    {PimCmdEnum::kShiftElementsRight, "shift_elem_r", false, false},
    {PimCmdEnum::kRotateElementsLeft, "rotate_elem_l", false, false},
    {PimCmdEnum::kRotateElementsRight, "rotate_elem_r", false, false},
    {PimCmdEnum::kPopCount, "popcount", false, false},
    {PimCmdEnum::kRedSum, "redsum", false, false},
    {PimCmdEnum::kBroadcast, "broadcast", false, true},
    {PimCmdEnum::kCopyH2D, "copy_h2d", false, false},
    {PimCmdEnum::kCopyD2H, "copy_d2h", false, false},
    {PimCmdEnum::kCopyD2D, "copy_d2d", false, false},
};

const CmdInfo &
cmdInfo(PimCmdEnum cmd)
{
    for (const auto &info : kCmdTable) {
        if (info.cmd == cmd)
            return info;
    }
    return kCmdTable[0];
}

} // namespace

unsigned
pimBitsOfDataType(PimDataType data_type)
{
    switch (data_type) {
      case PimDataType::PIM_BOOL:
        return 1;
      case PimDataType::PIM_INT8:
      case PimDataType::PIM_UINT8:
        return 8;
      case PimDataType::PIM_INT16:
      case PimDataType::PIM_UINT16:
        return 16;
      case PimDataType::PIM_INT32:
      case PimDataType::PIM_UINT32:
        return 32;
      case PimDataType::PIM_INT64:
      case PimDataType::PIM_UINT64:
        return 64;
    }
    return 0;
}

bool
pimIsSigned(PimDataType data_type)
{
    switch (data_type) {
      case PimDataType::PIM_INT8:
      case PimDataType::PIM_INT16:
      case PimDataType::PIM_INT32:
      case PimDataType::PIM_INT64:
        return true;
      default:
        return false;
    }
}

std::string
pimDataTypeName(PimDataType data_type)
{
    switch (data_type) {
      case PimDataType::PIM_BOOL:
        return "bool";
      case PimDataType::PIM_INT8:
        return "int8";
      case PimDataType::PIM_INT16:
        return "int16";
      case PimDataType::PIM_INT32:
        return "int32";
      case PimDataType::PIM_INT64:
        return "int64";
      case PimDataType::PIM_UINT8:
        return "uint8";
      case PimDataType::PIM_UINT16:
        return "uint16";
      case PimDataType::PIM_UINT32:
        return "uint32";
      case PimDataType::PIM_UINT64:
        return "uint64";
    }
    return "unknown";
}

std::string
pimDeviceName(PimDeviceEnum device)
{
    switch (device) {
      case PimDeviceEnum::PIM_DEVICE_NONE:
        return "PIM_DEVICE_NONE";
      case PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP:
        return "PIM_DEVICE_BITSIMD_V_AP";
      case PimDeviceEnum::PIM_DEVICE_FULCRUM:
        return "PIM_DEVICE_FULCRUM";
      case PimDeviceEnum::PIM_DEVICE_BANK_LEVEL:
        return "PIM_DEVICE_BANK_LEVEL";
      case PimDeviceEnum::PIM_DEVICE_SIMDRAM:
        return "PIM_DEVICE_SIMDRAM";
    }
    return "unknown";
}

std::string
pimMemBackendName(PimMemBackend backend)
{
    switch (backend) {
      case PimMemBackend::PIM_MEM_BACKEND_DEFAULT:
        return "default";
      case PimMemBackend::PIM_MEM_BACKEND_CYCLE:
        return "cycle";
      case PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL:
        return "analytical";
      case PimMemBackend::PIM_MEM_BACKEND_LUT:
        return "lut";
    }
    return "unknown";
}

std::string
pimAddrMapName(PimAddrMap map)
{
    switch (map) {
      case PimAddrMap::PIM_ADDR_MAP_BANK_FIRST:
        return "bank_first";
      case PimAddrMap::PIM_ADDR_MAP_RANK_FIRST:
        return "rank_first";
      case PimAddrMap::PIM_ADDR_MAP_ROW_FIRST:
        return "row_first";
    }
    return "unknown";
}

std::string
pimCmdName(PimCmdEnum cmd)
{
    return cmdInfo(cmd).name;
}

bool
pimCmdIsTwoOperand(PimCmdEnum cmd)
{
    return cmdInfo(cmd).two_operand;
}

bool
pimCmdHasScalar(PimCmdEnum cmd)
{
    return cmdInfo(cmd).has_scalar;
}
